/**
 * @file
 * AVX2 build of the engine's block bodies. This is the only file in
 * qtenon_sim compiled with -mavx2 (see CMakeLists.txt);
 * detail::avx2Bodies() hands these out only after
 * __builtin_cpu_supports("avx2") says the running CPU can execute
 * them, so building it never constrains where the binary runs.
 */

#ifndef __AVX2__
#error "random_avx2.cc must be compiled with -mavx2"
#endif

#define QTENON_RANDOM_AVX2 1
#define QTENON_RANDOM_NS avx2_backend
#include "random_impl.hh"

namespace qtenon::sim::detail {

const RandomBodies &
avx2BuiltBodies()
{
    return avx2_backend::bodies();
}

} // namespace qtenon::sim::detail
