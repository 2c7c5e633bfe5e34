/**
 * @file
 * The builds of the engine's block bodies a differential test runs:
 * the scalar build always, the AVX2 build when it was built and the
 * CPU has AVX2 (a skip is noted on stdout otherwise).
 */

#ifndef QTENON_TESTS_RANDOM_BODIES_HH
#define QTENON_TESTS_RANDOM_BODIES_HH

#include <iostream>
#include <utility>
#include <vector>

#include "sim/random.hh"

namespace qtenon::tests {

/** Every build of the block bodies this CPU can run, by name. */
inline std::vector<std::pair<const char *, const sim::detail::RandomBodies *>>
bodyBuilds()
{
    std::vector<std::pair<const char *, const sim::detail::RandomBodies *>>
        builds{{"scalar", &sim::detail::scalarBodies()}};
    if (const auto *avx2 = sim::detail::avx2Bodies())
        builds.emplace_back("avx2", avx2);
    else
        std::cout << "[  SKIP    ] avx2 bodies: not built or no AVX2\n";
    return builds;
}

} // namespace qtenon::tests

#endif // QTENON_TESTS_RANDOM_BODIES_HH
