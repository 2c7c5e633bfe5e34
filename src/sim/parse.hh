/**
 * @file
 * Parsing of numbers that come from outside the program: command-line
 * flags and environment variables. One rule for all of them: the
 * whole token must be the number, and it must fit its destination.
 */

#ifndef QTENON_SIM_PARSE_HH
#define QTENON_SIM_PARSE_HH

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>

namespace qtenon::sim {

/**
 * @p text as a whole base-10 integer in [@p lo, @p hi], or nullopt:
 * a sign, blanks, trailing characters, overflow and an empty token
 * all reject.
 */
inline std::optional<std::uint64_t>
toUint(const std::string &text, std::uint64_t lo, std::uint64_t hi)
{
    if (text.empty() ||
        !std::isdigit(static_cast<unsigned char>(text[0])))
        return std::nullopt;
    errno = 0;
    char *end = nullptr;
    const std::uint64_t n = std::strtoull(text.c_str(), &end, 10);
    if (*end != '\0' || errno == ERANGE || n < lo || n > hi)
        return std::nullopt;
    return n;
}

} // namespace qtenon::sim

#endif // QTENON_SIM_PARSE_HH
