/**
 * @file
 * EXPECT_CONFIG_ERROR(statement, substr): expect @p statement to
 * throw sim::ConfigError (what sim::fatal throws) whose message
 * contains @p substr. Tests of user-error paths use it in place of
 * an exit-code death test.
 */

#ifndef QTENON_TESTS_CONFIG_ERROR_HH
#define QTENON_TESTS_CONFIG_ERROR_HH

#include <gtest/gtest.h>

#include <string>

#include "sim/logging.hh"

namespace qtenon::tests {

/** Success when @p fn throws a ConfigError mentioning @p substr. */
template <typename Fn>
::testing::AssertionResult
throwsConfigError(Fn &&fn, const std::string &substr)
{
    try {
        fn();
    } catch (const sim::ConfigError &e) {
        if (std::string(e.what()).find(substr) != std::string::npos)
            return ::testing::AssertionSuccess();
        return ::testing::AssertionFailure()
            << "ConfigError \"" << e.what() << "\" does not contain \""
            << substr << "\"";
    }
    return ::testing::AssertionFailure() << "no sim::ConfigError thrown";
}

} // namespace qtenon::tests

#define EXPECT_CONFIG_ERROR(statement, substr)                        \
    EXPECT_TRUE(::qtenon::tests::throwsConfigError(                   \
        [&] { statement; }, substr))

#endif // QTENON_TESTS_CONFIG_ERROR_HH
