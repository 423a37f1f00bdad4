/**
 * @file
 * Environment knobs of the fuzz and oracle tests (trial counts, seeds,
 * kernel counts), read by the command-line value rules: unset gives
 * the default; any other value must be a decimal integer that fits,
 * or the test fails with a message naming the variable.
 */

#ifndef LIQUID_TESTS_TEST_ENV_HH
#define LIQUID_TESTS_TEST_ENV_HH

#include <cstdlib>

#include <gtest/gtest.h>

#include "common/cli.hh"

namespace liquid
{

template <typename T>
T
envKnob(const char *name, T fallback)
{
    const char *text = std::getenv(name);
    T value = fallback;
    if (text && !cli::convert(text, value)) {
        ADD_FAILURE() << name << " takes " << cli::value(value).expects
                      << ", got '" << text << "'";
    }
    return value;
}

} // namespace liquid

#endif // LIQUID_TESTS_TEST_ENV_HH
