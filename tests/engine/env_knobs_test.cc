#include "engine/env_knobs.h"

#include <cstdlib>

#include <gtest/gtest.h>

#include "util/parse.h"

namespace dasched {
namespace {

TEST(ParseDouble, AcceptsPlainNumbers) {
  EXPECT_DOUBLE_EQ(*parse_f64("0.5"), 0.5);
  EXPECT_DOUBLE_EQ(*parse_f64("1"), 1.0);
  EXPECT_DOUBLE_EQ(*parse_f64("-2.25"), -2.25);
  EXPECT_DOUBLE_EQ(*parse_f64("1e3"), 1000.0);
}

TEST(ParseDouble, RejectsGarbage) {
  EXPECT_FALSE(parse_f64(""));
  EXPECT_FALSE(parse_f64("abc"));
  EXPECT_FALSE(parse_f64("0.5x"));
  EXPECT_FALSE(parse_f64("1.0 "));    // trailing whitespace = not consumed
  EXPECT_FALSE(parse_f64("  0.75"));  // nor is leading whitespace
  EXPECT_FALSE(parse_f64("1..5"));
  EXPECT_FALSE(parse_f64("1e999"));   // out of range
}

TEST(ParseInt, AcceptsPlainIntegers) {
  EXPECT_EQ(*parse_i64("0"), 0);
  EXPECT_EQ(*parse_i64("42"), 42);
  EXPECT_EQ(*parse_i64("-7"), -7);
}

TEST(ParseInt, RejectsGarbage) {
  EXPECT_FALSE(parse_i64(""));
  EXPECT_FALSE(parse_i64("abc"));
  EXPECT_FALSE(parse_i64("12abc"));
  EXPECT_FALSE(parse_i64("3.5"));
  EXPECT_FALSE(parse_i64("99999999999999999999999"));  // out of range
}

TEST(EnvKnobs, FallbackWhenUnset) {
  ::unsetenv("DASCHED_TEST_KNOB");
  EXPECT_DOUBLE_EQ(env_double("DASCHED_TEST_KNOB", 0.5), 0.5);
  EXPECT_EQ(env_int("DASCHED_TEST_KNOB", 8), 8);
}

TEST(EnvKnobs, ReadsSetValues) {
  ::setenv("DASCHED_TEST_KNOB", "0.25", 1);
  EXPECT_DOUBLE_EQ(env_double("DASCHED_TEST_KNOB", 0.5), 0.25);
  ::setenv("DASCHED_TEST_KNOB", "16", 1);
  EXPECT_EQ(env_int("DASCHED_TEST_KNOB", 8), 16);
  ::unsetenv("DASCHED_TEST_KNOB");
}

TEST(EnvKnobsDeathTest, MalformedValueIsFatal) {
  ::setenv("DASCHED_TEST_KNOB", "abc", 1);
  EXPECT_EXIT((void)env_double("DASCHED_TEST_KNOB", 0.5),
              ::testing::ExitedWithCode(2), "invalid value 'abc'");
  EXPECT_EXIT((void)env_int("DASCHED_TEST_KNOB", 8),
              ::testing::ExitedWithCode(2), "invalid value 'abc'");
  ::unsetenv("DASCHED_TEST_KNOB");
}

}  // namespace
}  // namespace dasched
