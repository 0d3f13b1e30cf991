#include "compiler/affine.h"

#include <gtest/gtest.h>

// Evaluation is lowering's job: tests/compiler/lower_test.cc (LowerAffine.*)
// evaluates these expressions through `lower`.

namespace dasched {
namespace {

TEST(AffineExpr, LinearCombination) {
  const AffineExpr i = AffineExpr::var("i");
  const AffineExpr j = AffineExpr::var("j");
  const AffineExpr e = 3 * i + j * 2 + 5;
  EXPECT_EQ(e.coefficient("i"), 3);
  EXPECT_EQ(e.coefficient("j"), 2);
  EXPECT_EQ(e.coefficient("k"), 0);
  EXPECT_EQ(e.constant(), 5);
}

TEST(AffineExpr, SubtractionCancelsTerms) {
  const AffineExpr i = AffineExpr::var("i");
  const AffineExpr e = (2 * i + 3) - (2 * i + 1);
  EXPECT_TRUE(e.is_constant());
  EXPECT_EQ(e.constant(), 2);
  EXPECT_TRUE(e.variables().empty());
}

TEST(AffineExpr, ScalingByZeroPrunes) {
  AffineExpr e = AffineExpr::var("i");
  e *= 0;
  EXPECT_TRUE(e.is_constant());
  EXPECT_EQ(e.constant(), 0);
}

TEST(AffineExpr, VariablesSorted) {
  const AffineExpr e =
      AffineExpr::var("z") + AffineExpr::var("a") + AffineExpr::var("m");
  EXPECT_EQ(e.variables(), (std::vector<std::string>{"a", "m", "z"}));
}

TEST(AffineExpr, EqualityIsStructural) {
  const AffineExpr a = 2 * AffineExpr::var("i") + 1;
  const AffineExpr b = AffineExpr::var("i") + AffineExpr::var("i") + 1;
  EXPECT_EQ(a, b);
}

TEST(AffineExpr, ToStringReadable) {
  const AffineExpr e = 2 * AffineExpr::var("i") + 7;
  EXPECT_EQ(e.to_string(), "2*i + 7");
  EXPECT_EQ(AffineExpr{}.to_string(), "0");
  EXPECT_EQ(AffineExpr::var("x").to_string(), "x");
}

TEST(AffineExpr, NegativeCoefficients) {
  const AffineExpr e = AffineExpr(10) - 3 * AffineExpr::var("k");
  EXPECT_EQ(e.coefficient("k"), -3);
  EXPECT_EQ(e.constant(), 10);
}

}  // namespace
}  // namespace dasched
