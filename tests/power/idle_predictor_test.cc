#include "power/idle_predictor.h"

#include <gtest/gtest.h>

namespace dasched {
namespace {

TEST(IdlePredictor, PredictsZeroBeforeObservations) {
  IdlePredictor p;
  EXPECT_EQ(p.predict(), 0);
  EXPECT_EQ(p.observations(), 0);
}

TEST(IdlePredictor, ClassifiesByThresholds) {
  IdlePredictor p(0.5, sec(1.0), sec(60.0));
  EXPECT_EQ(p.classify(msec(10.0)), IdlePredictor::Class::kBurst);
  EXPECT_EQ(p.classify(sec(5.0)), IdlePredictor::Class::kMedium);
  EXPECT_EQ(p.classify(sec(100.0)), IdlePredictor::Class::kLong);
  EXPECT_EQ(p.classify(sec(1.0)), IdlePredictor::Class::kMedium);  // inclusive
  EXPECT_EQ(p.classify(sec(60.0)), IdlePredictor::Class::kLong);
}

TEST(IdlePredictor, FirstObservationSetsEwma) {
  IdlePredictor p;
  p.observe(msec(100.0));
  EXPECT_EQ(p.predict(), msec(100.0));
}

TEST(IdlePredictor, EwmaBlendsWithinClass) {
  IdlePredictor p(0.5);
  p.observe(msec(100.0));
  p.observe(msec(200.0));
  EXPECT_EQ(p.predict(), msec(150.0));
}

TEST(IdlePredictor, ClassesAreSeparated) {
  IdlePredictor p(0.5, sec(1.0), sec(60.0));
  // Interleave burst gaps and phase gaps; neither should pollute the other.
  for (int i = 0; i < 10; ++i) {
    p.observe(msec(10.0));
    p.observe(sec(100.0));
  }
  EXPECT_EQ(p.long_ewma(), sec(100.0));
  // After a long observation the prediction follows the long class.
  EXPECT_EQ(p.predict(), sec(100.0));
  p.observe(msec(10.0));
  EXPECT_EQ(p.predict(), msec(10.0));
}

TEST(IdlePredictor, MediumEwmaTracksMediumGaps) {
  IdlePredictor p;
  p.observe(sec(10.0));
  p.observe(sec(20.0));
  EXPECT_EQ(p.medium_ewma(), sec(15.0));
  EXPECT_EQ(p.long_ewma(), 0);
}

TEST(IdlePredictor, ConsecutiveSameClassRunTracking) {
  IdlePredictor p;
  p.observe(msec(10.0));
  EXPECT_EQ(p.consecutive_same_class(), 1);
  p.observe(msec(20.0));
  EXPECT_EQ(p.consecutive_same_class(), 2);
  p.observe(sec(100.0));  // class switch resets the run
  EXPECT_EQ(p.consecutive_same_class(), 1);
  p.observe(sec(90.0));
  EXPECT_EQ(p.consecutive_same_class(), 2);
}

}  // namespace
}  // namespace dasched
