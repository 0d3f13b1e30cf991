#include "disk/power_model.h"

#include <gtest/gtest.h>

namespace dasched {
namespace {

class PowerModelTest : public ::testing::Test {
 protected:
  DiskParams params_ = DiskParams::paper_multispeed();
  PowerModel pm_{params_};
};

TEST_F(PowerModelTest, TableIIValuesAtMaxRpm) {
  EXPECT_DOUBLE_EQ(pm_.idle_w(12'000).value(), 17.1);
  EXPECT_DOUBLE_EQ(pm_.active_w(12'000).value(), 36.6);
  EXPECT_DOUBLE_EQ(pm_.seek_w(12'000).value(), 32.1);
  EXPECT_DOUBLE_EQ(pm_.standby_w().value(), 7.2);
  EXPECT_DOUBLE_EQ(pm_.spin_up_w().value(), 44.8);
}

TEST_F(PowerModelTest, QuadraticScalingOfMotorShare) {
  // Eq. 1: motor power ~ omega^2.  At half speed the motor share is 1/4.
  const double full_motor = 17.1 - params_.idle_floor_w.value();
  const double expected = params_.idle_floor_w.value() + full_motor * 0.25;
  EXPECT_NEAR(pm_.idle_w(6'000).value(), expected, 1e-9);
}

TEST_F(PowerModelTest, IdlePowerMonotoneInRpm) {
  double prev = 0.0;
  params_.for_each_rpm_level([&](Rpm r) {
    const double w = pm_.idle_w(r).value();
    EXPECT_GT(w, prev);
    prev = w;
  });
}

TEST_F(PowerModelTest, MinRpmIdleWellBelowMaxButAboveFloor) {
  const double low = pm_.idle_w(3'600).value();
  EXPECT_LT(low, 17.1 * 0.5);
  EXPECT_GT(low, params_.idle_floor_w.value());
  EXPECT_GT(low, pm_.standby_w().value() * 0.5);
}

TEST_F(PowerModelTest, ActiveAlwaysAboveIdleAtSameSpeed) {
  params_.for_each_rpm_level(
      [&](Rpm r) { EXPECT_GT(pm_.active_w(r), pm_.idle_w(r)); });
}

TEST_F(PowerModelTest, TransitionPowerUsesLargerEndpoint) {
  const double down = pm_.rpm_transition_w(12'000, 3'600).value();
  const double up = pm_.rpm_transition_w(3'600, 12'000).value();
  EXPECT_DOUBLE_EQ(down, up);
  EXPECT_DOUBLE_EQ(down, params_.rpm_transition_power_factor * pm_.idle_w(12'000).value());
}

}  // namespace
}  // namespace dasched
