#include "disk/disk_params.h"

#include <gtest/gtest.h>

#include <vector>

namespace dasched {
namespace {

/// The speed ladder `for_each_rpm_level` visits, in visiting order.
std::vector<Rpm> ladder(const DiskParams& p) {
  std::vector<Rpm> out;
  p.for_each_rpm_level([&out](Rpm r) { out.push_back(r); });
  return out;
}

TEST(DiskParams, PaperDefaultsMatchTableII) {
  const DiskParams p = DiskParams::paper_defaults();
  EXPECT_EQ(p.capacity, gib(100));
  EXPECT_EQ(p.max_rpm, 12'000);
  EXPECT_DOUBLE_EQ(p.idle_power_w.value(), 17.1);
  EXPECT_DOUBLE_EQ(p.active_power_w.value(), 36.6);
  EXPECT_DOUBLE_EQ(p.seek_power_w.value(), 32.1);
  EXPECT_DOUBLE_EQ(p.standby_power_w.value(), 7.2);
  EXPECT_DOUBLE_EQ(p.spin_up_power_w.value(), 44.8);
  EXPECT_EQ(p.spin_up_time, sec(16.0));
  EXPECT_EQ(p.spin_down_time, sec(10.0));
  EXPECT_FALSE(p.multi_speed);
}

TEST(DiskParams, MultiSpeedLadderMatchesTableII) {
  const DiskParams p = DiskParams::paper_multispeed();
  EXPECT_TRUE(p.multi_speed);
  EXPECT_EQ(p.min_rpm, 3'600);
  EXPECT_EQ(p.rpm_step, 1'200);
  const auto levels = ladder(p);
  ASSERT_EQ(levels.size(), 8u);  // 3600, 4800, ..., 12000
  EXPECT_EQ(levels.front(), 3'600);
  EXPECT_EQ(levels.back(), 12'000);
  for (std::size_t i = 1; i < levels.size(); ++i) {
    EXPECT_EQ(levels[i] - levels[i - 1], 1'200);
  }
}

TEST(DiskParams, SingleSpeedLadderIsMaxOnly) {
  const DiskParams p = DiskParams::paper_defaults();
  const auto levels = ladder(p);
  ASSERT_EQ(levels.size(), 1u);
  EXPECT_EQ(levels[0], 12'000);
}

TEST(DiskParams, RotationPeriodScalesInversely) {
  const DiskParams p = DiskParams::paper_multispeed();
  EXPECT_EQ(p.rotation_period(12'000), 5'000);  // 5 ms at 12k RPM
  EXPECT_EQ(p.rotation_period(6'000), 10'000);
  EXPECT_EQ(p.rotation_period(3'600), 16'666);
}

TEST(DiskParams, RpmTransitionTimeProportionalToSteps) {
  const DiskParams p = DiskParams::paper_multispeed();
  EXPECT_EQ(p.rpm_transition_time(12'000, 12'000), 0);
  EXPECT_EQ(p.rpm_transition_time(12'000, 10'800), p.rpm_step_time);
  EXPECT_EQ(p.rpm_transition_time(12'000, 3'600), 7 * p.rpm_step_time);
  EXPECT_EQ(p.rpm_transition_time(3'600, 12'000),
            p.rpm_transition_time(12'000, 3'600));
}

}  // namespace
}  // namespace dasched
