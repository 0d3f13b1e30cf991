#include "core/access.h"

#include <gtest/gtest.h>

namespace dasched {
namespace {

TEST(AccessRecord, SlackLengthIsInclusive) {
  AccessRecord rec;
  rec.begin = 3;
  rec.end = 7;
  EXPECT_EQ(rec.slack_length(), 5);
  rec.begin = rec.end;
  EXPECT_EQ(rec.slack_length(), 1);
}

TEST(AccessRecord, LatestStartAccountsForLength) {
  AccessRecord rec;
  rec.begin = 0;
  rec.end = 10;
  rec.length = 1;
  EXPECT_EQ(rec.latest_start(), 10);
  rec.length = 4;
  EXPECT_EQ(rec.latest_start(), 7);
}

TEST(AccessRecord, DefaultsDescribeAnInputRead) {
  AccessRecord rec;
  EXPECT_EQ(rec.writer_process, -1);
  EXPECT_EQ(rec.writer_slot, -1);
  EXPECT_EQ(rec.length, 1);
}

TEST(ScheduledAccess, DefaultsAreUnforced) {
  ScheduledAccess s;
  EXPECT_FALSE(s.forced);
  EXPECT_EQ(s.slot, 0);
}

TEST(ScheduledAccess, TakesOnlyTheRecordsIdentity) {
  AccessRecord rec;
  rec.id = 7;
  rec.process = 3;
  rec.begin = 2;
  rec.end = 9;
  rec.original = 9;
  const ScheduledAccess s(rec, /*slot=*/4, /*forced=*/true);
  EXPECT_EQ(s.id, 7);
  EXPECT_EQ(s.process, 3);
  EXPECT_EQ(s.slot, 4);
  EXPECT_TRUE(s.forced);
  EXPECT_FALSE(s.theta_fallback);
}

}  // namespace
}  // namespace dasched
