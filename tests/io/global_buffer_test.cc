#include "io/global_buffer.h"

#include <gtest/gtest.h>

namespace dasched {
namespace {

/// Ids the tests use stay below this.
constexpr std::size_t kIds = 16;

TEST(GlobalBuffer, ReserveTracksCapacity) {
  GlobalBuffer buf;
  buf.reset(kib(128), kIds);
  EXPECT_TRUE(buf.try_reserve(0, kib(64)));
  EXPECT_TRUE(buf.try_reserve(1, kib(64)));
  EXPECT_FALSE(buf.try_reserve(2, kib(64)));
  EXPECT_EQ(buf.used(), kib(128));
  EXPECT_EQ(buf.stats().full_rejections, 1);
}

TEST(GlobalBuffer, LifecycleAbsentInFlightReadyDone) {
  GlobalBuffer buf;
  buf.reset(kib(128), kIds);
  EXPECT_EQ(buf.state(5), BufferEntryState::kAbsent);
  buf.try_reserve(5, kib(64));
  EXPECT_EQ(buf.state(5), BufferEntryState::kInFlight);
  EXPECT_FALSE(buf.mark_ready(5));  // useful landing: nothing reclaimed
  EXPECT_EQ(buf.state(5), BufferEntryState::kReady);
  buf.consume(5);
  EXPECT_EQ(buf.state(5), BufferEntryState::kDone);
  EXPECT_EQ(buf.used(), 0);
}

TEST(GlobalBuffer, OvertakenPrefetchReclaimedOnLanding) {
  GlobalBuffer buf;
  buf.reset(kib(64), kIds);
  buf.try_reserve(7, kib(64));
  buf.mark_done(7);  // the app fetched the data itself
  EXPECT_TRUE(buf.mark_ready(7));  // the stale prefetch lands: space freed
  EXPECT_EQ(buf.used(), 0);
  EXPECT_EQ(buf.stats().wasted, 1);
  EXPECT_EQ(buf.state(7), BufferEntryState::kDone);
}

TEST(GlobalBuffer, MarkDoneWithoutReservation) {
  GlobalBuffer buf;
  buf.reset(kib(64), kIds);
  buf.mark_done(9);
  EXPECT_TRUE(buf.is_done(9));
  EXPECT_EQ(buf.state(9), BufferEntryState::kDone);
}

TEST(GlobalBuffer, PeakBytesTracked) {
  GlobalBuffer buf;
  buf.reset(kib(192), kIds);
  buf.try_reserve(0, kib(64));
  buf.try_reserve(1, kib(128));
  buf.mark_ready(0);
  buf.consume(0);
  EXPECT_EQ(buf.stats().peak_bytes, kib(192));
  EXPECT_EQ(buf.used(), kib(128));
}

TEST(GlobalBuffer, StatsCountReservationsAndConsumes) {
  GlobalBuffer buf;
  buf.reset(mib(1), kIds);
  for (int i = 0; i < 5; ++i) {
    buf.try_reserve(i, kib(64));
    buf.mark_ready(i);
    buf.consume(i, /*waited=*/i < 2);
  }
  EXPECT_EQ(buf.stats().reservations, 5);
  EXPECT_EQ(buf.stats().consumed, 5);
  EXPECT_EQ(buf.stats().consumed_in_flight, 2);
}

}  // namespace
}  // namespace dasched
