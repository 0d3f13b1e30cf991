// Binary trace persistence: save_trace / load_trace fidelity, including the
// metadata header, plus rejection of missing and corrupt files.
#include "telemetry/trace_io.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>

#include "scoped_test_dir.h"
#include "telemetry/events.h"
#include "telemetry/recorder.h"

namespace dasched {
namespace {

class TraceRoundtrip : public ::testing::Test {
 protected:
  ScopedTestDir dir_;
  std::string path_ = dir_.file("trace.bin");
};

TEST_F(TraceRoundtrip, PreservesMetaAndEveryEvent) {
  TraceBuffer buf;
  // Cross a chunk boundary so multi-chunk serialization is exercised.
  const std::size_t n = TraceBuffer::kChunkEvents + 137;
  for (std::size_t i = 0; i < n; ++i) {
    buf.append(TraceEvent{static_cast<SimTime>(i * 3),
                          static_cast<std::uint16_t>(TraceEventKind::kQueueDepth),
                          static_cast<std::uint16_t>(i % 7),
                          static_cast<std::uint32_t>(i), i, ~i});
  }
  TraceMeta meta;
  meta.app = "madbench2";
  meta.policy = 3;
  meta.scheme = true;
  meta.seed = 0xdeadbeefcafe1234ull;
  meta.num_nodes = 8;
  meta.disks_per_node = 1;
  meta.level = TraceLevel::kRequest;
  meta.end_time = 123456789;

  ASSERT_TRUE(save_trace(path_, buf, meta));
  const auto loaded = load_trace(path_);
  ASSERT_TRUE(loaded.has_value());

  EXPECT_EQ(loaded->meta.app, meta.app);
  EXPECT_EQ(loaded->meta.policy, meta.policy);
  EXPECT_EQ(loaded->meta.scheme, meta.scheme);
  EXPECT_EQ(loaded->meta.seed, meta.seed);
  EXPECT_EQ(loaded->meta.num_nodes, meta.num_nodes);
  EXPECT_EQ(loaded->meta.disks_per_node, meta.disks_per_node);
  EXPECT_EQ(loaded->meta.level, meta.level);
  EXPECT_EQ(loaded->meta.end_time, meta.end_time);

  ASSERT_EQ(loaded->events.size(), n);
  std::size_t i = 0;
  buf.for_each([&](const TraceEvent& ev) {
    const TraceEvent& got = loaded->events[i];
    EXPECT_EQ(got.time, ev.time);
    EXPECT_EQ(got.kind, ev.kind);
    EXPECT_EQ(got.subject, ev.subject);
    EXPECT_EQ(got.aux, ev.aux);
    EXPECT_EQ(got.arg0, ev.arg0);
    EXPECT_EQ(got.arg1, ev.arg1);
    i += 1;
  });
  EXPECT_EQ(i, n);
}

TEST_F(TraceRoundtrip, EmptyTraceRoundTrips) {
  const TraceBuffer buf;
  TraceMeta meta;
  meta.app = "hf";
  ASSERT_TRUE(save_trace(path_, buf, meta));
  const auto loaded = load_trace(path_);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->meta.app, "hf");
  EXPECT_TRUE(loaded->events.empty());
}

TEST_F(TraceRoundtrip, RejectsMissingBadMagicAndTruncated) {
  EXPECT_FALSE(load_trace(dir_.file("no_such_trace.bin")).has_value());

  {
    std::ofstream out(path_, std::ios::binary);
    out << "NOTATRACEFILE-------------------";
  }
  EXPECT_FALSE(load_trace(path_).has_value());

  // A valid file cut mid-event-section must be rejected, not half-read.
  TraceBuffer buf;
  for (int i = 0; i < 100; ++i) {
    buf.append(TraceEvent{
        static_cast<SimTime>(i),
        static_cast<std::uint16_t>(TraceEventKind::kQueueDepth), 0, 0, 0, 0});
  }
  ASSERT_TRUE(save_trace(path_, buf, TraceMeta{}));
  const auto full_size = std::filesystem::file_size(path_);
  std::filesystem::resize_file(path_, full_size - 16);
  EXPECT_FALSE(load_trace(path_).has_value());
}

}  // namespace
}  // namespace dasched
