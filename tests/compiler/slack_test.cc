#include "compiler/slack.h"

#include <gtest/gtest.h>

#include <map>

#include "compiler/trace_builder.h"
#include "util/rng.h"

namespace dasched {
namespace {

// ---------------------------------------------------------------------------
// LastWriteMap
// ---------------------------------------------------------------------------

TEST(LastWriteMap, EmptyMapHasNoWriter) {
  LastWriteMap m;
  EXPECT_FALSE(m.last_write(0, 0, 100).has_value());
}

TEST(LastWriteMap, ExactRangeHit) {
  LastWriteMap m;
  m.record_write(0, 100, 50, /*slot=*/7, /*process=*/2);
  const auto w = m.last_write(0, 100, 50);
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(w->slot, 7);
  EXPECT_EQ(w->process, 2);
}

TEST(LastWriteMap, PartialOverlapHits) {
  LastWriteMap m;
  m.record_write(0, 100, 50, 7, 0);
  EXPECT_TRUE(m.last_write(0, 140, 50).has_value());
  EXPECT_TRUE(m.last_write(0, 50, 60).has_value());
  EXPECT_FALSE(m.last_write(0, 150, 10).has_value());
  EXPECT_FALSE(m.last_write(0, 0, 100).has_value());
}

TEST(LastWriteMap, LaterWriteOverwrites) {
  LastWriteMap m;
  m.record_write(0, 0, 100, 1, 0);
  m.record_write(0, 0, 100, 5, 1);
  const auto w = m.last_write(0, 10, 10);
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(w->slot, 5);
  EXPECT_EQ(w->process, 1);
}

TEST(LastWriteMap, PartialOverwriteSplitsInterval) {
  LastWriteMap m;
  m.record_write(0, 0, 300, 1, 0);
  m.record_write(0, 100, 100, 9, 1);
  EXPECT_EQ(m.last_write(0, 0, 50)->slot, 1);
  EXPECT_EQ(m.last_write(0, 150, 10)->slot, 9);
  EXPECT_EQ(m.last_write(0, 250, 10)->slot, 1);
  // Query spanning everything returns the max slot.
  EXPECT_EQ(m.last_write(0, 0, 300)->slot, 9);
}

TEST(LastWriteMap, FilesAreIndependent) {
  LastWriteMap m;
  m.record_write(0, 0, 100, 3, 0);
  EXPECT_FALSE(m.last_write(1, 0, 100).has_value());
}

TEST(LastWriteMap, ModelBasedRandomConsistency) {
  // Compare against a brute-force per-byte model on a small space.
  LastWriteMap m;
  std::map<Bytes, LastWriteMap::Writer> model;  // byte -> writer
  Rng rng(99);
  for (int step = 0; step < 500; ++step) {
    const Bytes off = static_cast<Bytes>(rng.next_below(200));
    const Bytes size = 1 + static_cast<Bytes>(rng.next_below(40));
    if (rng.next_bool(0.5)) {
      const LastWriteMap::Writer w{step, static_cast<int>(rng.next_below(4))};
      m.record_write(0, off, size, w.slot, w.process);
      for (Bytes b = off; b < off + size; b += 1) model[b] = w;
    } else {
      std::optional<LastWriteMap::Writer> expect;
      for (Bytes b = off; b < off + size; b += 1) {
        const auto it = model.find(b);
        if (it != model.end() &&
            (!expect.has_value() || it->second.slot > expect->slot)) {
          expect = it->second;
        }
      }
      const auto got = m.last_write(0, off, size);
      ASSERT_EQ(got.has_value(), expect.has_value()) << "step " << step;
      if (expect.has_value()) {
        EXPECT_EQ(got->slot, expect->slot) << "step " << step;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// analyze_slacks
// ---------------------------------------------------------------------------

class SlackAnalysisTest : public ::testing::Test {
 protected:
  SlackAnalysisTest() : striping_(4, kib(64)) {
    file_ = striping_.create_file("f", mib(16));
  }

  StripingMap striping_;
  FileId file_;
};

TEST_F(SlackAnalysisTest, InputReadsGetMaximalSlack) {
  TraceBuilder tb(1);
  tb.compute(0, 100);
  tb.end_slot(0);
  tb.compute(0, 100);
  tb.end_slot(0);
  tb.read(0, file_, 0, kib(64));
  tb.end_slot(0);
  CompiledProgram cp = tb.build();
  analyze_slacks(cp, striping_);
  ASSERT_EQ(cp.reads.size(), 1u);
  EXPECT_EQ(cp.reads[0].begin, 0);
  EXPECT_EQ(cp.reads[0].end, 2);
  EXPECT_EQ(cp.reads[0].original, 2);
  EXPECT_EQ(cp.reads[0].writer_process, -1);
}

TEST_F(SlackAnalysisTest, IntraProcessProducerConsumerSlack) {
  TraceBuilder tb(1);
  tb.write(0, file_, 0, kib(64));   // slot 0
  tb.end_slot(0);
  for (int i = 0; i < 3; ++i) {     // slots 1-3: compute
    tb.compute(0, 10);
    tb.end_slot(0);
  }
  tb.read(0, file_, 0, kib(64));    // slot 4
  tb.end_slot(0);
  CompiledProgram cp = tb.build();
  analyze_slacks(cp, striping_);
  ASSERT_EQ(cp.reads.size(), 1u);
  EXPECT_EQ(cp.reads[0].begin, 1);  // iw + 1
  EXPECT_EQ(cp.reads[0].end, 4);
  EXPECT_EQ(cp.reads[0].writer_process, 0);
  EXPECT_EQ(cp.reads[0].writer_slot, 0);
}

TEST_F(SlackAnalysisTest, InterProcessSlackRecordsWriter) {
  TraceBuilder tb(2);
  tb.write(1, file_, 0, kib(64));   // process 1 writes at slot 0
  tb.end_iteration();
  tb.compute(0, 10);
  tb.compute(1, 10);
  tb.end_iteration();
  tb.read(0, file_, 0, kib(64));    // process 0 reads at slot 2
  tb.compute(1, 10);
  tb.end_iteration();
  CompiledProgram cp = tb.build();
  analyze_slacks(cp, striping_);
  ASSERT_EQ(cp.reads.size(), 1u);
  EXPECT_EQ(cp.reads[0].process, 0);
  EXPECT_EQ(cp.reads[0].begin, 1);
  EXPECT_EQ(cp.reads[0].writer_process, 1);
  EXPECT_EQ(cp.reads[0].writer_slot, 0);
}

TEST_F(SlackAnalysisTest, SameSlotWriteClampsToLengthOneWindow) {
  // "a negative slack becomes a slack of length 1": a read racing a
  // same-slot write from another process cannot be hoisted.
  TraceBuilder tb(2);
  tb.read(0, file_, 0, kib(64));
  tb.write(1, file_, 0, kib(64));
  tb.end_iteration();
  CompiledProgram cp = tb.build();
  analyze_slacks(cp, striping_);
  ASSERT_EQ(cp.reads.size(), 1u);
  EXPECT_EQ(cp.reads[0].begin, 0);
  EXPECT_EQ(cp.reads[0].end, 0);
  EXPECT_EQ(cp.reads[0].slack_length(), 1);
  EXPECT_EQ(cp.reads[0].writer_slot, 0);
}

TEST_F(SlackAnalysisTest, MaxSlackBoundsTheWindow) {
  TraceBuilder tb(1);
  for (int i = 0; i < 100; ++i) {
    tb.compute(0, 10);
    tb.end_slot(0);
  }
  tb.read(0, file_, 0, kib(64));
  tb.end_slot(0);
  CompiledProgram cp = tb.build();
  SlackOptions opts;
  opts.max_slack = 10;
  analyze_slacks(cp, striping_, opts);
  ASSERT_EQ(cp.reads.size(), 1u);
  EXPECT_EQ(cp.reads[0].slack_length(), 10);
  EXPECT_EQ(cp.reads[0].end, 100);
}

TEST_F(SlackAnalysisTest, LengthDerivedFromRequestSize) {
  TraceBuilder tb(1);
  for (int i = 0; i < 10; ++i) {
    tb.compute(0, 10);
    tb.end_slot(0);
  }
  tb.read(0, file_, 0, mib(3));
  tb.end_slot(0);
  CompiledProgram cp = tb.build();
  SlackOptions opts;
  opts.length_unit = mib(1);
  analyze_slacks(cp, striping_, opts);
  ASSERT_EQ(cp.reads.size(), 1u);
  EXPECT_EQ(cp.reads[0].length, 3);
}

TEST_F(SlackAnalysisTest, LengthClampedToSlackWindow) {
  TraceBuilder tb(1);
  tb.write(0, file_, 0, mib(4));
  tb.end_slot(0);
  tb.read(0, file_, 0, mib(4));
  tb.end_slot(0);
  CompiledProgram cp = tb.build();
  SlackOptions opts;
  opts.length_unit = mib(1);
  analyze_slacks(cp, striping_, opts);
  ASSERT_EQ(cp.reads.size(), 1u);
  EXPECT_EQ(cp.reads[0].slack_length(), 1);
  EXPECT_EQ(cp.reads[0].length, 1);
}

TEST_F(SlackAnalysisTest, SignaturesComeFromStriping) {
  TraceBuilder tb(1);
  tb.read(0, file_, 0, kib(128));  // two stripes -> nodes 0 and 1
  tb.end_slot(0);
  CompiledProgram cp = tb.build();
  analyze_slacks(cp, striping_);
  ASSERT_EQ(cp.reads.size(), 1u);
  EXPECT_EQ(cp.reads[0].sig, striping_.signature(file_, 0, kib(128)));
  EXPECT_EQ(cp.reads[0].sig.popcount(), 2);
}

TEST_F(SlackAnalysisTest, ReadSitesIndexBackIntoProgram) {
  TraceBuilder tb(2);
  tb.write(0, file_, kib(128), kib(64));
  tb.read(0, file_, 0, kib(64));
  tb.read(1, file_, kib(64), kib(64));
  tb.end_iteration();
  tb.read(1, file_, 0, kib(64));
  tb.end_iteration();
  CompiledProgram cp = tb.build();
  analyze_slacks(cp, striping_);
  ASSERT_EQ(cp.reads.size(), 3u);
  ASSERT_EQ(cp.num_reads, 3);
  for (std::size_t i = 0; i < cp.reads.size(); ++i) {
    // A record's (process, op_index) finds the op carrying its id, and the
    // op sits in the record's original slot.
    const AccessRecord& rec = cp.reads[i];
    const ProcessPlan& plan = cp.process(rec.process);
    const auto flat = static_cast<std::size_t>(rec.op_index);
    const IoOp& op = plan.op(flat);
    EXPECT_FALSE(op.is_write);
    EXPECT_EQ(op.access_id, rec.id);
    EXPECT_EQ(rec.id, static_cast<int>(i));
    EXPECT_GE(flat, plan.first_op(rec.original));
    EXPECT_LT(flat, plan.first_op(rec.original) + plan.ops(rec.original).size());
  }
  EXPECT_EQ(cp.reads[0].op_index, 1);  // behind process 0's write
  // op_index is flat across the process's slots: process 1's slot-1 read
  // follows its slot-0 read.
  EXPECT_EQ(cp.reads[2].process, 1);
  EXPECT_EQ(cp.reads[2].original, 1);
  EXPECT_EQ(cp.reads[2].op_index, 1);
}

TEST_F(SlackAnalysisTest, RepeatedWritesUseTheLatest) {
  TraceBuilder tb(1);
  tb.write(0, file_, 0, kib(64));  // slot 0
  tb.end_slot(0);
  tb.write(0, file_, 0, kib(64));  // slot 1
  tb.end_slot(0);
  tb.compute(0, 10);               // slot 2
  tb.end_slot(0);
  tb.read(0, file_, 0, kib(64));   // slot 3
  tb.end_slot(0);
  CompiledProgram cp = tb.build();
  analyze_slacks(cp, striping_);
  ASSERT_EQ(cp.reads.size(), 1u);
  EXPECT_EQ(cp.reads[0].begin, 2);
  EXPECT_EQ(cp.reads[0].writer_slot, 1);
}

}  // namespace
}  // namespace dasched
