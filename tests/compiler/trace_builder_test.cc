#include "compiler/trace_builder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace dasched {
namespace {

TEST(TraceBuilder, RecordsPerProcessSlots) {
  TraceBuilder tb(2);
  tb.read(0, 0, 0, kib(64));
  tb.end_slot(0);
  tb.compute(1, 500);
  tb.end_slot(1);
  tb.read(0, 0, kib(64), kib(64));
  tb.end_slot(0);
  const CompiledProgram cp = tb.build();
  EXPECT_EQ(cp.num_processes(), 2);
  EXPECT_EQ(cp.num_slots, 2);
  EXPECT_EQ(cp.process(0).ops(0).size(), 1u);
  EXPECT_EQ(cp.process(1).compute(0), 500);
}

TEST(TraceBuilder, EndIterationClosesAllProcesses) {
  TraceBuilder tb(3);
  for (int p = 0; p < 3; ++p) tb.compute(p, 10);
  tb.end_iteration();
  const CompiledProgram cp = tb.build();
  EXPECT_EQ(cp.num_slots, 1);
  for (const auto& proc : *cp.plan) {
    EXPECT_EQ(proc.compute(0), 10);
  }
}

TEST(TraceBuilder, OpenSlotsFlushedOnBuild) {
  TraceBuilder tb(1);
  tb.compute(0, 42);
  // No end_slot before build.
  const CompiledProgram cp = tb.build();
  ASSERT_EQ(cp.num_slots, 1);
  EXPECT_EQ(cp.process(0).compute(0), 42);
}

TEST(TraceBuilder, EmptyOpenSlotsNotFlushed) {
  TraceBuilder tb(2);
  tb.compute(0, 10);
  tb.end_slot(0);
  const CompiledProgram cp = tb.build();
  EXPECT_EQ(cp.num_slots, 1);
  // Process 1 has the aligned padding slot only.
  EXPECT_TRUE(cp.process(1).ops(0).empty());
  EXPECT_EQ(cp.process(1).compute(0), 0);
}

TEST(TraceBuilder, BuildAppliesCoarsening) {
  TraceBuilder tb(1);
  for (int i = 0; i < 6; ++i) {
    tb.compute(0, 10);
    tb.end_slot(0);
  }
  const CompiledProgram cp = tb.build(/*granularity=*/3);
  EXPECT_EQ(cp.num_slots, 2);
  EXPECT_EQ(cp.process(0).compute(0), 30);
}

TEST(TraceBuilder, CoarseningMergesTheFinePlan) {
  // Processes of 10, 13 and 16 slots with 0-3 ops each: the plan coarsened
  // by d is the fine plan with every group of d slots merged (compute
  // summed, ops concatenated in order), and its reads are numbered slot by
  // slot, then process, then op.
  const auto record = [] {
    TraceBuilder tb(3);
    for (int p = 0; p < 3; ++p) {
      for (int t = 0; t < 10 + 3 * p; ++t) {
        tb.compute(p, 10 * t + p);
        for (int k = 0; k < (t * 7 + p) % 4; ++k) {
          if ((t + k) % 3 == 0) {
            tb.write(p, 1, t * 100 + k, 8);
          } else {
            tb.read(p, 0, t * 100 + k, 8);
          }
        }
        tb.end_slot(p);
      }
    }
    return tb;
  };
  const CompiledProgram fine = record().build();
  ASSERT_EQ(fine.num_slots, 16);
  for (const int d : {2, 3, 4, 16}) {
    const CompiledProgram coarse = record().build(d);
    ASSERT_EQ(coarse.num_slots, (fine.num_slots + d - 1) / d) << d;
    EXPECT_EQ(coarse.num_reads, fine.num_reads) << d;
    int next_id = 0;
    for (Slot g = 0; g < coarse.num_slots; ++g) {
      for (int p = 0; p < 3; ++p) {
        SimTime compute = 0;
        std::vector<IoOp> merged;
        for (Slot s = g * d; s < std::min<Slot>(fine.num_slots, g * d + d); ++s) {
          compute += fine.process(p).compute(s);
          const auto ops = fine.process(p).ops(s);
          merged.insert(merged.end(), ops.begin(), ops.end());
        }
        EXPECT_EQ(coarse.process(p).compute(g), compute) << d;
        const auto ops = coarse.process(p).ops(g);
        ASSERT_EQ(ops.size(), merged.size()) << d << " " << g << " " << p;
        for (std::size_t i = 0; i < ops.size(); ++i) {
          EXPECT_EQ(ops[i].file, merged[i].file);
          EXPECT_EQ(ops[i].offset, merged[i].offset);
          EXPECT_EQ(ops[i].size, merged[i].size);
          EXPECT_EQ(ops[i].is_write, merged[i].is_write);
          EXPECT_EQ(ops[i].access_id, ops[i].is_write ? -1 : next_id++);
        }
      }
    }
    EXPECT_EQ(next_id, coarse.num_reads) << d;
  }
}

TEST(TraceBuilder, MixedReadWriteSlot) {
  TraceBuilder tb(1);
  tb.read(0, 0, 0, kib(64));
  tb.write(0, 1, 0, kib(32));
  tb.end_slot(0);
  const CompiledProgram cp = tb.build();
  const auto& ops = cp.process(0).ops(0);
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_FALSE(ops[0].is_write);
  EXPECT_TRUE(ops[1].is_write);
  EXPECT_EQ(ops[1].file, 1);
}

}  // namespace
}  // namespace dasched
