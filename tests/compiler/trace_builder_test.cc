#include "compiler/trace_builder.h"

#include <gtest/gtest.h>

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
  EXPECT_EQ(cp.slots(0)[0].ops.size(), 1u);
  EXPECT_EQ(cp.slots(1)[0].compute, 500);
}

TEST(TraceBuilder, EndIterationClosesAllProcesses) {
  TraceBuilder tb(3);
  for (int p = 0; p < 3; ++p) tb.compute(p, 10);
  tb.end_iteration();
  const CompiledProgram cp = tb.build();
  EXPECT_EQ(cp.num_slots, 1);
  for (const auto& proc : *cp.plan) {
    EXPECT_EQ(proc.slots[0].compute, 10);
  }
}

TEST(TraceBuilder, OpenSlotsFlushedOnBuild) {
  TraceBuilder tb(1);
  tb.compute(0, 42);
  // No end_slot before build.
  const CompiledProgram cp = tb.build();
  ASSERT_EQ(cp.num_slots, 1);
  EXPECT_EQ(cp.slots(0)[0].compute, 42);
}

TEST(TraceBuilder, EmptyOpenSlotsNotFlushed) {
  TraceBuilder tb(2);
  tb.compute(0, 10);
  tb.end_slot(0);
  const CompiledProgram cp = tb.build();
  EXPECT_EQ(cp.num_slots, 1);
  // Process 1 has the aligned padding slot only.
  EXPECT_TRUE(cp.slots(1)[0].ops.empty());
  EXPECT_EQ(cp.slots(1)[0].compute, 0);
}

TEST(TraceBuilder, BuildAppliesCoarsening) {
  TraceBuilder tb(1);
  for (int i = 0; i < 6; ++i) {
    tb.compute(0, 10);
    tb.end_slot(0);
  }
  const CompiledProgram cp = tb.build(/*granularity=*/3);
  EXPECT_EQ(cp.num_slots, 2);
  EXPECT_EQ(cp.slots(0)[0].compute, 30);
}

TEST(TraceBuilder, MixedReadWriteSlot) {
  TraceBuilder tb(1);
  tb.read(0, 0, 0, kib(64));
  tb.write(0, 1, 0, kib(32));
  tb.end_slot(0);
  const CompiledProgram cp = tb.build();
  const auto& ops = cp.slots(0)[0].ops;
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_FALSE(ops[0].is_write);
  EXPECT_TRUE(ops[1].is_write);
  EXPECT_EQ(ops[1].file, 1);
}

}  // namespace
}  // namespace dasched
