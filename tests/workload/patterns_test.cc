#include "workload/patterns.h"

#include <gtest/gtest.h>

#include "compiler/compile.h"
#include "compiler/lower.h"
#include "storage/striping.h"

namespace dasched {
namespace {

using namespace dasched::patterns;

class PatternsTest : public ::testing::Test {
 protected:
  PatternsTest() : striping_(8, kib(64)) {
    file_ = striping_.create_file("f", mib(256));
  }

  static CompiledProgram run(Stmt pattern, int procs) {
    LoopProgram prog;
    prog.body.push_back(std::move(pattern));
    return lower(prog, procs);
  }

  StripingMap striping_;
  FileId file_;
};

TEST_F(PatternsTest, SequentialScanEmitsContiguousPerProcessReads) {
  const CompiledProgram cp = run(sequential_scan(file_, 8, kib(64)), 2);
  // Per process: 8 I/O slots + pads.
  Bytes expect0 = 0;
  Bytes expect1 = 8 * kib(64);
  for (const SlotPlan& slot : cp.processes[0].slots) {
    for (const IoOp& op : slot.ops) {
      EXPECT_FALSE(op.is_write);
      EXPECT_EQ(op.offset, expect0);
      expect0 += kib(64);
    }
  }
  for (const SlotPlan& slot : cp.processes[1].slots) {
    for (const IoOp& op : slot.ops) {
      EXPECT_EQ(op.offset, expect1);
      expect1 += kib(64);
    }
  }
}

TEST_F(PatternsTest, StepShapeControlsPadSlots) {
  StepShape shape;
  shape.pads = 3;
  shape.pad_compute = usec(1'000);
  const CompiledProgram cp = run(sequential_scan(file_, 4, kib(64), shape), 1);
  EXPECT_EQ(cp.num_slots, 4 * (1 + 3));
}

TEST_F(PatternsTest, ZeroPadsCollapseToIoSlotsOnly) {
  StepShape shape;
  shape.pads = 0;
  const CompiledProgram cp = run(sequential_scan(file_, 4, kib(64), shape), 1);
  EXPECT_EQ(cp.num_slots, 4);
}

TEST_F(PatternsTest, InterleavedScanPinsNodeSet) {
  // stride = 8 stripes -> every read of a process lands on the same node.
  const Bytes stride = 8 * kib(64);
  const CompiledProgram cp =
      run(interleaved_scan(file_, 10, kib(64), stride), 2);
  for (int p = 0; p < 2; ++p) {
    int first_node = -1;
    for (const SlotPlan& slot : cp.processes[static_cast<std::size_t>(p)].slots) {
      for (const IoOp& op : slot.ops) {
        const auto nodes = striping_.signature(file_, op.offset, op.size).nodes();
        ASSERT_EQ(nodes.size(), 1u);
        if (first_node < 0) first_node = nodes[0];
        EXPECT_EQ(nodes[0], first_node);
      }
    }
  }
}

TEST_F(PatternsTest, HotBlockRereadAlwaysSameOffset) {
  const CompiledProgram cp = run(hot_block_reread(file_, 6, kib(64)), 3);
  for (int p = 0; p < 3; ++p) {
    for (const SlotPlan& slot : cp.processes[static_cast<std::size_t>(p)].slots) {
      for (const IoOp& op : slot.ops) {
        EXPECT_EQ(op.offset, (p) * kib(64));
      }
    }
  }
}

TEST_F(PatternsTest, UpdateSweepPairsReadAndWrite) {
  const CompiledProgram cp = run(update_sweep(file_, 5, kib(64)), 1);
  int reads = 0;
  int writes = 0;
  for (const SlotPlan& slot : cp.processes[0].slots) {
    for (const IoOp& op : slot.ops) {
      (op.is_write ? writes : reads) += 1;
    }
  }
  EXPECT_EQ(reads, 5);
  EXPECT_EQ(writes, 5);
}

TEST_F(PatternsTest, RepeatedUpdateSweepGivesOneSweepSlacks) {
  LoopProgram prog;
  prog.body.push_back(make_loop("t", 0, AffineExpr(2),
                                {update_sweep(file_, 6, kib(64))},
                                /*slot_loop=*/false));
  const Compiled c = compile_trace(lower(prog, 1), striping_);
  // Reads of sweeps 2 and 3 see the writes of the previous sweep.
  int bounded = 0;
  for (const AccessRecord& rec : c.program.reads) {
    if (rec.writer_process >= 0) {
      ++bounded;
      EXPECT_GT(rec.slack_length(), 1);
    }
  }
  EXPECT_EQ(bounded, 12);
}

TEST_F(PatternsTest, ProducerStreamIsWriteOnly) {
  const CompiledProgram cp = run(producer_stream(file_, 7, kib(64)), 2);
  for (const auto& proc : cp.processes) {
    for (const SlotPlan& slot : proc.slots) {
      for (const IoOp& op : slot.ops) EXPECT_TRUE(op.is_write);
    }
  }
  EXPECT_EQ(cp.total_bytes(true), 2 * 7 * kib(64));
}

TEST_F(PatternsTest, ComputePhaseIsASingleIoFreeSlot) {
  const CompiledProgram cp = run(compute_phase(sec(30.0)), 1);
  ASSERT_EQ(cp.num_slots, 1);
  EXPECT_TRUE(cp.processes[0].slots[0].ops.empty());
  EXPECT_EQ(cp.processes[0].slots[0].compute, sec(30.0));
}

TEST_F(PatternsTest, ComposedWorkloadCompilesAndSchedules) {
  LoopProgram prog;
  prog.body.push_back(sequential_scan(file_, 20, kib(64)));
  prog.body.push_back(compute_phase(sec(10.0)));
  prog.body.push_back(sequential_scan(file_, 20, kib(64), {}, "j"));
  const Compiled c = compile_trace(lower(prog, 4), striping_);
  EXPECT_EQ(c.program.reads.size(), 4u * 40u);
  EXPECT_GT(c.sched_stats.mean_advance_slots, 0.0);
}

}  // namespace
}  // namespace dasched
