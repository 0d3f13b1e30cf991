#include "compiler/compile.h"

#include <gtest/gtest.h>

#include "compiler/trace_builder.h"

namespace dasched {
namespace {

using AE = AffineExpr;

class CompileTest : public ::testing::Test {
 protected:
  CompileTest() : striping_(4, kib(64).count()) {
    file_ = striping_.create_file("f", mib(64).count());
  }

  /// Two processes, each: 20 iterations x (read 64K at a process-private
  /// offset + compute-only pad slots, so the scheduler has room to hoist).
  LoopProgram simple_program() {
    LoopProgram prog;
    prog.body.push_back(make_loop(
        "i", 0, AE(19),
        {
            make_loop("_io", 0, 0,
                      {make_read(file_,
                                 AE::var("p") * mib(8).count() + AE::var("i") * kib(64).count(),
                                 kib(64).count()),
                       make_compute(AE(1'000))},
                      /*slot_loop=*/true),
            make_loop("_pad", 0, 1, {make_compute(AE(500))},
                      /*slot_loop=*/true),
        },
        /*slot_loop=*/false));
    return prog;
  }

  StripingMap striping_;
  FileId file_;
};

TEST_F(CompileTest, ProducesOneTableEntryPerRead) {
  const Compiled c = compile_trace(lower(simple_program(), 2), striping_);
  EXPECT_EQ(c.program.reads.size(), 40u);
  EXPECT_EQ(c.table.total_entries(), 40);
  EXPECT_EQ(c.scheduled.size(), 40u);
  EXPECT_EQ(c.sched_stats.scheduled, 40);
}

TEST_F(CompileTest, DisabledSchedulingKeepsNoSchedule) {
  // Scheme off: no slack is analyzed, no read is placed and no table is
  // built; the compile is the plan, and the stats still count every read
  // as scheduled.
  CompileOptions opts;
  opts.enable_scheduling = false;
  const Compiled c = compile_trace(lower(simple_program(), 2), striping_, opts);
  EXPECT_EQ(c.program.num_reads, 40);
  EXPECT_TRUE(c.program.reads.empty());
  EXPECT_TRUE(c.scheduled.empty());
  EXPECT_EQ(c.table.total_entries(), 0);
  EXPECT_EQ(c.table.num_processes(), 0);
  EXPECT_EQ(c.sched_stats.scheduled, c.program.num_reads);
  EXPECT_EQ(c.sched_stats.forced, 0);
  EXPECT_EQ(c.sched_stats.mean_advance_slots, 0.0);
}

TEST_F(CompileTest, ScheduledRowsAreIndexedByAccessId) {
  const Compiled c = compile_trace(lower(simple_program(), 2), striping_);
  ASSERT_EQ(c.scheduled.size(), c.program.reads.size());
  for (std::size_t i = 0; i < c.scheduled.size(); ++i) {
    EXPECT_EQ(c.scheduled[i].id, static_cast<int>(i));
  }
}

TEST_F(CompileTest, EnabledSchedulingHoistsSomething) {
  const Compiled c = compile_trace(lower(simple_program(), 2), striping_);
  EXPECT_GT(c.sched_stats.mean_advance_slots, 0.0);
}

TEST_F(CompileTest, ScheduledSlotsStayInsideSlacks) {
  const Compiled c = compile_trace(lower(simple_program(), 2), striping_);
  for (std::size_t i = 0; i < c.scheduled.size(); ++i) {
    const ScheduledAccess& s = c.scheduled[i];
    const AccessRecord& rec = c.program.reads[i];
    if (s.forced) continue;
    EXPECT_GE(s.slot, rec.begin);
    EXPECT_LE(s.slot + rec.length - 1, rec.end);
  }
}

TEST_F(CompileTest, TraceFrontEndMatchesPipeline) {
  TraceBuilder tb(1);
  tb.write(0, file_, 0, kib(64).count());
  tb.end_slot(0);
  for (int i = 0; i < 5; ++i) {
    tb.compute(0, 100);
    tb.end_slot(0);
  }
  tb.read(0, file_, 0, kib(64).count());
  tb.end_slot(0);
  const Compiled c = compile_trace(tb.build(), striping_);
  ASSERT_EQ(c.program.reads.size(), 1u);
  EXPECT_EQ(c.program.reads[0].begin, 1);
  EXPECT_EQ(c.program.reads[0].end, 6);
  ASSERT_EQ(c.table.entries(0).size(), 1u);
}

TEST_F(CompileTest, SlackBoundFlowsThrough) {
  CompileOptions opts;
  opts.slack.max_slack = 3;
  const Compiled c = compile_trace(lower(simple_program(), 2), striping_, opts);
  for (const AccessRecord& r : c.program.reads) {
    EXPECT_LE(r.slack_length(), 3);
  }
}

TEST_F(CompileTest, EmptyProgramCompilesCleanly) {
  LoopProgram prog;
  const Compiled c = compile_trace(lower(prog, 2), striping_);
  EXPECT_EQ(c.program.reads.size(), 0u);
  EXPECT_EQ(c.table.total_entries(), 0);
}

TEST_F(CompileTest, CompilesOfOneProgramShareItsPlan) {
  const CompiledProgram program = lower(simple_program(), 2);
  CompileOptions off;
  off.enable_scheduling = false;
  const Compiled a = compile_trace(program, striping_);
  const Compiled b = compile_trace(program, striping_, off);
  EXPECT_EQ(a.program.plan, program.plan);
  EXPECT_EQ(b.program.plan, program.plan);
  EXPECT_TRUE(program.reads.empty());  // the records are each compile's own
  EXPECT_EQ(a.program.reads.size(), static_cast<std::size_t>(program.num_reads));
  EXPECT_TRUE(b.program.reads.empty());  // a scheme-off compile keeps none
}

TEST_F(CompileTest, WriteOnlyProgramHasNoTableEntries) {
  LoopProgram prog;
  prog.body.push_back(make_loop(
      "i", 0, AE(9), {make_write(file_, AE::var("i") * kib(64).count(), kib(64).count())}));
  const Compiled c = compile_trace(lower(prog, 1), striping_);
  EXPECT_EQ(c.program.reads.size(), 0u);
}

}  // namespace
}  // namespace dasched
