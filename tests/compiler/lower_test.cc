#include "compiler/lower.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <stdexcept>
#include <string>
#include <utility>

#include "compiler/loop_program.h"
#include "storage/striping.h"
#include "workload/app.h"

namespace dasched {
namespace {

using AE = AffineExpr;

TEST(Lower, SimpleSlotLoopProducesOneSlotPerIteration) {
  LoopProgram prog;
  prog.body.push_back(make_loop("i", 0, AE(9),
                                {make_read(0, AE::var("i") * kib(64).count(), kib(64).count()),
                                 make_compute(AE(1'000))}));
  const CompiledProgram cp = lower(prog, 1);
  ASSERT_EQ(cp.num_processes(), 1);
  EXPECT_EQ(cp.num_slots, 10);
  const ProcessPlan& plan = cp.process(0);
  for (Slot s = 0; s < plan.num_slots(); ++s) {
    EXPECT_EQ(plan.ops(s).size(), 1u);
    EXPECT_EQ(plan.compute(s), 1'000);
  }
}

TEST(Lower, OffsetsEvaluatePerIteration) {
  LoopProgram prog;
  prog.body.push_back(make_loop("i", 0, AE(3),
                                {make_read(0, AE::var("i") * 100, 10)}));
  const CompiledProgram cp = lower(prog, 1);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(cp.process(0).ops(i)[0].offset,
              i * 100);
  }
}

TEST(Lower, ProcessIdIsBound) {
  LoopProgram prog;
  prog.body.push_back(make_loop("i", 0, AE(0),
                                {make_read(0, AE::var("p") * 1'000, 10)}));
  const CompiledProgram cp = lower(prog, 3);
  for (int p = 0; p < 3; ++p) {
    EXPECT_EQ(cp.process(p).ops(0)[0].offset,
              p * 1'000);
  }
}

TEST(Lower, ProcessCountIsBound) {
  LoopProgram prog;
  prog.body.push_back(make_loop("i", 0, AE(0),
                                {make_read(0, AE::var("P") * 10, 10)}));
  const CompiledProgram cp = lower(prog, 4);
  EXPECT_EQ(cp.process(0).ops(0)[0].offset, 40);
}

TEST(Lower, NestedNonSlotLoopAccumulatesIntoParentSlot) {
  // Outer slot loop, inner plain loop: the inner iterations' compute piles
  // into the outer iteration's slot.
  LoopProgram prog;
  prog.body.push_back(make_loop(
      "i", 0, AE(1),
      {make_loop("j", 0, AE(4), {make_compute(AE(10))}, /*slot_loop=*/false)},
      /*slot_loop=*/true));
  const CompiledProgram cp = lower(prog, 1);
  ASSERT_EQ(cp.num_slots, 2);
  EXPECT_EQ(cp.process(0).compute(0), 50);
}

TEST(Lower, TriangularBoundsDependOnOuterVariable) {
  LoopProgram prog;
  prog.body.push_back(make_loop(
      "i", 0, AE(3),
      {make_loop("j", 0, AE::var("i"), {make_compute(AE(1))},
                 /*slot_loop=*/true)},
      /*slot_loop=*/false));
  const CompiledProgram cp = lower(prog, 1);
  // 1 + 2 + 3 + 4 inner iterations.
  EXPECT_EQ(cp.num_slots, 10);
}

TEST(Lower, PerProcessBoundsYieldUnevenSlotCountsThatAlign) {
  // Process p runs p+1 iterations; alignment pads everyone to the max.
  LoopProgram prog;
  prog.body.push_back(make_loop("i", 0, AE::var("p"),
                                {make_compute(AE(5))}));
  const CompiledProgram cp = lower(prog, 3);
  EXPECT_EQ(cp.num_slots, 3);
  EXPECT_EQ(cp.process(0).num_slots(), 3);
  // Padding slots are empty.
  EXPECT_EQ(cp.process(0).compute(2), 0);
  EXPECT_EQ(cp.process(2).compute(2), 5);
}

TEST(Lower, EmptySlotIterationsAreDropped) {
  // Slot-loop iterations with neither compute nor I/O do not create slots.
  LoopProgram prog;
  prog.body.push_back(make_loop("i", 0, AE(4), {}));
  const CompiledProgram cp = lower(prog, 1);
  EXPECT_EQ(cp.num_slots, 0);
}

TEST(Lower, TrailingStatementsFormFinalSlot) {
  LoopProgram prog;
  prog.body.push_back(make_loop("i", 0, AE(1), {make_compute(AE(1))}));
  prog.body.push_back(make_write(0, 0, kib(64).count()));
  const CompiledProgram cp = lower(prog, 1);
  EXPECT_EQ(cp.num_slots, 3);
  EXPECT_TRUE(cp.process(0).ops(2)[0].is_write);
}

TEST(Lower, StepGreaterThanOne) {
  LoopProgram prog;
  prog.body.push_back(make_loop("i", 0, AE(9), {make_compute(AE(1))},
                                /*slot_loop=*/true, /*step=*/3));
  const CompiledProgram cp = lower(prog, 1);
  EXPECT_EQ(cp.num_slots, 4);  // i = 0, 3, 6, 9
}

TEST(Lower, MaxSlotsGuardThrows) {
  LoopProgram prog;
  prog.body.push_back(make_loop("i", 0, AE(10'000), {make_compute(AE(1))}));
  LowerOptions opts;
  opts.max_slots_per_process = 100;
  EXPECT_THROW((void)lower(prog, 1, opts), std::runtime_error);
}

TEST(Lower, ShadowingLoopRestoresTheOuterBinding) {
  // The inner loop reuses the name `i`; after it ends, the outer `i` is
  // visible again to the statements that follow it in the outer body.
  LoopProgram prog;
  prog.body.push_back(make_loop(
      "i", 0, AE(1),
      {make_loop("i", 10, AE(11), {make_read(0, AE::var("i"), 1)},
                 /*slot_loop=*/false),
       make_read(1, AE::var("i") * 100, 1)},
      /*slot_loop=*/true));
  const CompiledProgram cp = lower(prog, 1);
  ASSERT_EQ(cp.num_slots, 2);
  for (int outer = 0; outer < 2; ++outer) {
    const auto& ops = cp.process(0).ops(outer);
    ASSERT_EQ(ops.size(), 3u);
    EXPECT_EQ(ops[0].offset, 10);
    EXPECT_EQ(ops[1].offset, 11);
    EXPECT_EQ(ops[2].offset, outer * 100);
  }
}

TEST(Lower, LoopVariableIsUnboundAfterItsLoop) {
  // `j` is bound only inside its loop: naming it after the loop throws.
  LoopProgram prog;
  prog.body.push_back(make_loop("j", 0, AE(1), {make_compute(AE(1))}));
  prog.body.push_back(make_compute(AE::var("j")));
  EXPECT_THROW((void)lower(prog, 1), std::out_of_range);
}

TEST(Lower, ZeroTripLoopNeverEvaluatesItsBody) {
  // The body names `q`, which nothing binds; the loop runs zero times, so
  // the unbound name is never evaluated and lowering succeeds.
  LoopProgram prog;
  prog.body.push_back(make_loop(
      "i", 1, AE(0), {make_read(0, AE::var("q") * 8, AE::var("q"))}));
  prog.body.push_back(make_compute(AE(7)));
  const CompiledProgram cp = lower(prog, 2);
  ASSERT_EQ(cp.num_slots, 1);
  EXPECT_EQ(cp.process(1).compute(0), 7);
  EXPECT_TRUE(cp.process(1).ops(0).empty());
}

TEST(Lower, EvaluatedUnboundVariableThrowsNamingIt) {
  LoopProgram prog;
  prog.body.push_back(
      make_loop("i", 0, AE(3), {make_read(0, AE::var("i") + AE::var("zeta"), 1)}));
  try {
    (void)lower(prog, 1);
    FAIL() << "lowering an unbound variable did not throw";
  } catch (const std::out_of_range& e) {
    EXPECT_EQ(std::string(e.what()), "AffineExpr::eval: unbound variable 'zeta'");
  }
}

TEST(Lower, UnboundLoopBoundThrows) {
  LoopProgram prog;
  prog.body.push_back(make_loop("i", 0, AE::var("n"), {make_compute(AE(1))}));
  EXPECT_THROW((void)lower(prog, 1), std::out_of_range);
}

TEST(Lower, NonPositiveStepThrows) {
  LoopProgram prog;
  prog.body.push_back(make_loop("i", 0, AE(3), {make_compute(AE(1))},
                                /*slot_loop=*/true, /*step=*/0));
  EXPECT_THROW((void)lower(prog, 1), std::runtime_error);
}

// Expressions evaluated through lowering: each case puts the expression in
// a compute statement of a one-iteration loop binding the variables.
std::int64_t lowered_value(const AffineExpr& e,
                           std::initializer_list<std::pair<const char*, std::int64_t>> vars) {
  StmtList body = {make_compute(e)};
  for (auto it = std::rbegin(vars); it != std::rend(vars); ++it) {
    body = {make_loop(it->first, it->second, AE(it->second), std::move(body),
                      /*slot_loop=*/false)};
  }
  LoopProgram prog;
  prog.body = std::move(body);
  const CompiledProgram cp = lower(prog, 1);
  EXPECT_EQ(cp.num_slots, 1);
  return cp.num_slots == 1 ? cp.process(0).compute(0).count() : -1;
}

TEST(LowerAffine, ConstantEvaluation) {
  const AffineExpr e = 42;
  EXPECT_TRUE(e.is_constant());
  EXPECT_EQ(lowered_value(e, {}), 42);
}

TEST(LowerAffine, VariableEvaluation) {
  const AffineExpr e = AffineExpr::var("i");
  EXPECT_FALSE(e.is_constant());
  EXPECT_EQ(lowered_value(e, {{"i", 7}}), 7);
}

TEST(LowerAffine, UnboundVariableThrows) {
  const AffineExpr e = AffineExpr::var("i");
  LoopProgram prog;
  prog.body.push_back(make_compute(e));
  EXPECT_THROW((void)lower(prog, 1), std::out_of_range);
}

TEST(LowerAffine, LinearCombination) {
  const AffineExpr i = AffineExpr::var("i");
  const AffineExpr j = AffineExpr::var("j");
  const AffineExpr e = 3 * i + j * 2 + 5;
  EXPECT_EQ(lowered_value(e, {{"i", 10}, {"j", 1}}), 37);
}

TEST(LowerAffine, NegativeCoefficients) {
  const AffineExpr e = AffineExpr(10) - 3 * AffineExpr::var("k");
  EXPECT_EQ(lowered_value(e, {{"k", 2}}), 4);
}

TEST(LowerAffine, ProcessVariablesBindFirst) {
  // p and P are bound for every process; a loop over `p` shadows it and the
  // process id returns after the loop.
  LoopProgram prog;
  prog.body.push_back(make_loop("p", 5, AE(5), {make_compute(AE::var("p"))},
                                /*slot_loop=*/true));
  prog.body.push_back(make_compute(AE::var("p") * 1000 + AE::var("P")));
  const CompiledProgram cp = lower(prog, 3);
  ASSERT_EQ(cp.num_slots, 2);
  for (int p = 0; p < 3; ++p) {
    const ProcessPlan& plan = cp.process(p);
    EXPECT_EQ(plan.compute(0), 5);
    EXPECT_EQ(plan.compute(1), p * 1000 + 3);
  }
}

// FNV-1a over every lowered fact: per process, per slot, its compute and
// each op's file, offset, size and direction.
std::uint64_t program_digest(const CompiledProgram& cp) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  };
  mix(static_cast<std::uint64_t>(cp.num_processes()));
  for (const ProcessPlan& proc : *cp.plan) {
    mix(static_cast<std::uint64_t>(proc.num_slots()));
    for (Slot s = 0; s < proc.num_slots(); ++s) {
      mix(static_cast<std::uint64_t>(proc.compute(s).count()));
      mix(proc.ops(s).size());
      for (const IoOp& op : proc.ops(s)) {
        mix(static_cast<std::uint64_t>(op.file));
        mix(static_cast<std::uint64_t>(op.offset.count()));
        mix(static_cast<std::uint64_t>(op.size.count()));
        mix(op.is_write ? 1U : 0U);
      }
    }
  }
  return h;
}

TEST(Lower, AppProgramsMatchPinnedDigests) {
  // Digests of the six applications lowered at 8 processes, scale 0.05,
  // captured from the name-keyed interpreter this lowering replaced.
  const std::pair<const char*, std::uint64_t> pinned[] = {
      {"hf", 0xe1226dbb0913ebddULL},        {"sar", 0x767e3413770b151dULL},
      {"astro", 0x6fef634e4f2e80adULL},     {"apsi", 0x10e03bbcff1081edULL},
      {"madbench2", 0x6d5bb896d79666feULL}, {"wupwise", 0x0b81c37106f434ddULL},
  };
  WorkloadScale scale;
  scale.num_processes = 8;
  scale.factor = 0.05;
  for (const auto& [name, digest] : pinned) {
    StripingMap striping(8, kib(64));
    const CompiledProgram cp = app_by_name(name).build(striping, scale);
    EXPECT_EQ(program_digest(cp), digest) << name;
  }
}

TEST(Coarsen, MergesGroupsOfDSlots) {
  LoopProgram prog;
  prog.body.push_back(make_loop("i", 0, AE(9),
                                {make_read(0, AE::var("i") * 10, 10),
                                 make_compute(AE(100))}));
  LowerOptions opts;
  opts.granularity = 4;
  const CompiledProgram cp = lower(prog, 1, opts);
  ASSERT_EQ(cp.num_slots, 3);  // ceil(10 / 4)
  EXPECT_EQ(cp.process(0).ops(0).size(), 4u);
  EXPECT_EQ(cp.process(0).compute(0), 400);
  EXPECT_EQ(cp.process(0).ops(2).size(), 2u);
}

TEST(Coarsen, GranularityOneIsIdentity) {
  LoopProgram prog;
  prog.body.push_back(make_loop("i", 0, AE(4), {make_compute(AE(1))}));
  LowerOptions opts;
  opts.granularity = 1;
  EXPECT_EQ(lower(prog, 1, opts).num_slots, lower(prog, 1).num_slots);
  EXPECT_EQ(lower(prog, 1, opts).num_slots, 5);
}

TEST(Coarsen, PaddingAfterCoarseningMatchesPaddingBefore) {
  // Process 0 runs 10 slots and process 1 runs 3: coarsened by 4, both span
  // ceil(10 / 4) slots, and process 1's tail is empty padding.
  LoopProgram prog;
  prog.body.push_back(make_loop("i", 0, AE(9) - AE::var("p") * 7,
                                {make_read(0, AE::var("i") * 10, 10)}));
  LowerOptions opts;
  opts.granularity = 4;
  const CompiledProgram cp = lower(prog, 2, opts);
  ASSERT_EQ(cp.num_slots, 3);
  EXPECT_EQ(cp.process(1).ops(0).size(), 3u);
  EXPECT_TRUE(cp.process(1).ops(1).empty());
  EXPECT_TRUE(cp.process(1).ops(2).empty());
}

TEST(Lower, ReadsAreNumberedBySlotThenProcessThenOp) {
  LoopProgram prog;
  prog.body.push_back(make_loop("i", 0, AE(1),
                                {make_read(0, AE::var("i") * 10, 10),
                                 make_write(1, 0, 10),
                                 make_read(0, AE::var("i") * 10 + 5, 5)}));
  const CompiledProgram cp = lower(prog, 2);
  ASSERT_EQ(cp.num_reads, 8);
  int expected = 0;
  for (std::size_t t = 0; t < 2; ++t) {
    for (int p = 0; p < 2; ++p) {
      const auto& ops = cp.process(p).ops(t);
      EXPECT_EQ(ops[0].access_id, expected++);
      EXPECT_EQ(ops[1].access_id, -1);  // a write carries no id
      EXPECT_EQ(ops[2].access_id, expected++);
    }
  }
}

/// Op count and read/write bytes over a program's slot plans.
struct Totals {
  std::int64_t ops = 0;
  Bytes read_bytes = 0;
  Bytes write_bytes = 0;
};

Totals totals(const CompiledProgram& cp) {
  Totals t;
  for (const ProcessPlan& proc : *cp.plan) {
    for (Slot s = 0; s < proc.num_slots(); ++s) {
      for (const IoOp& op : proc.ops(s)) {
        ++t.ops;
        (op.is_write ? t.write_bytes : t.read_bytes) += op.size;
      }
    }
  }
  return t;
}

TEST(Lower, TotalsHelpers) {
  LoopProgram prog;
  prog.body.push_back(make_loop("i", 0, AE(4),
                                {make_read(0, 0, kib(64).count()),
                                 make_write(1, 0, kib(32).count())}));
  const CompiledProgram cp = lower(prog, 2);
  const Totals t = totals(cp);
  EXPECT_EQ(t.ops, 20);
  EXPECT_EQ(cp.num_reads, 10);
  EXPECT_EQ(t.read_bytes, 2 * 5 * kib(64).count());
  EXPECT_EQ(t.write_bytes, 2 * 5 * kib(32).count());
}

}  // namespace
}  // namespace dasched
