// Bit-identity regression pins: exact hexfloat values of two test-scale
// cells, compared via bit_cast so even a one-ulp drift fails.
//
// The strong unit types (util/units.h) promise that every operator inlines
// to exactly the scalar expression the pre-wrapper code wrote — same
// representation, same floating-point operation order.  These pins are the
// executable form of that promise: any "harmless" reassociation in the
// energy ledger, the cache-hit accounting, or the scheduler's advance
// bookkeeping shows up as a failed bit comparison, not a silent drift
// inside some tolerance.
//
// The values were captured with tools/hexfloat_probe-style runs at seed 1.
// They are deterministic: the simulation does pure +,-,*,/ arithmetic
// under SSE2 doubles with no -ffast-math, so any conforming x86-64 build
// reproduces them exactly.  If a deliberate algorithm change moves them,
// re-capture with the printf("%a") recipe below and update the constants
// in the same commit that explains the change.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "driver/experiment.h"
#include "driver/multi_experiment.h"

namespace dasched {
namespace {

ExperimentResult run_cell(const char* app, bool scheme,
                          Bytes buffer = RuntimeConfig{}.buffer_capacity) {
  ExperimentConfig cfg;
  cfg.app = app;
  cfg.scale.num_processes = 4;
  cfg.scale.factor = 0.1;
  cfg.policy = PolicyKind::kHistory;
  cfg.use_scheme = scheme;
  cfg.runtime.buffer_capacity = buffer;
  return run_experiment(cfg);
}

void expect_bits(double actual, double golden, const char* what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(actual),
            std::bit_cast<std::uint64_t>(golden))
      << what << ": got " << std::hexfloat << actual << ", pinned "
      << golden << std::defaultfloat;
}

TEST(BitIdentity, SarHistoryWithScheme) {
  const ExperimentResult r = run_cell("sar", true);
  EXPECT_EQ(r.exec_time.count(), 433'143'601);
  expect_bits(r.energy_j.value(), 0x1.7915d5e8b25b8p+14, "energy_j");
  expect_bits(r.storage.cache_hit_rate, 0x1.0a3d70a3d70a4p-1, "hit_rate");
  expect_bits(r.sched.mean_advance_slots, 0x1.2cc799999999ap+8,
              "mean_advance");
}

TEST(BitIdentity, SarHistoryWithSchemeFullBuffer) {
  // A 1 MiB buffer fills, so scheduler threads pause for space and resume
  // on releases (the runtime pause path, DESIGN.md §20).
  const ExperimentResult r = run_cell("sar", true, mib(1));
  EXPECT_GT(r.runtime.buffer.full_rejections, 0);
  EXPECT_EQ(r.exec_time.count(), 434'814'107);
  EXPECT_EQ(r.events, 19'619);
  EXPECT_EQ(r.runtime.prefetches, 122);
  EXPECT_EQ(r.runtime.buffer_hits, 122);
  EXPECT_EQ(r.runtime.direct_reads, 1'158);
  expect_bits(r.energy_j.value(), 0x1.7c9268322fdbcp+14, "energy_j");
  expect_bits(r.storage.cache_hit_rate, 0x1.2a3d70a3d70a4p-1, "hit_rate");
  expect_bits(r.sched.mean_advance_slots, 0x1.2cc799999999ap+8,
              "mean_advance");
}

TEST(BitIdentity, WideSarStarvedBuffer) {
  // 64 scheduler threads share a 1 MiB buffer: most of them sit paused for
  // space, so every release walks a long FIFO and must resume exactly the
  // threads that can proceed, in pause order (DESIGN.md §20).
  ExperimentConfig cfg;
  cfg.app = "sar";
  cfg.scale.num_processes = 64;
  cfg.scale.factor = 0.05;
  cfg.storage.num_io_nodes = 16;
  cfg.policy = PolicyKind::kHistory;
  cfg.use_scheme = true;
  cfg.runtime.buffer_capacity = mib(1);
  const ExperimentResult r = run_experiment(cfg);
  EXPECT_GT(r.runtime.buffer.full_rejections, 0);
  EXPECT_EQ(r.exec_time.count(), 441'281'657);
  EXPECT_EQ(r.events, 322'892);
  EXPECT_EQ(r.runtime.prefetches, 211);
  EXPECT_EQ(r.runtime.buffer_hits, 146);
  EXPECT_EQ(r.runtime.direct_reads, 20'269);
  expect_bits(r.energy_j.value(), 0x1.e5eb540fbfd95p+15, "energy_j");
  expect_bits(r.storage.cache_hit_rate, 0x1.32a3d70a3d70ap-1, "hit_rate");
  expect_bits(r.sched.mean_advance_slots, 0x1.2ee819999999ap+5,
              "mean_advance");
}

TEST(BitIdentity, ThetaFallbackHeavyCell) {
  // θ = 1 on 16 I/O nodes for 64 processes: most accesses find no slot
  // that keeps every node at one access, so placements come from the E_t
  // fallback (Sec. IV-B3) and the scheduler's θ rows decide the schedule.
  ExperimentConfig cfg;
  cfg.app = "sar";
  cfg.scale.num_processes = 64;
  cfg.scale.factor = 0.05;
  cfg.storage.num_io_nodes = 16;
  cfg.policy = PolicyKind::kHistory;
  cfg.use_scheme = true;
  cfg.compile.sched.theta = 1;
  const ExperimentResult r = run_experiment(cfg);
  EXPECT_EQ(r.sched.theta_fallbacks, 10'250);
  EXPECT_EQ(r.sched.forced, 0);
  EXPECT_EQ(r.exec_time.count(), 438'685'288);
  expect_bits(r.energy_j.value(), 0x1.47e429d256aa8p+16, "energy_j");
  expect_bits(r.sched.mean_advance_slots, 0x1.340d8p+5, "mean_advance");
}

TEST(BitIdentity, Madbench2HistoryWithoutScheme) {
  const ExperimentResult r = run_cell("madbench2", false);
  EXPECT_EQ(r.exec_time.count(), 215'468'768);
  expect_bits(r.energy_j.value(), 0x1.b3f737f884b51p+13, "energy_j");
  expect_bits(r.storage.cache_hit_rate, 0x1p+0, "hit_rate");
  expect_bits(r.sched.mean_advance_slots, 0x0p+0, "mean_advance");
}

// sar and madbench2 co-scheduled on one storage system (Default Scheme, no
// power policy), scheme off and on.
MultiExperimentResult run_co_scheduled(bool scheme) {
  MultiExperimentConfig cfg;
  cfg.apps = {"sar", "madbench2"};
  cfg.base.scale.num_processes = 4;
  cfg.base.scale.factor = 0.1;
  cfg.base.use_scheme = scheme;
  return run_multi_experiment(cfg);
}

TEST(BitIdentity, CoScheduledSarMadbench) {
  const MultiExperimentResult off = run_co_scheduled(false);
  EXPECT_EQ(off.makespan.count(), 433'771'231);
  ASSERT_EQ(off.exec_times.size(), 2u);
  EXPECT_EQ(off.exec_times[0].count(), 433'771'231);
  EXPECT_EQ(off.exec_times[1].count(), 215'468'768);
  expect_bits(off.energy_j.value(), 0x1.d39c9b82dd952p+15, "energy_j (off)");

  const MultiExperimentResult on = run_co_scheduled(true);
  EXPECT_EQ(on.makespan.count(), 433'122'805);
  ASSERT_EQ(on.exec_times.size(), 2u);
  EXPECT_EQ(on.exec_times[0].count(), 433'122'805);
  EXPECT_EQ(on.exec_times[1].count(), 215'347'568);
  expect_bits(on.energy_j.value(), 0x1.d3012db0ff11bp+15, "energy_j (on)");
}

}  // namespace
}  // namespace dasched
