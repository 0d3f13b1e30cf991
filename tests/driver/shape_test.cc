// Result-shape regression tests: cheap, scaled-down versions of the paper's
// headline comparisons.  These guard the *direction* of every claim the
// benches reproduce — if a refactor flips one of these, the reproduction is
// broken even if all unit tests still pass.
//
// The runs are declared as one experiment grid (src/engine) and executed on
// the parallel grid runner once for the whole suite, exactly like the bench
// binaries do — so the declarations here double as an integration test of
// the engine against real workloads.
#include <gtest/gtest.h>

#include <algorithm>

#include "engine/grid_runner.h"
#include "util/histogram.h"

namespace dasched {
namespace {

/// Fraction of idle periods at or below 500 ms: the CDF at the paper's
/// 500 ms bucket edge (Fig. 12).
double cdf_at_500ms(const DurationHistogram& h) {
  const std::vector<double>& edges = h.edges_msec();
  const auto edge = std::find(edges.begin(), edges.end(), 500.0);
  EXPECT_NE(edge, edges.end());
  return h.cdf()[static_cast<std::size_t>(edge - edges.begin())];
}

class ShapeTest : public ::testing::Test {
 protected:
  static ExperimentGrid grid(std::vector<std::string> apps,
                             std::vector<PolicyKind> policies,
                             std::vector<bool> schemes) {
    ExperimentGrid g;
    g.base.scale.num_processes = 8;
    g.base.scale.factor = 0.3;
    g.apps = std::move(apps);
    g.policies = std::move(policies);
    g.schemes = std::move(schemes);
    // The historical suite ran everything at seed 1; directions must not
    // depend on the seed, but keep the numbers comparable across PRs.
    g.derive_seeds = false;
    return g;
  }

  /// All cells any test below reads, executed once on the worker pool.
  static const GridResultSet& results() {
    static const GridResultSet cached = [] {
      GridResultSet all = run_grid(
          grid({"madbench2"},
               {PolicyKind::kNone, PolicyKind::kSimple, PolicyKind::kPrediction,
                PolicyKind::kHistory},
               {false, true}));
      all.append(run_grid(grid({"sar"}, {PolicyKind::kNone}, {false, true})));
      return all;
    }();
    return cached;
  }

  static const ExperimentResult& cell(const std::string& app,
                                      PolicyKind policy, bool scheme) {
    return results().find(app, policy, scheme);
  }
};

TEST_F(ShapeTest, HistorySavesEnergyWithoutScheme) {
  // Fig. 12(c): the history-based strategy is the strongest baseline.
  const auto& base = cell("madbench2", PolicyKind::kNone, false);
  const auto& hist = cell("madbench2", PolicyKind::kHistory, false);
  EXPECT_LT(normalized_energy(hist, base), 0.97);
}

TEST_F(ShapeTest, MultiSpeedBeatsSpinDownOnShortIdleWorkload) {
  // Sec. II: multi-speed disks exploit the short idle periods spin-down
  // disks cannot.
  const auto& base = cell("madbench2", PolicyKind::kNone, false);
  const auto& hist = cell("madbench2", PolicyKind::kHistory, false);
  const auto& simple = cell("madbench2", PolicyKind::kSimple, false);
  EXPECT_LT(normalized_energy(hist, base), normalized_energy(simple, base));
}

TEST_F(ShapeTest, SchemeImprovesHistoryEnergy) {
  // Fig. 12(d) vs 12(c) on the phased workload.
  const auto& without = cell("madbench2", PolicyKind::kHistory, false);
  const auto& with = cell("madbench2", PolicyKind::kHistory, true);
  EXPECT_LT(with.energy_j.value(), without.energy_j.value() * 1.02);
}

TEST_F(ShapeTest, SchemeReducesSimpleDegradation) {
  // Fig. 13(b) vs 13(a): buffer hits absorb spin-up stalls.
  const auto& base = cell("madbench2", PolicyKind::kNone, false);
  const auto& without = cell("madbench2", PolicyKind::kSimple, false);
  const auto& with = cell("madbench2", PolicyKind::kSimple, true);
  EXPECT_LT(degradation(with, base), degradation(without, base) + 0.01);
}

TEST_F(ShapeTest, SimpleDegradesMostAmongPolicies) {
  // Fig. 13(a): the simple strategy has the worst performance penalty.
  const auto& base = cell("madbench2", PolicyKind::kNone, false);
  const double simple =
      degradation(cell("madbench2", PolicyKind::kSimple, false), base);
  const double history =
      degradation(cell("madbench2", PolicyKind::kHistory, false), base);
  const double prediction =
      degradation(cell("madbench2", PolicyKind::kPrediction, false), base);
  EXPECT_GE(simple, history - 0.01);
  EXPECT_GE(simple, prediction - 0.01);
}

TEST_F(ShapeTest, SchemeLengthensIdlePeriods) {
  // Fig. 12(b) vs 12(a): with the scheme, less CDF mass sits below 500 ms.
  const auto& without = cell("sar", PolicyKind::kNone, false);
  const auto& with = cell("sar", PolicyKind::kNone, true);
  const double f_without = cdf_at_500ms(without.storage.idle_periods);
  const double f_with = cdf_at_500ms(with.storage.idle_periods);
  EXPECT_LE(f_with, f_without + 0.02);
}

TEST_F(ShapeTest, SchemePrefetchesMeaningfulFraction) {
  const auto& with = cell("sar", PolicyKind::kNone, true);
  const auto total = with.runtime.buffer_hits + with.runtime.in_flight_hits +
                     with.runtime.direct_reads;
  EXPECT_GT(static_cast<double>(with.runtime.buffer_hits),
            0.1 * static_cast<double>(total));
}

}  // namespace
}  // namespace dasched
