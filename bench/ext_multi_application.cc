// Extension (the paper's Sec. VII future work): multi-application scenarios.
//
// Two applications share the storage system.  Each one's scheduling table is
// computed in isolation, so their node-clustering decisions interfere at the
// disks; the table quantifies how much of the scheme's single-application
// benefit survives co-scheduling.
#include "bench/bench_common.h"
#include "driver/multi_experiment.h"

using namespace dasched;
using namespace dasched::bench;

namespace {

MultiExperimentResult run_multi(const std::vector<std::string>& apps,
                                bool scheme) {
  MultiExperimentConfig cfg;
  cfg.apps = apps;
  cfg.base.scale = bench_scale();
  cfg.base.scale.num_processes = std::max(4, cfg.base.scale.num_processes / 2);
  cfg.base.policy = PolicyKind::kHistory;
  cfg.base.use_scheme = scheme;
  std::fprintf(stderr, "[bench] multi-app run (scheme=%d)...\n", scheme);
  return run_multi_experiment(cfg);
}

}  // namespace

int main() {
  print_header("Extension — multi-application co-scheduling",
               "Sec. VII future work: idle periods in multi-app scenarios");

  const std::vector<std::string> pair{"sar", "madbench2"};

  TextTable table({"configuration", "makespan (min)", "energy (kJ)",
                   "scheme benefit"});
  const MultiExperimentResult solo_a = run_multi({pair[0]}, false);
  const MultiExperimentResult solo_b = run_multi({pair[1]}, false);
  const MultiExperimentResult solo_a_s = run_multi({pair[0]}, true);
  const MultiExperimentResult solo_b_s = run_multi({pair[1]}, true);
  const double solo_energy = solo_a.energy_j.value() + solo_b.energy_j.value();
  const double solo_energy_s = solo_a_s.energy_j.value() + solo_b_s.energy_j.value();
  table.add_row({"back-to-back, history",
                 TextTable::fmt(to_minutes(solo_a.makespan + solo_b.makespan), 2),
                 TextTable::fmt(solo_energy / 1'000.0, 1),
                 TextTable::pct((solo_energy - solo_energy_s) / solo_energy)});

  const MultiExperimentResult both = run_multi(pair, false);
  const MultiExperimentResult both_s = run_multi(pair, true);
  table.add_row({"co-scheduled, history",
                 TextTable::fmt(to_minutes(both.makespan), 2),
                 TextTable::fmt(both.energy_j.value() / 1'000.0, 1),
                 TextTable::pct((both.energy_j.value() - both_s.energy_j.value()) / both.energy_j.value())});
  table.print();
  std::printf(
      "\nPer-application schedules are computed in isolation; the drop in\n"
      "the co-scheduled scheme benefit is the open problem the paper's\n"
      "future-work section names.\n");
  return 0;
}
