// Bit-identity probe: runs a fixed grid of app × policy × scheme cells and
// prints every floating-point result as hexfloat (%a) plus the integer
// counters, one line per cell.  Diffing the output across a refactor proves
// (or disproves) bit-identical simulation down to the last ulp — the
// verification harness used by the storage-path and scheduler fast-path
// rewrites (see EXPERIMENTS.md "Bit-identity probes").
//
// Usage: hexfloat_probe [--procs N] [--scale F] [--workspace]
// (defaults: 8, 0.2, fresh-per-cell).  Cross-run workspace reuse must diff
// clean against fresh runs: --workspace routes all 32 cells through ONE
// reused ExperimentWorkspace — warm pools, compile cache and all — instead
// of a fresh stack per cell (DESIGN.md §16).  Exit codes follow
// dasched_run (tools/cli_main.h): an invalid cell config exits 2.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "cli_main.h"
#include "driver/experiment.h"
#include "driver/workspace.h"
#include "util/parse.h"

namespace dasched {
namespace {

int run_probe(int procs, double scale, bool use_workspace) {
  const std::vector<std::string> apps = {"sar", "madbench2", "hf", "apsi"};
  const std::vector<PolicyKind> policies = {
      PolicyKind::kNone, PolicyKind::kSimple, PolicyKind::kHistory,
      PolicyKind::kStaggered};
  ExperimentWorkspace ws;  // shared across every cell under --workspace
  for (const std::string& app : apps) {
    for (PolicyKind policy : policies) {
      for (int scheme = 0; scheme <= 1; ++scheme) {
        ExperimentConfig cfg;
        cfg.app = app;
        cfg.scale.num_processes = procs;
        cfg.scale.factor = scale;
        cfg.policy = policy;
        cfg.use_scheme = scheme != 0;
        const ExperimentResult r =
            use_workspace ? run_experiment(cfg, ws) : run_experiment(cfg);
        std::printf(
            "%s %s scheme=%d exec=%lld energy=%a events=%lld "
            "hit_rate=%a disk_reqs=%lld spin_downs=%lld rpm_changes=%lld "
            "sched=%lld forced=%lld fallbacks=%lld mean_advance=%a "
            "buffer_hits=%lld prefetches=%lld\n",
            app.c_str(), to_string(policy), scheme,
            static_cast<long long>(r.exec_time.count()), r.energy_j.value(),
            static_cast<long long>(r.events), r.storage.cache_hit_rate,
            static_cast<long long>(r.storage.disk_requests),
            static_cast<long long>(r.storage.spin_downs),
            static_cast<long long>(r.storage.rpm_changes),
            static_cast<long long>(r.sched.scheduled),
            static_cast<long long>(r.sched.forced),
            static_cast<long long>(r.sched.theta_fallbacks),
            r.sched.mean_advance_slots,
            static_cast<long long>(r.runtime.buffer_hits),
            static_cast<long long>(r.runtime.prefetches));
      }
    }
  }
  return 0;
}

int run_cli(int argc, char** argv) {
  int procs = 8;
  double scale = 0.2;
  bool use_workspace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--procs" && i + 1 < argc) {
      const auto v = parse_i64(argv[++i]);
      if (!v) die_invalid_value("--procs", argv[i], "an integer");
      procs = static_cast<int>(*v);
    } else if (arg == "--scale" && i + 1 < argc) {
      const auto v = parse_f64(argv[++i]);
      if (!v) die_invalid_value("--scale", argv[i], "a number");
      scale = *v;
    } else if (arg == "--workspace") {
      use_workspace = true;
    } else {
      std::fprintf(stderr,
                   "usage: hexfloat_probe [--procs N] [--scale F] "
                   "[--workspace]\n");
      return 2;
    }
  }
  return run_probe(procs, scale, use_workspace);
}

}  // namespace
}  // namespace dasched

int main(int argc, char** argv) {
  return dasched::cli_main("hexfloat_probe",
                           [&] { return dasched::run_cli(argc, argv); });
}
