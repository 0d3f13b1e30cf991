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
#include <string>
#include <string_view>
#include <vector>

#include "cli_main.h"
#include "cli_options.h"
#include "driver/experiment.h"
#include "driver/workspace.h"
#include "engine/config_keys.h"

namespace dasched {
namespace {

int run_probe(const ExperimentConfig& base, bool use_workspace) {
  const std::vector<std::string> apps = {"sar", "madbench2", "hf", "apsi"};
  const std::vector<PolicyKind> policies = {
      PolicyKind::kNone, PolicyKind::kSimple, PolicyKind::kHistory,
      PolicyKind::kStaggered};
  ExperimentWorkspace ws;  // shared across every cell under --workspace
  for (const std::string& app : apps) {
    for (PolicyKind policy : policies) {
      for (int scheme = 0; scheme <= 1; ++scheme) {
        ExperimentConfig cfg = base;
        cfg.app = app;
        cfg.policy = policy;
        cfg.use_scheme = scheme != 0;
        print_hexfloat_line(use_workspace ? ws.run(cfg) : run_experiment(cfg));
      }
    }
  }
  return 0;
}

int run_cli(int argc, char** argv) {
  ExperimentConfig base;
  base.scale.num_processes = 8;
  base.scale.factor = 0.2;
  bool use_workspace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if ((arg == "--procs" || arg == "--scale") && i + 1 < argc) {
      find_flag(config_keys(), arg)->set(base, argv[++i]);
    } else if (arg == "--workspace") {
      use_workspace = true;
    } else {
      std::fprintf(stderr,
                   "usage: hexfloat_probe [--procs N] [--scale F] "
                   "[--workspace]\n");
      return 2;
    }
  }
  return run_probe(base, use_workspace);
}

}  // namespace
}  // namespace dasched

int main(int argc, char** argv) {
  return dasched::cli_main("hexfloat_probe",
                           [&] { return dasched::run_cli(argc, argv); });
}
