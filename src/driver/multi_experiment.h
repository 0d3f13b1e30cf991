// Multi-application scenarios — the paper's stated future work ("we plan to
// investigate the opportunities of increasing disk idle periods in
// multi-application scenarios").
//
// Several applications run concurrently against one storage system, each
// with its own client processes, compiled program and runtime scheduler.
// The interesting phenomenon this exposes: each application's scheduling
// table is computed in isolation, so the per-application node-clustering
// decisions interfere at the shared disks — quantified by comparing the
// combined run against the applications run back-to-back.
//
// A co-scheduled run is an `ExperimentWorkspace` run with one lane per
// application (driver/workspace.h), so it is validated, audited and traced
// exactly like a single-application experiment.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "driver/experiment.h"

namespace dasched {

struct MultiExperimentConfig {
  /// Storage, policy, scheme, scale, audit and telemetry settings shared by
  /// every application; `base.app` is ignored.
  ExperimentConfig base;
  /// Applications to co-schedule, in order; each gets
  /// `base.scale.num_processes` clients.
  std::vector<std::string> apps;
};

struct MultiExperimentResult {
  /// Completion time of each application, in config order.
  std::vector<SimTime> exec_times;
  /// Completion of the slowest application.
  SimTime makespan = 0;
  Joules energy_j{};
  StorageStats storage;
  /// Per-application runtime statistics.
  std::vector<RuntimeStats> runtime;

  /// True when the run was audited; `audit_violations` is the total count
  /// (only ever non-zero with an external auditor, which does not throw).
  bool audited = false;
  std::int64_t audit_violations = 0;

  /// Analytics summary of the traced run; null when telemetry was off.
  std::shared_ptr<const TelemetrySummary> telemetry;
};

/// Runs all applications concurrently on one storage system; accounting
/// stops when the last application completes.  Throws ConfigError on an
/// empty application list or an invalid topology (the same checks as
/// `run_experiment`), and std::runtime_error on an audit violation when
/// `cfg.base.audit` is set.
[[nodiscard]] MultiExperimentResult run_multi_experiment(
    const MultiExperimentConfig& cfg);

/// As above, but records invariant checks into an external auditor instead
/// of throwing: the caller inspects `auditor->clean()` / the result's
/// `audit_violations`.  The auditor observes the shared simulator and
/// storage system plus every application's compiled schedule.
[[nodiscard]] MultiExperimentResult run_multi_experiment(
    const MultiExperimentConfig& cfg, SimAuditor* auditor);

}  // namespace dasched
