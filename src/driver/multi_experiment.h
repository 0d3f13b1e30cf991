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

  /// True when the run was audited (`base.audit`); a violation throws, so
  /// an audited result is always clean.  `audit_report` is the auditor's
  /// all-clear line over the shared stack and every lane's schedule; empty
  /// when unaudited.
  bool audited = false;
  std::string audit_report;

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

}  // namespace dasched
