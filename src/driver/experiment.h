// End-to-end experiment runner.
//
// One experiment = one application × one power policy × scheme on/off.
// Every run — bench binaries, grid cells, daemon requests and the
// integration tests — goes through `ExperimentWorkspace::run`
// (driver/workspace.h), so the paper's pipeline — workload, compile,
// simulate, measure — lives in exactly one place, `run_lanes`.
// `run_experiment` is a single-use workspace for one-off runs.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "compiler/compile.h"
#include "io/cluster.h"
#include "power/policies.h"
#include "storage/storage_system.h"
#include "telemetry/events.h"
#include "util/config_error.h"  // ConfigError, re-exported
#include "util/histogram.h"
#include "workload/app.h"

/// Build-time default of `ExperimentConfig::audit`; the DASCHED_AUDIT CMake
/// option sets it to 1 so every experiment in the tree runs audited.
#ifndef DASCHED_AUDIT_DEFAULT
#define DASCHED_AUDIT_DEFAULT 0
#endif

namespace dasched {

struct TelemetrySummary;

struct ExperimentConfig {
  std::string app = "hf";
  WorkloadScale scale;
  StorageConfig storage;
  CompileOptions compile;
  RuntimeConfig runtime;
  /// Policy installed on every disk (kNone = the paper's Default Scheme).
  PolicyKind policy = PolicyKind::kNone;
  PolicyConfig policy_cfg;
  /// Enables the paper's contribution: compile-time scheduling + runtime
  /// prefetching.  False reproduces the "without our approach" runs.
  bool use_scheme = false;
  std::uint64_t seed = 1;

  /// Runs the experiment under the invariant auditor (src/check).  This is
  /// the only way to audit a run, with one policy everywhere: a violation
  /// throws std::runtime_error carrying the audit report once the run has
  /// completed, so a DASCHED_AUDIT=ON build turns every test into an
  /// invariant test.  A clean run leaves the report in
  /// `ExperimentResult::audit_report`.
  bool audit = DASCHED_AUDIT_DEFAULT != 0;

  /// Telemetry capture (src/telemetry).  Off by default; when enabled the
  /// run is traced, the summary lands in ExperimentResult::telemetry, the
  /// energy-by-state breakdown is reconciled against the scalar total, and
  /// `telemetry.dir` (if set) receives trace.bin / summary.json /
  /// trace.json.  The recorder is passive: enabling it cannot change any
  /// simulation result.
  TelemetryConfig telemetry;

  /// Slack bound: how far (in slots) the compiler may hoist an access.
  /// 0 = the full producer-to-consumer window (paper semantics); the runtime
  /// buffer capacity is then the only limit on hoisting.
  Slot max_slack = 600;

  /// Retired engine selector (DESIGN.md §14).  Kept only for source
  /// compatibility with the perfbench harness (perfbench/perfbench.cc),
  /// which assigns it; 0 (the one serial engine) is the only legal value,
  /// anything else is a ConfigError naming `shards`.
  int shards = 0;
};

/// Topology-derived bound on concurrently outstanding events, used to
/// pre-reserve the event queue and record pool (Simulator::reserve_events)
/// so the steady state performs zero queue allocations.  Deliberately
/// generous — memory cost is ~56 bytes per slot — but growth past it is
/// still legal (the queues keep their annotated growth paths).
[[nodiscard]] std::size_t default_event_reserve(const StorageConfig& storage,
                                                const WorkloadScale& scale);

struct ExperimentResult {
  std::string app;
  PolicyKind policy = PolicyKind::kNone;
  bool scheme = false;

  SimTime exec_time = 0;
  Joules energy_j{};
  StorageStats storage;
  RuntimeStats runtime;
  ScheduleStats sched;
  std::int64_t events = 0;

  /// True when the run was audited.  `audit_violations` is 0 on every
  /// returned result (a violation throws instead); both are kept for the
  /// grid CSV/JSONL schema and the daemon wire.
  bool audited = false;
  std::int64_t audit_violations = 0;
  /// The auditor's all-clear line ("audit: N invariant evaluations across
  /// K checks, no violations") of an audited run; empty when unaudited.
  /// Not sent on the wire.
  std::string audit_report;

  /// Analytics summary of the traced run; null when telemetry was off.
  /// Shared so grid sinks can aggregate without copying the histograms.
  std::shared_ptr<const TelemetrySummary> telemetry;

  [[nodiscard]] double exec_minutes() const { return to_minutes(exec_time); }
};

/// Validates the run topology: process/node counts must be positive (any
/// size is accepted — the paper's 8-node/32-client evaluation cap is a
/// default, not a limit), every I/O node's cache must hold at least one
/// stripe-sized block, the vertical reuse range δ and the per-node cap θ
/// must be non-negative (θ = 0 disables the cap), and `shards` must be 0.  Throws ConfigError (a std::invalid_argument carrying
/// the offending field name) with a specific message otherwise.  Called by
/// run_experiment; exposed for tools, the daemon, and tests.
void validate_experiment_topology(const ExperimentConfig& cfg);

/// Runs a single experiment to completion.  Throws std::runtime_error if the
/// simulation deadlocks (a client never finishes) or if `cfg.audit` is set
/// and an invariant check fires.
[[nodiscard]] ExperimentResult run_experiment(const ExperimentConfig& cfg);

/// Energy of `r` normalized to `baseline` (the paper's Fig. 12c/d y-axis).
[[nodiscard]] inline double normalized_energy(const ExperimentResult& r,
                                              const ExperimentResult& baseline) {
  return baseline.energy_j == Joules{0.0} ? 0.0
                                          : r.energy_j / baseline.energy_j;
}

/// Execution-time degradation of `r` relative to `baseline` (Fig. 13a/b).
[[nodiscard]] inline double degradation(const ExperimentResult& r,
                                        const ExperimentResult& baseline) {
  return baseline.exec_time == SimTime{0}
             ? 0.0
             : static_cast<double>(r.exec_time - baseline.exec_time) /
                   static_cast<double>(baseline.exec_time);
}

}  // namespace dasched
