#include "driver/workspace.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "check/install.h"
#include "telemetry/analytics.h"
#include "telemetry/export.h"
#include "telemetry/install.h"
#include "telemetry/trace_io.h"
#include "util/annotations.h"

namespace dasched {

namespace {

/// Relative tolerance between the telemetry energy-by-state aggregate and
/// the run's scalar total.  Both sum the exact same accrual terms; only the
/// cross-disk/cross-state addition order differs, so anything beyond
/// re-association noise is a genuine telemetry bug.
constexpr double kEnergyRelEps = 1e-9;

void write_telemetry_artifacts(const std::string& dir,
                               const TraceBuffer& buffer, const TraceMeta& meta,
                               const TelemetrySummary& summary) {
  // dasched-lint: allow(hot-alloc): artifact writing, opt-in telemetry only
  std::filesystem::create_directories(dir);
  // dasched-lint: allow(hot-alloc): artifact writing, opt-in telemetry only
  if (!save_trace(dir + "/trace.bin", buffer, meta)) {
    // dasched-lint: allow(hot-alloc): fatal-error path
    throw std::runtime_error("telemetry: cannot write " + dir + "/trace.bin");
  }
  // dasched-lint: allow(hot-alloc): artifact writing, opt-in telemetry only
  std::ofstream sj(dir + "/summary.json");
  // dasched-lint: allow(hot-alloc): artifact writing, opt-in telemetry only
  std::ofstream cj(dir + "/trace.json");
  if (!sj || !cj) {
    // dasched-lint: allow(hot-alloc): fatal-error path
    throw std::runtime_error("telemetry: cannot open outputs under " + dir);
  }
  write_summary_json(sj, summary);
  write_chrome_trace(cj, buffer, meta);
}

/// The run's application names joined with '+', for diagnostics and the
/// telemetry header.
std::string lane_names(std::span<const std::string> apps) {
  std::string out;
  for (const std::string& app : apps) {
    if (!out.empty()) out += '+';
    out += app;
  }
  return out;
}

}  // namespace

void ExperimentWorkspace::clear_all() {
  lanes_.clear();
  storage_.reset();
  workload_key_.reset();
  sim_.reset();
}

void ExperimentWorkspace::detach_observers() {
  if (sim_ != nullptr) sim_->clear_observers();
  if (!storage_.has_value()) return;
  storage_->clear_observers();
  for (int i = 0; i < storage_->num_io_nodes(); ++i) {
    IoNode& node = storage_->node(i);
    node.clear_observers();
    node.disk().clear_observers();
    if (PowerPolicy* policy = node.policy()) policy->clear_observers();
  }
}

void ExperimentWorkspace::prepare(const ExperimentConfig& cfg) {
  prepare_lanes(cfg, {&cfg.app, 1});
}

void ExperimentWorkspace::prepare_lanes(const ExperimentConfig& base,
                                        std::span<const std::string> apps) {
  if (apps.empty()) {
    // dasched-lint: allow(hot-alloc): config-error path, never on success
    throw ConfigError("apps", "experiment: no applications to run");
  }
  validate_experiment_topology(base);
  if (in_run_) {
    // The previous run threw mid-flight; nothing below the driver promises
    // exception-safe partial state, so rebuild everything from scratch.
    clear_all();
    in_run_ = false;
  }

  if (sim_ == nullptr) {
    // dasched-lint: allow(hot-alloc): engine build, first run or post-poison
    sim_ = std::make_unique<Simulator>();
    ++engine_rebuilds_;
  } else {
    sim_->reset();
  }
  // Grow-only and idempotent, so the engine can serve a bigger topology
  // without a rebuild (capacity high-water-mark policy).  Extra lanes grow
  // the pools past it on their first run.
  sim_->reserve_events(default_event_reserve(base.storage, base.scale));

  StorageConfig storage_cfg = base.storage;  // all scalars; no allocation
  storage_cfg.node.policy = base.policy;
  storage_cfg.node.policy_cfg = base.policy_cfg;
  storage_cfg.seed = base.seed;
  if (!storage_.has_value()) {
    storage_.emplace(*sim_, storage_cfg);
    workload_key_.reset();
  } else {
    storage_->reset(storage_cfg);
  }

  const bool workload_ok =
      workload_key_.has_value() && std::ranges::equal(workload_key_->apps, apps) &&
      workload_key_->num_processes == base.scale.num_processes &&
      workload_key_->factor == base.scale.factor &&
      workload_key_->num_io_nodes == base.storage.num_io_nodes &&
      workload_key_->stripe_size == base.storage.stripe_size;
  if (!workload_ok) {
    // App::build creates files on the striping map, so the map must be
    // emptied first; the deterministic rebuild then registers every lane's
    // files in lane order, reproducing the exact file->offset mapping a
    // fresh system would produce.  The key is dropped first so that an
    // unknown app name part-way through forces a rebuild next time.
    storage_->striping().reset();
    workload_key_.reset();
    // dasched-lint: allow(hot-alloc): workload rebuild, miss path only
    lanes_.resize(apps.size());
    for (std::size_t i = 0; i < apps.size(); ++i) {
      // The compiles belong to the trace being replaced; a hit on one now
      // would run the wrong schedule.
      lanes_[i].compiles.clear();
      lanes_[i].trace =
          app_by_name(apps[i]).build(storage_->striping(), base.scale);
    }
    WorkloadKey& key = workload_key_.emplace();
    // dasched-lint: allow(hot-alloc): workload rebuild, miss path only
    key.apps.assign(apps.begin(), apps.end());
    key.num_processes = base.scale.num_processes;
    key.factor = base.scale.factor;
    key.num_io_nodes = base.storage.num_io_nodes;
    key.stripe_size = base.storage.stripe_size;
    ++workload_builds_;
  }
}

const Compiled& ExperimentWorkspace::obtain_compiled(
    Lane& lane, const CompileOptions& copts) {
  ++compile_tick_;
  for (CompileSlot& slot : lane.compiles) {
    if (slot.opts == copts) {
      slot.tick = compile_tick_;
      return *slot.compiled;
    }
  }
  ++compile_misses_;
  // The compile shares the lane's frozen plan; only its reads are new.
  // dasched-lint: allow(hot-alloc): compile-cache miss path, bounded by LRU
  auto fresh = std::make_unique<Compiled>(compile_trace(
      // dasched-lint: allow(hot-alloc): compile-cache miss path
      lane.trace, storage_->striping(), copts));
  CompileSlot* victim = nullptr;
  if (lane.compiles.size() < kCompilesPerLane) {
    // dasched-lint: allow(hot-alloc): cache warm-up, bounded per lane
    victim = &lane.compiles.emplace_back();
  } else {
    victim = &*std::ranges::min_element(lane.compiles, {}, &CompileSlot::tick);
  }
  victim->tick = compile_tick_;
  victim->opts = copts;
  victim->compiled = std::move(fresh);
  return *victim->compiled;
}

const ExperimentResult& ExperimentWorkspace::run(const ExperimentConfig& cfg) {
  run_lanes(cfg, {&cfg.app, 1});
  return single_result(cfg);
}

MultiExperimentResult ExperimentWorkspace::run(
    const MultiExperimentConfig& cfg) {
  run_lanes(cfg.base, cfg.apps);
  return multi_result();
}

const ExperimentResult& ExperimentWorkspace::single_result(
    const ExperimentConfig& cfg) {
  const Cluster& cluster = *lanes_.front().cluster;
  result_.app = cfg.app;
  result_.exec_time = cluster.exec_time();
  result_.runtime = cluster.stats();
  result_.sched = cluster.compiled().sched_stats;
  return result_;
}

MultiExperimentResult ExperimentWorkspace::multi_result() const {
  MultiExperimentResult out;
  for (const Lane& lane : lanes_) {
    out.exec_times.push_back(lane.cluster->exec_time());
    out.makespan = std::max(out.makespan, out.exec_times.back());
    out.runtime.push_back(lane.cluster->stats());
  }
  out.energy_j = result_.energy_j;
  out.storage = result_.storage;
  out.audited = result_.audited;
  out.audit_report = result_.audit_report;
  out.telemetry = result_.telemetry;
  return out;
}

void ExperimentWorkspace::run_lanes(const ExperimentConfig& base,
                                    std::span<const std::string> apps) {
  prepare_lanes(base, apps);
  in_run_ = true;  // cleared on success; a throw leaves it set -> poison
  Simulator& sim = *sim_;
  StorageSystem& storage = *storage_;

  // An audited run owns its auditor, which must outlive every observer
  // pointer the layers hold into its checks (dropped by the guard below).
  std::optional<SimAuditor> auditor;

  // Per-run observers (audit checks, telemetry recorders) die at the end of
  // this call, so every layer must drop its raw pointers to them even when
  // the run throws.
  struct DetachGuard {
    ExperimentWorkspace* ws;
    ~DetachGuard() { ws->detach_observers(); }
  } detach_guard{this};

  // Hook the auditor in before anything can schedule an event, so the
  // event-queue ledger sees the complete history.
  InstalledChecks checks;
  if (base.audit) {
    checks = install_audit(auditor.emplace(), sim, storage, base.policy,
                           base.policy_cfg);
  }

  // The telemetry recorder attaches beside the audit checks (every layer
  // multiplexes observers) and is strictly passive.
  std::unique_ptr<TelemetryRecorder> recorder;
  if (base.telemetry.enabled()) {
    // dasched-lint: allow(hot-alloc): telemetry runs opt into recording
    recorder = std::make_unique<TelemetryRecorder>(base.telemetry.level);
    install_telemetry(*recorder, sim, storage);
    TraceMeta& meta = recorder->meta();
    meta.app = lane_names(apps);
    meta.policy = static_cast<int>(base.policy);
    meta.scheme = base.use_scheme;
  }

  // Compile every lane against the shared striping map (files have
  // disjoint node-local extents) but with an isolated scheduling pass each,
  // and bind its cluster to the result.
  RuntimeConfig rt = base.runtime;
  rt.use_runtime_scheduler = base.use_scheme;
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    const App& app = app_by_name(apps[i]);
    CompileOptions copts = base.compile;
    copts.enable_scheduling = base.use_scheme;
    copts.slack.length_unit = app.length_unit;
    copts.slack.max_slack = base.max_slack;
    const Compiled& compiled = obtain_compiled(lanes_[i], copts);
    if (recorder != nullptr) {
      // Placements are compile-time events, taken from the schedule itself
      // whether it was compiled now or reused (kFull only; a scheme-off
      // compile has none).
      recorder->record_placements(compiled.program.reads,
                                  compiled.scheduled);
    }
    if (auditor.has_value()) {
      audit_compiled(*auditor, compiled, copts, storage.striping());
    }
    std::unique_ptr<Cluster>& cluster = lanes_[i].cluster;
    if (cluster == nullptr) {
      // dasched-lint: allow(hot-alloc): first run / post-rebuild construction
      cluster = std::make_unique<Cluster>(sim, storage, compiled, rt);
    } else {
      cluster->reset(compiled, rt);
    }
  }

  // Run until every application completes; power-policy timers may keep
  // the event queue alive past that point, and accounting must stop at the
  // last application's end (the paper's energies cover program execution).
  for (Lane& lane : lanes_) lane.cluster->start();
  const auto all_finished = [this] {
    return std::all_of(lanes_.begin(), lanes_.end(), [](const Lane& lane) {
      return lane.cluster->all_finished();
    });
  };
  while (!all_finished() && sim.step()) {
  }
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    if (!lanes_[i].cluster->all_finished()) {
      // dasched-lint: allow(hot-alloc): fatal-error path, never on success
      throw std::runtime_error("experiment '" + apps[i] +
                               "': simulation drained but clients are stuck");
    }
  }

  result_.policy = base.policy;
  result_.scheme = base.use_scheme;
  storage.finalize_into(result_.storage);
  result_.energy_j = result_.storage.energy_j;
  result_.events = sim.events_executed();
  result_.audited = false;
  result_.audit_report.clear();
  result_.telemetry = nullptr;

  if (recorder != nullptr) {
    // finalize() above fired the trailing accruals, so the trace now tiles
    // every disk's timeline completely.
    recorder->meta().end_time = sim.now();
    // dasched-lint: allow(hot-alloc): telemetry summary, opt-in runs only
    auto summary = std::make_shared<TelemetrySummary>(
        // dasched-lint: allow(hot-alloc): telemetry analysis, opt-in only
        analyze_trace(recorder->buffer(), recorder->meta()));

    // Reconcile the energy-by-state breakdown against the scalar total.
    // Under an auditor this extends the energy-conservation invariant;
    // without one a divergence is a fatal telemetry bug.
    if (checks.energy != nullptr) {
      checks.energy->cross_check_aggregate(summary->energy_by_state_j,
                                           result_.energy_j, sim.now());
    }
    const double scale = std::max(std::fabs(result_.energy_j.value()), 1.0);
    if (std::fabs((summary->energy_total_j - result_.energy_j).value()) >
        kEnergyRelEps * scale) {
      // dasched-lint: allow(hot-alloc): fatal-error path, never on success
      throw std::runtime_error(
          "telemetry: energy-by-state breakdown diverges from the scalar "
          // dasched-lint: allow(hot-alloc): fatal-error path
          "total for experiment '" +
          recorder->meta().app + "'");  // dasched-lint: allow(hot-alloc): fatal path
    }

    if (!base.telemetry.dir.empty()) {
      write_telemetry_artifacts(base.telemetry.dir, recorder->buffer(),
                                recorder->meta(), *summary);
    }
    result_.telemetry = std::move(summary);
  }

  in_run_ = false;
  ++runs_completed_;

  if (auditor.has_value()) {
    auditor->finalize();
    // A violation is a fatal correctness bug.  It throws only now that the
    // run has completed, so the workspace stays warm for the next run.
    if (!auditor->clean()) {
      // dasched-lint: allow(hot-alloc): fatal-error path, never on success
      throw std::runtime_error("experiment '" + lane_names(apps) +
                               // dasched-lint: allow(hot-alloc): fatal path
                               "' failed its invariant audit:\n" +
                               auditor->report());
    }
    result_.audited = true;
    // dasched-lint: allow(hot-alloc): audited runs opt into the report
    result_.audit_report = auditor->report();
  }
}

}  // namespace dasched
