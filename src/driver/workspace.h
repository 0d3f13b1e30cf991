// Allocation-free cross-run reuse: the per-worker experiment workspace.
//
// Every simulation in the tree is assembled, observed, run and torn down
// here.  A run is one engine and one storage system shared by a list of
// per-application *lanes* — each a built workload, its compiled schedule
// and its runtime `Cluster`.  A single-application experiment is a list of
// one; a co-scheduled run (driver/multi_experiment.h) is a longer list, and
// it gets the same topology validation, telemetry, audit and reuse.
//
// `run_experiment` builds a full simulation stack — engine, storage system,
// workload, compiled schedule, runtime cluster — per call, which is exactly
// right for one-off runs but dominates grid throughput once the per-cell
// simulated work is small.  An `ExperimentWorkspace` owns one such stack and
// rebuilds it *in place* between runs: every layer exposes a `reset()` that
// restores its constructor postcondition while keeping its allocations warm
// (event-record pools, the event queue's node arena, cache tables, elevator
// slabs, join pools, wait lists, result histograms), so the second and
// later runs of a topology-compatible configuration perform zero heap
// allocations (tests/driver/workspace_alloc_test.cc proves it with an
// operator-new interposer).
//
// Reuse is bit-identical to fresh construction by the same argument that
// makes the engine deterministic: all event ordering is (time, seq) keyed,
// and seq values are a dense counter rewound by the resets.  Slot
// indices, generation counters and free-list layout never enter an ordering
// key, so warm pools are observationally indistinguishable from cold ones
// (DESIGN.md §16; tests/driver/workspace_differential_test.cc).
//
// Shape changes are handled with a capacity high-water-mark policy: growing
// a dimension (more processes, more events) reallocates once and keeps the
// larger footprint; nothing ever shrinks.  A genuine topology change (node
// count, stripe size, workload identity) rebuilds the affected components
// cleanly; the engine itself serves any topology and is built once.  A run
// that threw mid-flight poisons the workspace; the next run detects it and
// rebuilds from scratch instead of trusting half-mutated state.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "driver/experiment.h"
#include "driver/multi_experiment.h"
#include "sim/simulator.h"
#include "util/annotations.h"

namespace dasched {

class ExperimentWorkspace {
 public:
  ExperimentWorkspace() = default;

  ExperimentWorkspace(const ExperimentWorkspace&) = delete;
  ExperimentWorkspace& operator=(const ExperimentWorkspace&) = delete;

  /// Makes the workspace ready to run `cfg`: resets compatible components in
  /// place, rebuilds the ones whose shape genuinely changed (storage
  /// topology, workload identity).  Called by `run`;
  /// exposed for tests that want to observe the rebuild decisions.
  void prepare(const ExperimentConfig& cfg);

  /// Runs one experiment, reusing the warm stack.  Same contract as
  /// `run_experiment(cfg)` — audits when `cfg.audit` is set and throws on a
  /// violation — but returns a reference to workspace-owned storage that is
  /// valid until the next `run` or the workspace's destruction.
  const ExperimentResult& run(const ExperimentConfig& cfg);

  /// Co-scheduled counterpart: one lane per application in `cfg.apps`, all
  /// sharing the storage system configured by `cfg.base` (whose `app` is
  /// ignored).  Same audit contract as the single-application run.
  MultiExperimentResult run(const MultiExperimentConfig& cfg);

  /// True after a run threw mid-flight (the in-run marker was never
  /// cleared); the next prepare() rebuilds from scratch and clears it.
  [[nodiscard]] bool poisoned() const { return in_run_; }

  // Rebuild telemetry for tests and benches: how often each expensive stage
  // actually ran (engine construction, workload build, schedule compile).
  [[nodiscard]] std::uint64_t engine_rebuilds() const { return engine_rebuilds_; }
  [[nodiscard]] std::uint64_t workload_builds() const { return workload_builds_; }
  [[nodiscard]] std::uint64_t compile_misses() const { return compile_misses_; }
  [[nodiscard]] std::uint64_t runs_completed() const { return runs_completed_; }

 private:
  /// Identity of the built workload: `App::build` registers files on the
  /// striping map, so it must run exactly once per (app list, scale,
  /// striping geometry) — rerunning it would append duplicate files.
  struct WorkloadKey {
    std::vector<std::string> apps;
    int num_processes = 0;
    double factor = 0.0;
    int num_io_nodes = 0;
    Bytes stripe_size = 0;

    friend bool operator==(const WorkloadKey&, const WorkloadKey&) = default;
  };

  /// One compile of a lane's trace.  The unique_ptr keeps the compile's
  /// address stable while a cluster runs over it.
  struct CompileSlot {
    std::uint64_t tick = 0;  // LRU stamp
    CompileOptions opts;
    std::unique_ptr<Compiled> compiled;
  };

  /// One application of the run: its built (lowered and frozen) trace, its
  /// most recent compiles of that trace (LRU, at most kCompilesPerLane),
  /// which all share the trace's slot plans, and the runtime cluster that
  /// executes it.
  struct Lane {
    CompiledProgram trace;
    std::vector<CompileSlot> compiles;
    std::unique_ptr<Cluster> cluster;
  };

  /// Resets or rebuilds the stack for `apps` over `base`'s topology.
  void prepare_lanes(const ExperimentConfig& base,
                     std::span<const std::string> apps);
  /// Drops every component; the next prepare() builds from scratch.
  void clear_all();
  /// Detaches audit/telemetry observers from every layer (simulator,
  /// storage, nodes, disks, policies); they are re-installed per run.
  void detach_observers();
  /// Compiled schedule of `lane` under `copts`: a hit in the lane's own
  /// compiles, or a fresh compile that evicts the lane's least recently
  /// used one.
  const Compiled& obtain_compiled(Lane& lane, const CompileOptions& copts);
  /// Prepares the lanes, runs every one to completion and fills the
  /// run-wide fields of `result_` (storage, energy, events, telemetry,
  /// audit).  With `base.audit` set the run owns an auditor; a violation
  /// throws its report after the run completed, so it does not poison the
  /// workspace.
  /// The grid's steady-state path: on a topology-compatible rerun it must
  /// not allocate (enforced by the lint's hot-alloc rule + the operator-new
  /// interposition test); every sanctioned warm-up/miss-path allocation in
  /// the implementation carries an inline allow(hot-alloc) justification.
  DASCHED_HOT void run_lanes(const ExperimentConfig& base,
                             std::span<const std::string> apps);
  /// Fills the per-application fields of `result_` from the single lane.
  const ExperimentResult& single_result(const ExperimentConfig& cfg);
  [[nodiscard]] MultiExperimentResult multi_result() const;

  // Engine: built on the first prepare() (or after a poisoned run), then
  // reset in place; its pools grow monotonically via reserve_events.
  std::unique_ptr<Simulator> sim_;

  // Storage (optional<> so a topology change can re-emplace in place).
  std::optional<StorageSystem> storage_;

  // Workload: one lane per application, in run order.  A workload rebuild
  // drops every lane's compiles with the trace they were compiled from.
  std::optional<WorkloadKey> workload_key_;
  std::vector<Lane> lanes_;
  static constexpr std::size_t kCompilesPerLane = 4;
  std::uint64_t compile_tick_ = 0;

  ExperimentResult result_;

  /// Set for the duration of every run; still set at the next prepare()
  /// means the previous run threw mid-flight and the stack is suspect.
  bool in_run_ = false;
  std::uint64_t engine_rebuilds_ = 0;
  std::uint64_t workload_builds_ = 0;
  std::uint64_t compile_misses_ = 0;
  std::uint64_t runs_completed_ = 0;
};

}  // namespace dasched
