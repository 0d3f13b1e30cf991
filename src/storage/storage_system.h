// The cluster storage system: striped files over a set of I/O nodes.
//
// Client-side layers issue file-relative reads and writes; the system maps
// them through the striping layer onto per-node pieces, charges a network
// hop each way, and joins the per-node completions.  This is the simulation
// stand-in for PVFS + the I/O node hardware.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "sim/simulator.h"
#include "storage/io_node.h"
#include "storage/striping.h"
#include "util/annotations.h"
#include "util/observer_list.h"
#include "util/units.h"

namespace dasched {

struct StorageConfig {
  int num_io_nodes = 8;
  Bytes stripe_size = kib(64);
  IoNodeConfig node;
  /// One-way client <-> I/O node latency.
  SimTime network_latency = usec(200);
  /// Network bandwidth applied to the data transfer of each piece.
  double network_mb_per_sec = 1'000.0;
  std::uint64_t seed = 7;

  /// Table II defaults.
  [[nodiscard]] static StorageConfig paper_defaults() { return StorageConfig{}; }
};

/// Passive tap on client-level request routing, used by the invariant
/// auditor (src/check) to re-check the stripe math on every access and by
/// the telemetry recorder (src/telemetry) to log request routing.  Multiple
/// observers may be attached at once (audit + telemetry compose).
class StorageObserver {
 public:
  virtual ~StorageObserver() = default;

  /// A client request was split into `pieces` (in file order) and dispatched.
  /// The span aliases the router's scratch buffer and is valid only for the
  /// duration of the call.
  virtual void on_request_routed(FileId f, Bytes offset, Bytes size,
                                 bool is_write,
                                 std::span<const StripePiece> pieces) {
    (void)f, (void)offset, (void)size, (void)is_write, (void)pieces;
  }
};

struct StorageStats {
  Joules energy_j{};
  std::int64_t requests = 0;
  std::int64_t disk_requests = 0;
  std::int64_t spin_downs = 0;
  std::int64_t spin_ups = 0;
  std::int64_t rpm_changes = 0;
  double cache_hit_rate = 0.0;
  DurationHistogram idle_periods;
  std::vector<IoNodeStats> per_node;
};

class StorageSystem {
 public:
  StorageSystem(Simulator& sim, StorageConfig cfg);

  StorageSystem(const StorageSystem&) = delete;
  StorageSystem& operator=(const StorageSystem&) = delete;

  FileId create_file(std::string name, Bytes size) {
    return striping_.create_file(std::move(name), size);
  }

  /// File-relative read; `done` fires when every stripe piece has been
  /// served and the response has crossed the network back.  Background
  /// reads (runtime prefetches) yield to demand traffic at the disks.
  DASCHED_HOT void read(FileId f, Bytes offset, Bytes size, EventFn done,
            bool background = false);

  /// File-relative write-through.
  DASCHED_HOT void write(FileId f, Bytes offset, Bytes size, EventFn done);

  /// I/O-node signature of an access — shared with the compiler.
  [[nodiscard]] Signature signature(FileId f, Bytes offset, Bytes size) const {
    return striping_.signature(f, offset, size);
  }

  [[nodiscard]] const StripingMap& striping() const { return striping_; }
  /// Mutable access for workload builders that register files directly.
  [[nodiscard]] StripingMap& striping() { return striping_; }
  [[nodiscard]] const StorageConfig& config() const { return cfg_; }
  [[nodiscard]] int num_io_nodes() const { return cfg_.num_io_nodes; }
  [[nodiscard]] IoNode& node(int i) { return *nodes_[static_cast<std::size_t>(i)]; }

  /// Adds one observer to the multiplexing list (audit and telemetry attach
  /// side by side).  Not owned; duplicates and null are ignored.
  void add_observer(StorageObserver* observer) { observers_.add(observer); }
  /// Detaches every observer.
  void clear_observers() { observers_.clear(); }

  /// Finalizes all nodes and aggregates system-wide statistics.
  StorageStats finalize();

  /// `finalize()` into caller-owned storage: the per-node vector and every
  /// histogram keep their allocations, so repeated finalizes through a
  /// workspace allocate nothing after the first.
  void finalize_into(StorageStats& out);

  /// Restores the system for a new run under (possibly changed) `cfg`.
  /// Same-shape parts reset in place without allocating; a node-count or
  /// stripe-size change rebuilds the affected component.  The striping map
  /// (and its registered files) is deliberately left alone when its geometry
  /// is unchanged — the driver owns the decision to rebuild the workload
  /// (see StripingMap::reset).  Must run after the owning simulator's reset.
  /// Observers are not touched; the driver re-installs them per run.
  void reset(const StorageConfig& cfg);

 private:
  void route(FileId f, Bytes offset, Bytes size, bool is_write,
             bool background, EventFn done);

  Simulator& sim_;
  StorageConfig cfg_;
  StripingMap striping_;
  ObserverList<StorageObserver> observers_;
  std::vector<std::unique_ptr<IoNode>> nodes_;
  JoinPool join_pool_;
  std::vector<StripePiece> scratch_pieces_;  // reused by route()
};

}  // namespace dasched
