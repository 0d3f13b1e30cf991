// An I/O node: storage cache + one disk + its power policy.
//
// The node serves node-local byte-range reads and writes.  Reads consult the
// storage cache first (hits never reach the disk, which is what lets larger
// caches erode the scheme's benefit, Sec. V-D); misses become one disk
// request per cache block and trigger sequential prefetch.  Writes are
// acked from the cache and drain to the disk in the background.  The paper
// puts RAID 5/10 inside each node; every reproduced figure runs one disk
// per node instead (DESIGN.md §2).
#pragma once

#include <memory>

#include "disk/disk.h"
#include "power/policies.h"
#include "sim/simulator.h"
#include "storage/join_pool.h"
#include "storage/storage_cache.h"
#include "util/annotations.h"
#include "util/observer_list.h"
#include "util/units.h"

namespace dasched {

struct IoNodeConfig {
  Bytes cache_capacity = mib(64);
  /// Cache block and disk request unit; the storage system sets it to the
  /// stripe size.
  Bytes cache_block_size = kib(64);
  int prefetch_depth = 1;
  /// Service latency of a cache hit (no disk involved).
  SimTime cache_hit_latency = usec(50);
  DiskParams disk;
  PolicyKind policy = PolicyKind::kNone;
  PolicyConfig policy_cfg;
};

class IoNode;
struct IoNodeStats;

/// Passive tap on an I/O node, used by the invariant auditor (src/check)
/// and the telemetry recorder (src/telemetry).  All callbacks default to
/// no-ops; with nothing attached each hook site costs one empty list test,
/// so the hooks stay in release builds.  Multiple observers may be attached
/// at once (audit + telemetry compose).
class IoNodeObserver {
 public:
  virtual ~IoNodeObserver() = default;

  /// A node-local read arrived (before any cache lookups).
  virtual void on_read(const IoNode& node, Bytes offset, Bytes size,
                       bool background) {
    (void)node, (void)offset, (void)size, (void)background;
  }

  /// A node-local write arrived.
  virtual void on_write(const IoNode& node, Bytes offset, Bytes size) {
    (void)node, (void)offset, (void)size;
  }

  /// A demand block lookup hit or missed the storage cache.
  virtual void on_block_lookup(const IoNode& node, Bytes block, bool hit) {
    (void)node, (void)block, (void)hit;
  }

  /// A sequential prefetch for `block` was issued after a miss.
  virtual void on_prefetch_issued(const IoNode& node, Bytes block) {
    (void)node, (void)block;
  }

  /// `count` disk requests were handed to the node's disk.
  virtual void on_disk_requests_issued(const IoNode& node,
                                       std::size_t count) {
    (void)node, (void)count;
  }

  /// `finalize()` ran; `stats` is the aggregate about to be returned.
  virtual void on_finalized(const IoNode& node, const IoNodeStats& stats) {
    (void)node, (void)stats;
  }
};

struct IoNodeStats {
  Joules energy_j{};
  std::int64_t requests = 0;
  std::int64_t disk_requests = 0;
  std::int64_t spin_downs = 0;
  std::int64_t spin_ups = 0;
  std::int64_t rpm_changes = 0;
  CacheStats cache;
  DurationHistogram idle_periods;
};

class IoNode {
 public:
  IoNode(Simulator& sim, IoNodeConfig cfg, int node_id, std::uint64_t seed);

  IoNode(const IoNode&) = delete;
  IoNode& operator=(const IoNode&) = delete;

  /// Node-local read; `done` fires when every block of the range is
  /// available (cache hit or disk completion).  Background reads (runtime
  /// prefetches) yield to demand traffic at the disks.
  DASCHED_HOT void read(Bytes offset, Bytes size, EventFn done, bool background = false);

  /// Node-local write: the cache absorbs it (ack-early) and the disk writes
  /// drain in the background; `done` fires after the cache latency.
  DASCHED_HOT void write(Bytes offset, Bytes size, EventFn done);

  /// Adds one observer to the multiplexing list (audit and telemetry attach
  /// side by side).  Not owned; duplicates and null are ignored.
  void add_observer(IoNodeObserver* observer) { observers_.add(observer); }
  /// Detaches every observer.
  void clear_observers() { observers_.clear(); }

  [[nodiscard]] int node_id() const { return node_id_; }
  [[nodiscard]] Disk& disk() { return disk_; }
  [[nodiscard]] const Disk& disk() const { return disk_; }
  /// Power policy attached to the disk; nullptr for PolicyKind::kNone.
  [[nodiscard]] PowerPolicy* policy() { return policy_.get(); }
  [[nodiscard]] StorageCache& cache() { return cache_; }
  [[nodiscard]] const StorageCache& cache() const { return cache_; }
  [[nodiscard]] const IoNodeConfig& config() const { return cfg_; }

  /// Accrues the disk's trailing energy and gathers statistics.
  IoNodeStats finalize();

  /// `finalize()` into caller-owned storage: `out`'s histogram keeps its
  /// bucket allocation, so repeated finalizes through a workspace allocate
  /// nothing.
  void finalize_into(IoNodeStats& out);

  /// Restores the node for a new run under (possibly changed) `cfg`.  The
  /// same-shape parts reset in place without allocating — cache (same
  /// geometry), disk, policy (same kind + tuning); a genuine shape change
  /// (cache geometry, policy kind/tuning) rebuilds just the changed
  /// component.  Must run after the owning simulator's reset.  Observers
  /// are not touched; the driver re-installs them per run.
  void reset(const IoNodeConfig& cfg, std::uint64_t seed);

 private:
  /// Submits one disk request per cache block that [offset, offset+size)
  /// touches.  A valid `join` gets one arrival registered per request; an
  /// invalid one makes the requests fire-and-forget.
  void issue_disk_requests(Bytes offset, Bytes size, bool is_write,
                           JoinId join, bool background = false);
  void prefetch_after_miss(Bytes block_offset);

  Simulator& sim_;
  IoNodeConfig cfg_;
  int node_id_;
  ObserverList<IoNodeObserver> observers_;
  StorageCache cache_;
  Disk disk_;
  std::unique_ptr<PowerPolicy> policy_;
  JoinPool join_pool_;
};

}  // namespace dasched
