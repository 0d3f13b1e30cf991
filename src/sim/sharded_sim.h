// Intra-run sharded discrete-event execution (DESIGN.md §14, §15.3).
//
// A `ShardedSimulator` partitions one simulation into logical streams, each
// backed by its own `Simulator` lane: stream 0 is the client layer (cluster,
// scheduler threads, global buffer, storage routing), stream 1+i is I/O node
// i with its disks and power policies.  Lanes are mapped onto `shards`
// worker threads and driven in conservative lookahead windows: every worker
// executes its lanes' events inside the window [M, M+L), where M is the
// global minimum pending time and L is the minimum cross-shard latency (one
// network hop).  The only cross-shard traffic — request routing hops and
// join-completion responses — always lands at least L in the future, so a
// window can never miss an incoming event.
//
// Determinism is by construction, not by luck: every event carries the key
// (time, stream, local_seq) — encoded as `(stream << 48) | seq` so the
// existing (time, seq) comparator realizes it — and cross-shard sends
// travel through per-pair single-writer mailboxes that are drained only at
// window barriers.  The per-lane event sequences therefore depend only on
// the topology, never on the worker count or the lane→worker map:
// `shards=1` and `shards=N` produce bit-identical results
// (tests/driver/shard_differential_test.cc).
//
// Window planning is O(changed lanes · log lanes), not O(lanes + mail):
// each worker caches its lanes' next-event times and appends only *changed*
// lanes to a single-writer dirty list; the planner folds those into a
// min-time tournament tree and takes the global minimum in O(1).  Pending
// cross-shard mail is covered by per-worker outbound minima, so mailbox
// contents are never scanned.  Sends whose receiver lane lives on the same
// worker bypass the mailbox entirely and inject directly — at shards=1
// that is *all* traffic, and the whole run degenerates to a barrier-free
// single-thread loop over the cached lane times.  Every shortcut preserves
// the exact window sequence of the naive scan, because each replaces a scan
// with an incrementally maintained copy of the same minimum.
//
// The mailboxes are double-buffered by window parity and their vectors are
// recycled, so the steady-state cross-shard path performs zero heap
// allocations (tests/sim/shard_mailbox_alloc_test.cc).
#pragma once

#include <atomic>
#include <barrier>
#include <cassert>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "sim/simulator.h"
#include "util/annotations.h"
#include "util/units.h"

namespace dasched {

/// Deterministic lane→worker map: returns worker → lanes it executes, every
/// lane exactly once, lane 0 always on worker 0.  Placement is greedy LPT
/// (longest-processing-time-first) over `costs`, one relative weight per
/// stream (empty = uniform): heaviest lane first onto the least-loaded
/// worker.  Lane 0 stays pinned to worker 0 (the driver thread), but its
/// cost counts toward worker 0's load, so node lanes flow to the other
/// workers first.  A pure function of (num_streams, shards, costs) — no
/// measurement feedback — so the map, like everything else, is
/// reproducible.  It is a wall-clock concern only: every placement yields
/// bit-identical results, because event keys decide all ordering.
[[nodiscard]] std::vector<std::vector<int>> assign_lanes(
    int num_streams, int shards, const std::vector<double>& costs);

/// Incremental minimum over per-lane next-event times: a flat segment tree
/// ("tournament") with O(log n) point update and O(1) global min.  Only
/// ever touched single-threaded (the window planner, or the shards=1 loop).
class MinTimeTournament {
 public:
  void reset(std::size_t n) {
    leaves_ = 1;
    while (leaves_ < n) leaves_ <<= 1;
    tree_.assign(2 * leaves_, SimTime::max());
  }

  DASCHED_HOT void update(std::size_t i, SimTime t) {
    std::size_t k = leaves_ + i;
    tree_[k] = t;
    for (k >>= 1; k >= 1; k >>= 1) {
      tree_[k] = std::min(tree_[2 * k], tree_[2 * k + 1]);
    }
  }

  /// Minimum over all slots; SimTime::max() when nothing is pending.
  [[nodiscard]] SimTime min() const { return tree_[1]; }

 private:
  std::size_t leaves_ = 1;
  std::vector<SimTime> tree_ = std::vector<SimTime>(2, SimTime::max());
};

struct ShardedSimConfig {
  /// Logical streams: 1 (client layer) + number of I/O nodes.
  int num_streams = 1;
  /// Worker threads the node lanes are distributed over (>= 1).  Any value
  /// yields the same results; it only changes wall-clock parallelism.
  int shards = 1;
  /// Conservative window length: the minimum latency of any cross-shard
  /// event (one network hop).  Must be positive.
  SimTime lookahead = 0;
  /// Relative per-stream weights for the lane→worker map (empty =
  /// uniform; wall-clock only, results are identical).
  std::vector<double> lane_costs;
};

class ShardedSimulator {
 public:
  explicit ShardedSimulator(ShardedSimConfig cfg);
  ShardedSimulator(const ShardedSimulator&) = delete;
  ShardedSimulator& operator=(const ShardedSimulator&) = delete;

  [[nodiscard]] int num_streams() const {
    return static_cast<int>(lanes_.size());
  }
  [[nodiscard]] int shards() const { return cfg_.shards; }
  [[nodiscard]] SimTime lookahead() const { return cfg_.lookahead; }

  /// The lane backing logical stream `stream` (0 = client layer).
  [[nodiscard]] Simulator& lane(int stream) {
    return *lanes_[static_cast<std::size_t>(stream)];
  }

  /// The worker that executes lane `stream` (tests/sim/sharded_sim_test.cc).
  [[nodiscard]] int lane_worker(int stream) const {
    return lane_worker_[static_cast<std::size_t>(stream)];
  }

  /// Schedules `fn` at absolute time `t` on lane `to`, from lane `from`.
  /// Cross traffic is client <-> node only, and `t` must respect the
  /// lookahead bound (`t >= sender now + lookahead`).  Called only by the
  /// worker that owns lane `from` (single writer per mailbox buffer).
  /// When `to` lives on the same worker the send injects directly — `t` is
  /// at or past the current window end either way, so the event cannot run
  /// early and lands in the identical queue position.
  DASCHED_HOT void post(int from, int to, SimTime t, EventFn fn);

  /// Drives every lane until `stop_when` returns true at a window barrier,
  /// or the whole simulation drains.  `stop_when` runs single-threaded
  /// inside the barrier and must not throw.  After the run every lane's
  /// clock is stamped to the end of the last executed window, so trailing
  /// idle accrual is deterministic and shard-count invariant.  Returns the
  /// final common time.  May be called again on the same instance: mail an
  /// early stop left undrained is re-accounted from the buffers at the
  /// start of the next run.
  SimTime run(const std::function<bool()>& stop_when);

  /// Restores every lane and mailbox to the constructor postcondition while
  /// keeping all capacity warm (lane event pools, mailbox buffers, dirty
  /// lists): lanes are `Simulator::reset()` (stream ids survive), both
  /// parities of every mailbox are cleared, and the window plan state is
  /// re-zeroed.  `run()` re-derives everything else via
  /// `init_window_state()`.  Lane addresses are stable across the reset, so
  /// layer objects holding `Simulator&` stay valid.
  void reset();

  /// True when the last `run` stopped because every lane drained before
  /// `stop_when` was satisfied.
  [[nodiscard]] bool deadlocked() const { return deadlocked_; }

  /// Total events executed across all lanes.
  [[nodiscard]] std::int64_t events_executed() const;

  /// Lookahead windows executed by the last `run` (diagnostics).
  [[nodiscard]] std::int64_t windows_run() const { return windows_run_; }

 private:
  struct MailEntry {
    SimTime time;
    std::uint64_t seq;
    EventFn fn;
  };
  /// One directed channel; double-buffered by window parity so the sender
  /// appends to one buffer while the receiver drains the other.
  struct Mailbox {
    std::vector<MailEntry> buf[2];
  };
  /// Per-worker window-local state, cache-line padded (each cell has
  /// exactly one writer: `worker` during a window, the planner inside the
  /// barrier).
  struct alignas(64) WorkerState {
    /// Minimum time of mail this worker posted into each parity; read by
    /// the planner in place of scanning mailbox contents.
    SimTime out_mail_min[2] = {SimTime::max(), SimTime::max()};
    /// Lanes whose cached next-event time changed this window; folded into
    /// the tournament by the planner, then cleared.
    std::vector<int> dirty;
  };

  /// Barrier completion hook; std::barrier requires a nothrow callable.
  struct PlanCompletion {
    ShardedSimulator* self;
    void operator()() const noexcept { self->plan(); }
  };
  using WindowBarrier = std::barrier<PlanCompletion>;

  void plan() noexcept;  // barrier completion: computes the next window
  void worker_main(int worker, WindowBarrier& barrier);
  void run_single(const std::function<bool()>& stop_when);
  DASCHED_HOT void run_worker_window(int worker);
  void drain_worker(int worker);
  void init_window_state();
  /// Reference O(lanes + mail) scan the incremental minimum is asserted
  /// against in debug builds.
  [[nodiscard]] SimTime debug_min_pending_time() const;
  [[nodiscard]] bool mail_flag(int sender, int receiver, int parity) const {
    return mail_flags_[static_cast<std::size_t>(
               (sender * cfg_.shards + receiver) * 2 + parity)] != 0;
  }
  void set_mail_flag(int sender, int receiver, int parity, bool v) {
    mail_flags_[static_cast<std::size_t>(
        (sender * cfg_.shards + receiver) * 2 + parity)] =
        static_cast<std::uint8_t>(v);
  }

  ShardedSimConfig cfg_;
  std::vector<std::unique_ptr<Simulator>> lanes_;
  /// Inbound mailboxes: client -> node j is `to_node_[j]`, node j -> client
  /// is `to_client_[j]` (index 0 of each is unused padding).
  std::vector<Mailbox> to_node_;
  std::vector<Mailbox> to_client_;
  std::vector<std::vector<int>> owned_;  // worker -> lanes it executes
  std::vector<int> lane_worker_;         // lane -> owning worker

  // --- incremental window-planning state (DESIGN.md §15.3) ----------------
  /// Cached Simulator::next_event_time per lane.  Written only by the
  /// lane's owner (after running / injecting), read by the planner; the
  /// window barrier provides the happens-before edge.
  std::vector<SimTime> lane_next_;
  /// Lane touched this window (ran, drained mail, or took a direct
  /// inject); owner-worker local.
  std::vector<std::uint8_t> lane_touched_;
  /// "Sender worker posted mail for receiver worker in parity p" bytes,
  /// laid out [sender][receiver][parity].  Each byte has one writer per
  /// window (senders set their write-parity byte, receivers clear their
  /// drain-parity byte; the parities never collide within a window).
  std::vector<std::uint8_t> mail_flags_;
  std::vector<WorkerState> workers_;
  MinTimeTournament tournament_;

  // Window plan; written by plan() inside the barrier, read by workers
  // during the window (the barrier provides the ordering).
  int write_parity_ = 1;  // pre-run posts land in parity 1 (window 0 drains it)
  int drain_parity_ = 0;
  SimTime window_end_ = 0;
  bool stop_ = false;
  bool deadlocked_ = false;
  std::int64_t windows_run_ = 0;

  const std::function<bool()>* stop_when_ = nullptr;
  std::atomic<bool> failed_{false};
  std::mutex error_mu_;
  std::exception_ptr error_;
};

}  // namespace dasched
