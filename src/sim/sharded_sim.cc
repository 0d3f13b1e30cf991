#include "sim/sharded_sim.h"

#include <algorithm>
#include <limits>
#include <thread>
#include <utility>

namespace dasched {

std::vector<std::vector<int>> assign_lanes(int num_streams, int shards,
                                           const std::vector<double>& costs) {
  assert(num_streams >= 1 && shards >= 1);
  std::vector<std::vector<int>> owned(static_cast<std::size_t>(shards));
  owned[0].push_back(0);  // lane 0 always runs on the driving worker
  const auto cost_of = [&costs](int s) {
    return static_cast<std::size_t>(s) < costs.size()
               ? costs[static_cast<std::size_t>(s)]
               : 1.0;
  };
  // Greedy LPT: heaviest lane first onto the least-loaded worker, every tie
  // broken by index so the map is a pure function of (topology, costs).
  std::vector<int> order;
  order.reserve(static_cast<std::size_t>(num_streams - 1));
  for (int s = 1; s < num_streams; ++s) order.push_back(s);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    if (cost_of(a) != cost_of(b)) return cost_of(a) > cost_of(b);
    return a < b;
  });
  std::vector<double> load(static_cast<std::size_t>(shards), 0.0);
  load[0] = cost_of(0);  // lane 0's pinned weight counts toward worker 0
  for (int s : order) {
    std::size_t w = 0;
    for (std::size_t k = 1; k < load.size(); ++k) {
      if (load[k] < load[w]) w = k;
    }
    owned[w].push_back(s);
    load[w] += cost_of(s);
  }
  // Keep each worker's execution order by stream id: determinism does not
  // need it (event keys decide), but deterministic iteration is free and
  // keeps diagnostics stable.
  for (auto& lanes : owned) std::sort(lanes.begin(), lanes.end());
  return owned;
}

ShardedSimulator::ShardedSimulator(ShardedSimConfig cfg) : cfg_(std::move(cfg)) {
  assert(cfg_.num_streams >= 1 && "need at least the client stream");
  assert(cfg_.shards >= 1 && "need at least one worker");
  assert(cfg_.lookahead > SimTime{0} &&
         "conservative windows need a positive lookahead");
  lanes_.reserve(static_cast<std::size_t>(cfg_.num_streams));
  for (int s = 0; s < cfg_.num_streams; ++s) {
    lanes_.push_back(std::make_unique<Simulator>());
    lanes_.back()->set_stream(static_cast<std::uint32_t>(s));
  }
  to_node_.resize(lanes_.size());
  to_client_.resize(lanes_.size());

  // The lane→worker map is a pure wall-clock concern — any assignment
  // yields identical results (tests/driver/shard_differential_test.cc
  // proves it across worker counts).
  owned_ = assign_lanes(cfg_.num_streams, cfg_.shards, cfg_.lane_costs);
  lane_worker_.assign(lanes_.size(), 0);
  for (std::size_t w = 0; w < owned_.size(); ++w) {
    for (int s : owned_[w]) {
      lane_worker_[static_cast<std::size_t>(s)] = static_cast<int>(w);
    }
  }

  lane_next_.assign(lanes_.size(), SimTime::max());
  lane_touched_.assign(lanes_.size(), 0);
  mail_flags_.assign(
      static_cast<std::size_t>(cfg_.shards) * static_cast<std::size_t>(cfg_.shards) * 2,
      0);
  workers_.resize(static_cast<std::size_t>(cfg_.shards));
  tournament_.reset(lanes_.size());
}

void ShardedSimulator::post(int from, int to, SimTime t, EventFn fn) {
  assert(from >= 0 && from < num_streams() && to >= 0 && to < num_streams());
  assert(from != to && (from == 0 || to == 0) &&
         "cross-shard traffic is client <-> node only");
  assert(t >= lane(from).now() + cfg_.lookahead &&
         "cross-shard send violates the lookahead bound");
  const std::uint64_t seq = lane(from).take_send_seq();
  const int sender_w = lane_worker_[static_cast<std::size_t>(from)];
  const int receiver_w = lane_worker_[static_cast<std::size_t>(to)];
  if (sender_w == receiver_w) {
    // Same-worker fast path: inject past the mailbox.  `t` is at or beyond
    // the current window end (the lookahead bound above), so the event
    // cannot run inside this window — it lands in the receiver's queue in
    // exactly the position the drain would have given it next window, and
    // the (time, seq) key keeps the merged order identical.  At shards=1
    // this is every send, which is most of the protocol tax.
    lane(to).inject(t, seq, std::move(fn));
    lane_touched_[static_cast<std::size_t>(to)] = 1;
    return;
  }
  Mailbox& box = to == 0 ? to_client_[static_cast<std::size_t>(from)]
                         : to_node_[static_cast<std::size_t>(to)];
  // dasched-lint: allow(hot-alloc): mailbox vectors retain their capacity
  // across windows (clear() on drain), so steady state allocates nothing.
  box.buf[write_parity_].push_back(MailEntry{t, seq, std::move(fn)});
  WorkerState& ws = workers_[static_cast<std::size_t>(sender_w)];
  if (t < ws.out_mail_min[write_parity_]) ws.out_mail_min[write_parity_] = t;
  set_mail_flag(sender_w, receiver_w, write_parity_, true);
}

void ShardedSimulator::init_window_state() {
  for (std::size_t s = 0; s < lanes_.size(); ++s) {
    lane_next_[s] = lanes_[s]->next_event_time();
    lane_touched_[s] = 0;
    tournament_.update(s, lane_next_[s]);
  }
  // Re-derive the mailbox bookkeeping from the actual buffer contents: an
  // early stop returns from the barrier before the pending parity drains,
  // so a rerun on the same instance must not trust the minima/flags the
  // previous run left behind.
  std::fill(mail_flags_.begin(), mail_flags_.end(), 0);
  for (WorkerState& ws : workers_) {
    ws.dirty.clear();
    ws.out_mail_min[0] = SimTime::max();
    ws.out_mail_min[1] = SimTime::max();
  }
  const auto account = [this](int from, int to, const Mailbox& box) {
    const int sender_w = lane_worker_[static_cast<std::size_t>(from)];
    const int receiver_w = lane_worker_[static_cast<std::size_t>(to)];
    WorkerState& ws = workers_[static_cast<std::size_t>(sender_w)];
    for (int p = 0; p < 2; ++p) {
      if (box.buf[p].empty()) continue;
      for (const MailEntry& e : box.buf[p]) {
        if (e.time < ws.out_mail_min[p]) ws.out_mail_min[p] = e.time;
      }
      set_mail_flag(sender_w, receiver_w, p, true);
    }
  };
  for (int s = 1; s < num_streams(); ++s) {
    account(0, s, to_node_[static_cast<std::size_t>(s)]);
    account(s, 0, to_client_[static_cast<std::size_t>(s)]);
  }
}

void ShardedSimulator::plan() noexcept {
  // Runs on exactly one thread while every worker is blocked in the
  // barrier, so it may read all per-worker state without synchronization
  // (the barrier provides the happens-before edges both ways).
  drain_parity_ = write_parity_;
  if (failed_.load(std::memory_order_relaxed)) {
    stop_ = true;
    return;
  }
  if (stop_when_ != nullptr && (*stop_when_)()) {
    stop_ = true;
    return;
  }
  // Fold the lanes whose next-event time changed last window into the
  // tournament; everything else is still current.
  for (WorkerState& ws : workers_) {
    for (int s : ws.dirty) {
      tournament_.update(static_cast<std::size_t>(s),
                         lane_next_[static_cast<std::size_t>(s)]);
    }
    ws.dirty.clear();
  }
  // The parity drained last window is about to become the write side
  // again; its buffers are empty, so its minima reset with them — and the
  // reset must precede the minimum below, or a stale min from mail that
  // already drained would key a spurious extra window.  (On the stop paths
  // above the reset is skipped; init_window_state() re-derives everything
  // from the buffers at the next run.)
  for (WorkerState& ws : workers_) {
    ws.out_mail_min[1 - write_parity_] = SimTime::max();
  }
  // Undrained mailbox entries count too: with every lane queue empty an
  // in-flight cross-shard event is still pending work, not a deadlock.
  // The senders' running minima stand in for scanning the buffers; only
  // the write parity can hold entries now, so counting both parities costs
  // nothing and keeps the plan honest against whatever init_window_state()
  // re-derived after an early-stopped previous run.
  SimTime m = tournament_.min();
  for (const WorkerState& ws : workers_) {
    m = std::min({m, ws.out_mail_min[0], ws.out_mail_min[1]});
  }
  assert(m == debug_min_pending_time() && "incremental minimum drifted");
  if (m == std::numeric_limits<SimTime>::max()) {
    // Fully drained without satisfying the stop predicate: the caller's
    // deadlock handling (run_experiment's "clients are stuck") takes over.
    deadlocked_ = true;
    stop_ = true;
    return;
  }
  window_end_ = m + cfg_.lookahead;
  write_parity_ = 1 - write_parity_;
  ++windows_run_;
}

SimTime ShardedSimulator::debug_min_pending_time() const {
  SimTime m = std::numeric_limits<SimTime>::max();
  for (const auto& l : lanes_) m = std::min(m, l->next_event_time());
  for (const auto* boxes : {&to_node_, &to_client_}) {
    for (const Mailbox& box : *boxes) {
      for (const auto& buf : box.buf) {
        for (const MailEntry& e : buf) m = std::min(m, e.time);
      }
    }
  }
  return m;
}

void ShardedSimulator::drain_worker(int worker) {
  // Skip the whole drain pass unless some sender flagged mail for this
  // worker in the drain parity; the flag bytes are single-writer per
  // window (senders set the write parity, we clear the drain parity).
  bool any = false;
  for (int s = 0; s < cfg_.shards; ++s) {
    if (mail_flag(s, worker, drain_parity_)) {
      any = true;
      set_mail_flag(s, worker, drain_parity_, false);
    }
  }
  if (!any) return;
  const auto drain_box = [this](int stream, Mailbox& box) {
    auto& buf = box.buf[drain_parity_];
    if (buf.empty()) return;
    Simulator& l = lane(stream);
    SimTime& next = lane_next_[static_cast<std::size_t>(stream)];
    for (MailEntry& e : buf) {
      // Fold the mail into the cached next-event time as it lands, so the
      // run gate below sees an exact value.  Mail can sit below window_end_
      // — precisely when it was the minimum the planner keyed the window on
      // (window_end_ = mail time + lookahead, e.g. an idle node taking its
      // first request) — and a stale cache would skip the lane, running the
      // event one window late and breaking the exact window sequence.
      if (e.time < next) next = e.time;
      l.inject(e.time, e.seq, std::move(e.fn));
    }
    buf.clear();
    lane_touched_[static_cast<std::size_t>(stream)] = 1;
  };
  for (int stream : owned_[static_cast<std::size_t>(worker)]) {
    if (stream == 0) {
      // Inbound responses, in node order — the injection order is
      // irrelevant for the queue (keys decide), but keep it deterministic
      // anyway.
      for (int s = 1; s < num_streams(); ++s) {
        drain_box(0, to_client_[static_cast<std::size_t>(s)]);
      }
    } else {
      drain_box(stream, to_node_[static_cast<std::size_t>(stream)]);
    }
  }
}

void ShardedSimulator::run_worker_window(int worker) {
  const std::vector<int>& mine = owned_[static_cast<std::size_t>(worker)];
  drain_worker(worker);
  for (int stream : mine) {
    // The cached next-event time is exact — the owner refreshed it at the
    // end of the last window and drain_worker just folded in any injected
    // mail — so lanes with nothing inside the window are skipped without
    // touching their queue memory.
    if (lane_next_[static_cast<std::size_t>(stream)] < window_end_) {
      lane_touched_[static_cast<std::size_t>(stream)] = 1;
      lane(stream).run_window(window_end_);
    }
  }
  // Refresh the cache for every lane that ran, drained mail, or took a
  // same-worker inject, and queue the change for the planner's tournament.
  WorkerState& ws = workers_[static_cast<std::size_t>(worker)];
  for (int stream : mine) {
    const auto s = static_cast<std::size_t>(stream);
    if (lane_touched_[s] != 0) {
      lane_touched_[s] = 0;
      lane_next_[s] = lanes_[s]->next_event_time();
      // dasched-lint: allow(hot-alloc): dirty-list capacity is bounded by
      // the worker's lane count.
      ws.dirty.push_back(stream);
    }
  }
}

void ShardedSimulator::worker_main(int worker, WindowBarrier& barrier) {
  for (;;) {
    barrier.arrive_and_wait();  // plan() ran; the window is published
    if (stop_) return;
    if (failed_.load(std::memory_order_relaxed)) continue;
    try {
      run_worker_window(worker);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mu_);
      if (error_ == nullptr) error_ = std::current_exception();
      failed_.store(true, std::memory_order_relaxed);
    }
  }
}

void ShardedSimulator::run_single(const std::function<bool()>& stop_when) {
  // shards=1: every lane lives on worker 0 and every send is a direct
  // inject, so there is no mail, no parity, no barrier — just the window
  // loop over the cached lane times.  The window sequence is identical to
  // the threaded path's because the minimum is computed over the same
  // exact values.
  for (;;) {
    if (stop_when()) return;
    const SimTime m = tournament_.min();
    if (m == std::numeric_limits<SimTime>::max()) {
      deadlocked_ = true;
      return;
    }
    window_end_ = m + cfg_.lookahead;
    ++windows_run_;
    run_worker_window(0);
    WorkerState& ws = workers_[0];
    for (int s : ws.dirty) {
      tournament_.update(static_cast<std::size_t>(s),
                         lane_next_[static_cast<std::size_t>(s)]);
    }
    ws.dirty.clear();
  }
}

SimTime ShardedSimulator::run(const std::function<bool()>& stop_when) {
  stop_when_ = &stop_when;
  stop_ = false;
  deadlocked_ = false;
  windows_run_ = 0;
  failed_.store(false, std::memory_order_relaxed);
  error_ = nullptr;
  init_window_state();

  if (cfg_.shards == 1) {
    try {
      run_single(stop_when);
    } catch (...) {
      error_ = std::current_exception();
    }
  } else {
    WindowBarrier barrier(cfg_.shards, PlanCompletion{this});
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(cfg_.shards - 1));
    for (int w = 1; w < cfg_.shards; ++w) {
      threads.emplace_back([this, w, &barrier] { worker_main(w, barrier); });
    }
    worker_main(0, barrier);
    for (std::thread& t : threads) t.join();
  }
  stop_when_ = nullptr;
  if (error_ != nullptr) std::rethrow_exception(error_);

  // Stamp every lane to the end of the last executed window so trailing
  // idle accrual at finalize is deterministic for every shard count.  When
  // the run stopped before any window, the lanes keep their clocks.
  for (auto& l : lanes_) {
    if (window_end_ > l->now()) l->set_now(window_end_);
  }
  return lane(0).now();
}

void ShardedSimulator::reset() {
  for (auto& l : lanes_) l->reset();
  for (auto* boxes : {&to_node_, &to_client_}) {
    for (Mailbox& box : *boxes) {
      box.buf[0].clear();
      box.buf[1].clear();
    }
  }
  write_parity_ = 1;
  drain_parity_ = 0;
  window_end_ = 0;
  stop_ = false;
  deadlocked_ = false;
  windows_run_ = 0;
  // lane_next_/lane_touched_/tournament_/mail minima/flags are re-derived
  // from the (now empty) buffers by init_window_state() at the next run().
}

std::int64_t ShardedSimulator::events_executed() const {
  std::int64_t total = 0;
  for (const auto& l : lanes_) total += l->events_executed();
  return total;
}

}  // namespace dasched
