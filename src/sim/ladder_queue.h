// Tiered timestamp event queue for the simulator hot core (DESIGN.md §15).
//
// The event engine pops 24-byte POD `QueuedEvent` entries in the strict
// total order (time, seq).  Because every key is unique, ANY correct
// priority queue pops the identical sequence — which is what lets the
// tiered `LadderQueue` below replace the binary heap bit-identically
// (proved by tests/sim/queue_differential_test.cc and the hexfloat probe).
//
// `LadderQueue` keeps three tiers, nearest-first:
//
//   bottom  — a sorted ring of the nearest events (ascending by key, popped
//             from the head).  Small queues live here entirely: pop is a
//             pointer bump and the common timer-chain insert is an O(1)
//             append at the tail, which is where the >=1.15x win over the
//             heap on BM_EventCoreTimerChains comes from.
//   rungs   — up to kMaxRungs bucket arrays, each subdividing one parent
//             bucket (or the initial top span) into kBucketsPerRung
//             equal-width time slices.  A bucket is an intrusive singly
//             linked list threaded through one shared node arena, so an
//             insert is O(1), spawning a finer rung is pure relinking, and
//             the arena's capacity — bounded by the peak number of
//             rung-resident events — is the only allocation the tier can
//             ever make.  Buckets are only sorted when they become the
//             nearest work.
//   top     — an unsorted overflow list for the far future, consumed
//             wholesale into a fresh rung when the ladder drains.
//
// Tier boundaries are *inclusive time* bounds (`bot_last_`, per-rung
// `last`), so a tie group can never straddle a boundary and the seq
// tie-break always resolves inside one tier.  The ladder is the only
// product queue; the classic binary heap it replaced survives as the
// differential-test oracle (tests/sim/binary_heap_queue.h), and the
// heap-vs-ladder measurement is recorded in BENCH_event_queue.json.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <type_traits>
#include <vector>

#include "util/annotations.h"
#include "util/units.h"

namespace dasched {

/// One queued event: fire time, total-order key (the scheduling counter),
/// and the pooled record slot holding the callback.  24 bytes, trivially
/// copyable — the queues move these with memmove.
struct QueuedEvent {
  SimTime time;
  std::uint64_t seq;
  std::uint32_t slot;
};
static_assert(sizeof(QueuedEvent) == 24);
static_assert(std::is_trivially_copyable_v<QueuedEvent>);

/// The strict total order every queue implementation must realize.
[[nodiscard]] inline bool event_before(const QueuedEvent& a,
                                       const QueuedEvent& b) {
  if (a.time != b.time) return a.time < b.time;
  return a.seq < b.seq;
}

class LadderQueue {
 public:
  /// Buckets per rung: each spawn subdivides a time span 64-fold.
  static constexpr int kBucketsPerRung = 64;
  /// Rung recursion cap; at the cap an oversized bucket is sorted whole.
  static constexpr int kMaxRungs = 8;
  /// A bucket larger than this spawns a finer rung instead of sorting.
  static constexpr std::size_t kBucketSortMax = 16;
  /// Bottom size that triggers a spill of its far tail into the top tier.
  /// Deliberately small: a sorted ring pays O(len) memmove per mid-ring
  /// insert, so interleaved timer chains (the 64-chain microbench shape)
  /// only beat the heap when the ring stays a couple of cache lines long
  /// and the rung buckets absorb everything behind it at O(1).
  static constexpr std::size_t kBottomSpill = 48;
  /// Entries the bottom keeps (at least) when spilling.
  static constexpr std::size_t kBottomKeep = 16;

  void reserve(std::size_t n) {
    // Each tier alone can hold all n outstanding events (one giant tie
    // group in the bottom, everything far-future in the top, everything
    // mid-range in the rung arena), so size each for n.
    // dasched-lint: allow(hot-alloc): grow-only warm-up (high-water-mark)
    bot_.reserve(n + 1);
    // dasched-lint: allow(hot-alloc): grow-only warm-up (high-water-mark)
    top_.reserve(n);
    // dasched-lint: allow(hot-alloc): grow-only warm-up (high-water-mark)
    arena_.reserve(n);
  }

  /// Drops every entry and re-arms the small-queue fast path, keeping all
  /// tier capacity (ring, arena, top) warm.  The internal tier placement of
  /// subsequently pushed events never affects pop order — keys are unique
  /// and every tier realizes the same (time, seq) total order — so a
  /// cleared queue is observably identical to a fresh one.
  void clear() {
    bot_.clear();
    bot_head_ = 0;
    bot_last_ = SimTime::max();
    num_rungs_ = 0;
    arena_.clear();
    free_head_ = -1;
    top_.clear();
    top_min_ = SimTime::max();
    top_max_ = SimTime::min();
    size_ = 0;
  }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  /// The minimum-key entry.  O(1) and const: the bottom tier is non-empty
  /// whenever the queue is (pop refills eagerly).  Undefined when empty.
  [[nodiscard]] const QueuedEvent& top() const { return bot_[bot_head_]; }

  DASCHED_HOT void push(const QueuedEvent& e) {
    ++size_;
    if (e.time <= bot_last_) {
      bottom_insert(e);
      return;
    }
    // Finest rung first: rung ranges tile [bot_last_+1, coarsest.last]
    // contiguously, nearest range in the highest-numbered rung.
    for (int k = num_rungs_; k-- > 0;) {
      Rung& r = rungs_[static_cast<std::size_t>(k)];
      if (e.time <= r.last) {
        const auto b = static_cast<std::size_t>((e.time - r.start) / r.width);
        assert(b < static_cast<std::size_t>(kBucketsPerRung));
        const std::int32_t node = alloc_node(e);
        arena_[static_cast<std::size_t>(node)].next = r.heads[b];
        r.heads[b] = node;
        ++r.counts[b];
        ++r.count;
        return;
      }
    }
    if (top_.empty() || e.time < top_min_) top_min_ = e.time;
    if (top_.empty() || e.time > top_max_) top_max_ = e.time;
    // dasched-lint: allow(hot-alloc): growth only past the topology
    // pre-reserve (Simulator::reserve_events); steady state never grows.
    top_.push_back(e);
  }

  DASCHED_HOT void pop() {
    assert(size_ > 0);
    --size_;
    ++bot_head_;
    if (bot_head_ == bot_.size()) {
      bot_.clear();
      bot_head_ = 0;
      if (size_ > 0) {
        refill();
      } else {
        reset_empty();
      }
    } else if (bot_head_ >= kBottomKeep && bot_head_ * 2 >= bot_.size()) {
      // Amortized-O(1) compaction: each erase moves at most as many
      // entries as pops occurred since the last one.
      bot_.erase(bot_.begin(),
                 bot_.begin() + static_cast<std::ptrdiff_t>(bot_head_));
      bot_head_ = 0;
    }
  }

  // --- introspection (tests/sim/ladder_queue_test.cc) -----------------------
  [[nodiscard]] int num_rungs() const { return num_rungs_; }
  [[nodiscard]] std::size_t bottom_size() const {
    return bot_.size() - bot_head_;
  }
  [[nodiscard]] std::size_t top_size() const { return top_.size(); }
  [[nodiscard]] std::size_t arena_capacity() const {
    return arena_.capacity();
  }

  /// Test-only validation of the tier invariants; aborts on violation.
  /// Checks unconditionally (not assert-based) so Release-built tests —
  /// the tier-1 configuration — still exercise it.
  void validate() const {
    const auto check = [](bool ok, const char* what) {
      if (!ok) {
        std::fprintf(stderr, "LadderQueue::validate: %s\n", what);
        std::abort();
      }
    };
    std::size_t total = bottom_size() + top_.size();
    for (std::size_t i = bot_head_ + 1; i < bot_.size(); ++i) {
      check(event_before(bot_[i - 1], bot_[i]), "bottom out of order");
    }
    if (num_rungs_ > 0 || !top_.empty()) {
      for (std::size_t i = bot_head_; i < bot_.size(); ++i) {
        check(bot_[i].time <= bot_last_, "bottom entry past its bound");
      }
    }
    SimTime lower = bot_last_;
    for (int k = num_rungs_; k-- > 0;) {
      const Rung& r = rungs_[static_cast<std::size_t>(k)];
      std::size_t count = 0;
      for (int b = 0; b < kBucketsPerRung; ++b) {
        std::size_t in_bucket = 0;
        for (std::int32_t i = r.heads[static_cast<std::size_t>(b)]; i >= 0;
             i = arena_[static_cast<std::size_t>(i)].next) {
          const QueuedEvent& e = arena_[static_cast<std::size_t>(i)].ev;
          check(e.time > lower && e.time <= r.last, "rung entry misfiled");
          check((e.time - r.start) / r.width == b, "wrong bucket");
          ++in_bucket;
        }
        check(in_bucket == r.counts[static_cast<std::size_t>(b)],
              "bucket count out of sync");
        count += in_bucket;
      }
      check(count == r.count, "rung count out of sync");
      total += count;
      lower = r.last;
    }
    for (const QueuedEvent& e : top_) {
      check(e.time > lower, "top entry under the ladder span");
      check(e.time >= top_min_ && e.time <= top_max_, "top bounds stale");
    }
    check(total == size_, "tier sizes out of sync");
  }

 private:
  /// Arena node: one rung-resident event threaded into its bucket's list
  /// (`next` doubles as the free-list link when the node is unused).
  struct Node {
    QueuedEvent ev;
    std::int32_t next;
  };

  struct Rung {
    SimTime start;  // time of bucket 0
    SimTime last;   // inclusive last covered time
    SimTime width;  // bucket width (>= 1)
    int cur = 0;    // first unconsumed bucket
    std::size_t count = 0;
    std::array<std::int32_t, kBucketsPerRung> heads;
    std::array<std::uint32_t, kBucketsPerRung> counts;
  };

  [[nodiscard]] std::size_t bottom_len() const {
    return bot_.size() - bot_head_;
  }

  DASCHED_HOT std::int32_t alloc_node(const QueuedEvent& e) {
    std::int32_t i = free_head_;
    if (i >= 0) {
      free_head_ = arena_[static_cast<std::size_t>(i)].next;
    } else {
      i = static_cast<std::int32_t>(arena_.size());
      // dasched-lint: allow(hot-alloc): arena growth is bounded by the peak
      // rung-resident event count, below the Simulator::reserve_events
      // pre-reserve; steady state never grows.
      arena_.push_back(Node{});
    }
    arena_[static_cast<std::size_t>(i)].ev = e;
    return i;
  }

  void free_node(std::int32_t i) {
    arena_[static_cast<std::size_t>(i)].next = free_head_;
    free_head_ = i;
  }

  void bottom_insert(const QueuedEvent& e) {
    if (bot_head_ == bot_.size() || event_before(bot_.back(), e)) {
      // dasched-lint: allow(hot-alloc): growth only past the topology
      // pre-reserve (Simulator::reserve_events); steady state never grows.
      bot_.push_back(e);  // the timer-chain common case: new maximum
      maybe_spill();
      return;
    }
    const auto first = bot_.begin() + static_cast<std::ptrdiff_t>(bot_head_);
    const auto pos = std::lower_bound(first, bot_.end(), e, event_before);
    if (bot_head_ > 0 && pos - first <= bot_.end() - pos) {
      // The head side is shorter and has slack: shift it down one slot.
      std::move(first, pos, first - 1);
      --bot_head_;
      *(pos - 1) = e;
    } else {
      // dasched-lint: allow(hot-alloc): growth only past the topology
      // pre-reserve (Simulator::reserve_events); steady state never grows.
      bot_.insert(pos, e);
    }
    maybe_spill();
  }

  /// Moves the bottom's far tail into the top tier when it outgrows the
  /// ring.  Only legal with no active rungs (the moved entries must stay
  /// above every tier boundary); with rungs active the bottom is naturally
  /// bounded by one bucket span.  The cut is advanced to a time boundary so
  /// no tie group straddles the new bound.
  void maybe_spill() {
    if (num_rungs_ != 0 || bottom_len() <= kBottomSpill) return;
    std::size_t cut = bot_head_ + kBottomKeep;
    while (cut < bot_.size() && bot_[cut].time == bot_[cut - 1].time) ++cut;
    if (cut == bot_.size()) return;  // one giant tie group: nothing to move
    if (top_.empty()) {
      top_min_ = bot_[cut].time;
      top_max_ = bot_.back().time;
    } else {
      // Existing top entries all lie above the old bottom bound, hence
      // above everything being moved.
      if (bot_[cut].time < top_min_) top_min_ = bot_[cut].time;
    }
    const auto cut_it = bot_.begin() + static_cast<std::ptrdiff_t>(cut);
    // dasched-lint: allow(hot-alloc): growth only past the topology
    // pre-reserve (Simulator::reserve_events); steady state never grows.
    top_.insert(top_.end(), cut_it, bot_.end());
    bot_.erase(cut_it, bot_.end());
    bot_last_ = bot_.back().time;
  }

  /// Bottom drained with events remaining: move the globally nearest batch
  /// into it.  Every loop iteration either fills the bottom and returns, or
  /// strictly shrinks the structure it recursed into (collapses an empty
  /// rung, spawns a finer rung from one bucket, or converts the top).
  DASCHED_HOT void refill() {
    for (;;) {
      if (num_rungs_ > 0) {
        Rung& r = rungs_[static_cast<std::size_t>(num_rungs_ - 1)];
        if (r.count == 0) {
          bot_last_ = r.last;  // boundary moves up to the collapsed span
          --num_rungs_;
          continue;
        }
        while (r.heads[static_cast<std::size_t>(r.cur)] < 0) ++r.cur;
        const auto cur = static_cast<std::size_t>(r.cur);
        const std::int32_t head = r.heads[cur];
        const std::size_t n = r.counts[cur];
        const SimTime b_first = r.start + r.width * r.cur;
        const SimTime b_last = std::min(b_first + r.width - SimTime{1}, r.last);
        r.heads[cur] = -1;
        r.counts[cur] = 0;
        r.count -= n;
        ++r.cur;
        if (n > kBucketSortMax && b_last > b_first && num_rungs_ < kMaxRungs) {
          spawn_rung_from_list(head, n, b_first, b_last);
          continue;
        }
        for (std::int32_t i = head; i >= 0;) {
          // dasched-lint: allow(hot-alloc): growth only past the topology
          // pre-reserve (Simulator::reserve_events); steady state never
          // grows.
          bot_.push_back(arena_[static_cast<std::size_t>(i)].ev);
          const std::int32_t nxt = arena_[static_cast<std::size_t>(i)].next;
          free_node(i);
          i = nxt;
        }
        std::sort(bot_.begin(), bot_.end(), event_before);
        bot_last_ = b_last;
        return;
      }
      assert(!top_.empty() && "refill with nothing left outside the bottom");
      if (top_.size() <= kBucketSortMax || top_min_ == top_max_) {
        // dasched-lint: allow(hot-alloc): growth only past the topology
        // pre-reserve (Simulator::reserve_events); steady state never grows.
        bot_.insert(bot_.end(), top_.begin(), top_.end());
        std::sort(bot_.begin(), bot_.end(), event_before);
        bot_last_ = top_max_;
        top_.clear();
        return;
      }
      spawn_rung_from_top();
    }
  }

  /// Activates the next rung over the inclusive span [first, last] with
  /// empty buckets.  Returns it for the caller to fill.
  Rung& spawn_rung(SimTime first, SimTime last) {
    assert(num_rungs_ < kMaxRungs);
    assert(last > first && "a one-time span is sorted, never subdivided");
    Rung& r = rungs_[static_cast<std::size_t>(num_rungs_++)];
    const auto span = static_cast<std::uint64_t>(last.count()) -
                      static_cast<std::uint64_t>(first.count()) + 1;
    r.start = first;
    r.last = last;
    r.width = SimTime{static_cast<std::int64_t>(
        (span + kBucketsPerRung - 1) / kBucketsPerRung)};
    r.cur = 0;
    r.count = 0;
    r.heads.fill(-1);
    r.counts.fill(0);
    return r;
  }

  /// Subdivides a parent bucket (already unlinked by the caller) into a
  /// fresh rung by relinking its nodes — no allocation, no copies.
  void spawn_rung_from_list(std::int32_t head, std::size_t n, SimTime first,
                            SimTime last) {
    Rung& r = spawn_rung(first, last);
    r.count = n;
    for (std::int32_t i = head; i >= 0;) {
      Node& node = arena_[static_cast<std::size_t>(i)];
      const std::int32_t nxt = node.next;
      const auto b =
          static_cast<std::size_t>((node.ev.time - r.start) / r.width);
      node.next = r.heads[b];
      r.heads[b] = i;
      ++r.counts[b];
      i = nxt;
    }
  }

  /// Converts the far-future top tier into the first rung.
  void spawn_rung_from_top() {
    Rung& r = spawn_rung(top_min_, top_max_);
    r.count = top_.size();
    for (const QueuedEvent& e : top_) {
      const auto b = static_cast<std::size_t>((e.time - r.start) / r.width);
      const std::int32_t node = alloc_node(e);
      arena_[static_cast<std::size_t>(node)].next = r.heads[b];
      r.heads[b] = node;
      ++r.counts[b];
    }
    top_.clear();
  }

  /// The queue just drained completely: re-arm the small-queue fast path
  /// (everything below the open bound goes straight to the sorted ring).
  /// A fully-drained rung can still be structurally active here — refill
  /// only collapses rungs when it runs — so discard any leftovers; a stale
  /// active rung would disable maybe_spill() for the rest of the queue's
  /// life.
  void reset_empty() {
    assert(top_.empty() && "drained queue with far-future entries left");
    num_rungs_ = 0;
    bot_last_ = SimTime::max();
  }

  std::vector<QueuedEvent> bot_;  // ascending; live entries at [bot_head_..)
  std::size_t bot_head_ = 0;
  /// Inclusive time bound of the bottom tier; max() = "bottom takes all".
  SimTime bot_last_ = SimTime::max();
  std::array<Rung, kMaxRungs> rungs_;  // [0..num_rungs_) active, 0 coarsest
  int num_rungs_ = 0;
  std::vector<Node> arena_;  // rung-resident nodes + intrusive free list
  std::int32_t free_head_ = -1;
  std::vector<QueuedEvent> top_;  // unsorted far future
  SimTime top_min_ = SimTime::max();
  SimTime top_max_ = SimTime::min();
  std::size_t size_ = 0;
};

}  // namespace dasched
