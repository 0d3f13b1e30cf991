// Monotone radix heap: the simulator's event queue (DESIGN.md §15.2).
//
// The engine pops 24-byte POD `QueuedEvent` entries in the strict total
// order (time, seq).  Every key is unique, so any correct priority queue
// pops the identical sequence (tests/sim/queue_differential_test.cc checks
// this one against a binary heap).
//
// `RadixQueue` is the radix heap of Ahuja, Mehlhorn, Orlin and Tarjan (1990)
// over integer-microsecond times.  Bucket 0 holds the entries at the base
// time; bucket b >= 1 those whose highest bit differing from the base is
// bit b - 1, so each bucket's entries precede all entries above it.  Entries
// of one time share a bucket, a bucket receives relinked entries only while
// it is empty, and every push appends the largest seq so far: each bucket
// lists a tie in seq order, and bucket 0 pops FIFO.  A push below the base
// (possible only after `top()` re-based without a pop) re-buckets the queue.
#pragma once

#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "util/annotations.h"
#include "util/units.h"

namespace dasched {

/// One queued event: fire time, total-order key (the scheduling counter),
/// and the pooled record slot holding the callback.  24 bytes, trivially
/// copyable.
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

class RadixQueue {
 public:
  /// Sizes the node arena for `n` outstanding entries: the only allocation
  /// the queue ever makes.
  void reserve(std::size_t n) {
    // dasched-lint: allow(hot-alloc): grow-only warm-up (high-water-mark)
    nodes_.reserve(n);
  }

  /// Drops every entry and re-bases on 0, keeping the arena's capacity.
  void clear() {
    for (Bucket& b : buckets_) b.head = kNone;
    occupied_ = 0;
    base_ = 0;
    nodes_.clear();
    free_head_ = kNone;
    size_ = 0;
  }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  /// The minimum-key entry; re-bases when bucket 0 is empty.  Undefined
  /// when the queue is empty.
  DASCHED_HOT const QueuedEvent& top() {
    assert(size_ > 0);
    if (buckets_[0].head == kNone) rebase();
    return nodes_[static_cast<std::size_t>(buckets_[0].head)].ev;
  }

  DASCHED_HOT void push(const QueuedEvent& e) {
    if (e.time < base_) lower_base(e.time);
    ++size_;
    std::int32_t i = free_head_;
    if (i != kNone) {
      free_head_ = nodes_[static_cast<std::size_t>(i)].next;
      nodes_[static_cast<std::size_t>(i)].ev = e;
    } else {
      i = static_cast<std::int32_t>(nodes_.size());
      // dasched-lint: allow(hot-alloc): growth only past the topology
      // pre-reserve (Simulator::reserve_events); steady state never grows.
      nodes_.push_back(Node{e, kNone});
    }
    file(i);
  }

  /// Removes `top()`.  Call `top()` first: only it re-bases.
  DASCHED_HOT void pop() {
    assert(size_ > 0 && buckets_[0].head != kNone);
    Bucket& b0 = buckets_[0];
    const std::int32_t i = b0.head;
    b0.head = nodes_[static_cast<std::size_t>(i)].next;
    nodes_[static_cast<std::size_t>(i)].next = free_head_;
    free_head_ = i;
    --size_;
  }

 private:
  static constexpr std::int32_t kNone = -1;
  static constexpr int kBuckets = 65;  // bucket 0 plus one per key bit

  /// An arena node: one entry threaded into its bucket's FIFO list (`next`
  /// doubles as the free-list link while the node is unused).
  struct Node {
    QueuedEvent ev;
    std::int32_t next;
  };

  /// A FIFO list of nodes and its earliest time (valid while non-empty).
  struct Bucket {
    std::int32_t head = kNone;
    std::int32_t tail = kNone;
    SimTime min{};
  };

  [[nodiscard]] int bucket_of(SimTime t) const {
    assert(t >= base_);
    return std::bit_width(static_cast<std::uint64_t>(t.count()) ^
                          static_cast<std::uint64_t>(base_.count()));
  }

  /// Appends node `i` to the tail of its bucket.
  DASCHED_HOT void file(std::int32_t i) {
    Node& n = nodes_[static_cast<std::size_t>(i)];
    n.next = kNone;
    const int k = bucket_of(n.ev.time);
    Bucket& b = buckets_[static_cast<std::size_t>(k)];
    if (b.head == kNone) {
      b.head = i;
      b.min = n.ev.time;
      if (k > 0) occupied_ |= std::uint64_t{1} << (k - 1);
    } else {
      nodes_[static_cast<std::size_t>(b.tail)].next = i;
      if (n.ev.time < b.min) b.min = n.ev.time;
    }
    b.tail = i;
  }

  /// Refiles every node of the list at `head`, in list order.
  void refile(std::int32_t head) {
    for (std::int32_t i = head; i != kNone;) {
      const std::int32_t next = nodes_[static_cast<std::size_t>(i)].next;
      file(i);
      i = next;
    }
  }

  /// Bucket 0 is empty: move the base up to the earliest entry.  Every
  /// bucket below the lowest occupied one is empty, so the relinked entries
  /// land only in empty buckets and keep their list order.
  DASCHED_HOT void rebase() {
    const int k = std::countr_zero(occupied_) + 1;
    Bucket& b = buckets_[static_cast<std::size_t>(k)];
    base_ = b.min;
    occupied_ &= occupied_ - 1;  // clears bit k - 1, the lowest set
    const std::int32_t head = b.head;
    b.head = kNone;
    refile(head);
  }

  /// A push earlier than the base: re-bucket every entry against `t`.
  /// Entries of one time all leave one bucket in seq order, so they arrive
  /// in seq order.  O(size), and no entry to move on an empty queue.
  void lower_base(SimTime t) {
    std::array<std::int32_t, kBuckets> heads{};
    for (std::size_t k = 0; k < kBuckets; ++k) {
      heads[k] = buckets_[k].head;
      buckets_[k].head = kNone;
    }
    occupied_ = 0;
    base_ = t;
    for (const std::int32_t head : heads) refile(head);
  }

  std::array<Bucket, kBuckets> buckets_{};
  std::uint64_t occupied_ = 0;  // bit k - 1 set while bucket k >= 1 is not
  SimTime base_{};
  std::vector<Node> nodes_;  // every entry + the intrusive free list
  std::int32_t free_head_ = kNone;
  std::size_t size_ = 0;
};

}  // namespace dasched
