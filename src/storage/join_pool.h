// Pooled completion barriers for the storage data path.
//
// A join fires its completion once every registered sub-operation (plus the
// issuer's guard) has arrived.  The records live in a recycled slot array
// mirroring the simulator's event pool: steady-state request fan-out costs
// zero heap allocations, and the 8-byte generation-counted `JoinId` rides
// inline inside `EventFn` captures where a `shared_ptr<Join>` used to force
// a control block per request.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "sim/event_fn.h"

namespace dasched {

/// Generation-counted handle into a `JoinPool`.  Trivially copyable; a
/// default-constructed id is invalid (used for fire-and-forget operations).
struct JoinId {
  std::uint32_t slot = kInvalidSlot;
  std::uint32_t gen = 0;

  static constexpr std::uint32_t kInvalidSlot = 0xffffffffU;

  [[nodiscard]] explicit operator bool() const { return slot != kInvalidSlot; }
};

class JoinPool {
 public:
  JoinPool() = default;
  JoinPool(const JoinPool&) = delete;
  JoinPool& operator=(const JoinPool&) = delete;

  /// Opens a join holding `done` with the issuer's guard as the only
  /// outstanding arrival.  Balance with a final `arrive` once all
  /// sub-operations are registered.
  JoinId open(EventFn done) {
    const std::uint32_t slot = acquire_slot();
    Record& rec = records_[slot];
    rec.done = std::move(done);
    rec.outstanding = 1;
    return JoinId{slot, rec.gen};
  }

  /// Registers one more arrival the join must wait for.
  void add(JoinId id) {
    Record& rec = live(id);
    rec.outstanding += 1;
  }

  /// One arrival happened; at zero outstanding the completion fires and the
  /// record is recycled (before the callback runs — it may re-enter the
  /// pool).
  void arrive(JoinId id) {
    Record& rec = live(id);
    if (--rec.outstanding > 0) return;
    EventFn done = std::move(rec.done);
    rec.done = EventFn();
    ++rec.gen;
    // dasched-lint: allow(hot-alloc): free-list capacity is bounded by the
    // pool high-water mark.
    free_slots_.push_back(id.slot);
    if (done) done();
  }

  /// A callback that arrives at `id` when it runs.  It captures only the
  /// pool and the id, so it always rides inline in an `EventFn`.
  [[nodiscard]] auto arrival(JoinId id) {
    auto arrive_fn = [this, id] { arrive(id); };
    static_assert(EventFn::fits_inline<decltype(arrive_fn)>);
    return arrive_fn;
  }

  /// Joins currently open (test/debug aid).
  [[nodiscard]] std::size_t live_count() const {
    return records_.size() - free_slots_.size();
  }

  /// Restores the fresh-pool state while keeping slot capacity: drops any
  /// joins left open by an interrupted run, bumps every generation so stale
  /// JoinIds captured in cancelled events can never alias a new join, and
  /// rebuilds the free list in descending order — the next run then acquires
  /// slot 0, 1, ... exactly like a freshly grown pool.
  void reset() {
    free_slots_.clear();
    for (std::size_t i = records_.size(); i-- > 0;) {
      Record& rec = records_[i];
      rec.done = EventFn();
      rec.outstanding = 0;
      ++rec.gen;
      // dasched-lint: allow(hot-alloc): free-list capacity matches the pool
      // high-water mark after the first full drain.
      free_slots_.push_back(static_cast<std::uint32_t>(i));
    }
  }

 private:
  struct Record {
    EventFn done;
    int outstanding = 0;
    std::uint32_t gen = 0;
  };

  std::uint32_t acquire_slot() {
    if (!free_slots_.empty()) {
      const std::uint32_t slot = free_slots_.back();
      free_slots_.pop_back();
      return slot;
    }
    // dasched-lint: allow(hot-alloc): join-pool growth; slots recycle, so
    // steady state allocates nothing.
    records_.emplace_back();
    return static_cast<std::uint32_t>(records_.size() - 1);
  }

  Record& live(JoinId id) {
    assert(id && id.slot < records_.size());
    Record& rec = records_[id.slot];
    assert(rec.gen == id.gen && "stale JoinId");
    return rec;
  }

  std::vector<Record> records_;
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace dasched
