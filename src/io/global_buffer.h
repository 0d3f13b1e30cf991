// The client-side global prefetch buffer (Sec. III).
//
// Prefetched data are "stored in a global buffer collectively managed by all
// scheduler threads in the client side".  Entries are keyed by access id —
// each prefetch serves exactly one scheduled future read.  On an application
// hit the entry is invalidated immediately to make space for subsequent
// prefetches; when the buffer is full, scheduler threads stop fetching and
// resume when space frees up.
//
// Access ids are the dense indices of the compiled program's reads, so the
// buffer is a flat id-indexed table rather than a hash map, sized by
// reset() to the program's read count (to none when no scheduler thread
// runs: only prefetches enter it).  It holds state only: who waits for
// space or for an in-flight entry is the cluster's business (io/cluster.h),
// so a release here wakes no one.  After a warm-up run through a workspace
// the buffer performs zero allocations.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "util/units.h"

namespace dasched {

enum class BufferEntryState { kAbsent, kInFlight, kReady, kDone };

struct BufferStats {
  std::int64_t reservations = 0;
  std::int64_t full_rejections = 0;
  std::int64_t consumed = 0;
  /// Application reads that arrived while the prefetch was still in flight.
  std::int64_t consumed_in_flight = 0;
  /// Prefetches that landed after the application had already fetched the
  /// data itself (wasted work).
  std::int64_t wasted = 0;
  Bytes peak_bytes = 0;
};

class GlobalBuffer {
 public:
  /// An empty buffer of no capacity; reset() sizes it.
  GlobalBuffer() = default;

  GlobalBuffer(const GlobalBuffer&) = delete;
  GlobalBuffer& operator=(const GlobalBuffer&) = delete;

  /// Restores the buffer to its fresh state for ids in [0, num_ids).  The
  /// slot table keeps its high-water-mark capacity (it only grows), so a
  /// workspace rerun over the same program allocates nothing here.  Every
  /// id passed to the buffer must lie below a `num_ids` it was reset to.
  void reset(Bytes capacity, std::size_t num_ids);

  /// Reserves space for a prefetch; false when the buffer is full.  In-flight
  /// data counts against capacity.
  bool try_reserve(int access_id, Bytes size);

  /// The prefetch completed.  Returns true when the application had
  /// already overtaken it (see mark_done): the entry is then reclaimed, and
  /// its bytes are free again.
  bool mark_ready(int access_id);

  /// The application consumed the entry (hit) and its bytes are free.
  /// `waited` marks a read that arrived while the prefetch was in flight.
  void consume(int access_id, bool waited = false);

  /// The application handled this access itself (prefetch never issued or
  /// arrived too late to be useful); scheduler threads must skip it.  If a
  /// prefetch for it is still in flight, its bytes are reclaimed when it
  /// lands (see mark_ready).
  void mark_done(int access_id);

  [[nodiscard]] BufferEntryState state(int access_id) const;
  [[nodiscard]] bool is_done(int access_id) const {
    const auto i = static_cast<std::size_t>(access_id);
    assert(i < slots_.size());
    return slots_[i].done;
  }

  [[nodiscard]] Bytes used() const { return used_; }
  [[nodiscard]] Bytes capacity() const { return capacity_; }
  [[nodiscard]] const BufferStats& stats() const { return stats_; }

 private:
  struct Slot {
    BufferEntryState state = BufferEntryState::kAbsent;
    bool done = false;
    Bytes size = 0;
  };

  Slot& slot_for(int access_id) {
    const auto i = static_cast<std::size_t>(access_id);
    assert(i < slots_.size());
    return slots_[i];
  }

  Bytes capacity_ = 0;
  Bytes used_ = 0;
  std::vector<Slot> slots_;
  BufferStats stats_;
};

}  // namespace dasched
