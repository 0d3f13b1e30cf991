#include "io/global_buffer.h"

#include <algorithm>
#include <cassert>

namespace dasched {

void GlobalBuffer::reset(Bytes capacity, std::size_t num_ids) {
  capacity_ = capacity;
  used_ = 0;
  stats_ = BufferStats{};
  if (slots_.size() < num_ids) slots_.resize(num_ids);
  std::fill(slots_.begin(), slots_.end(), Slot{});
}

bool GlobalBuffer::try_reserve(int access_id, Bytes size) {
  Slot& s = slot_for(access_id);
  assert(s.state == BufferEntryState::kAbsent);
  if (used_ + size > capacity_) {
    stats_.full_rejections += 1;
    return false;
  }
  used_ += size;
  stats_.reservations += 1;
  stats_.peak_bytes = std::max(stats_.peak_bytes, used_);
  s.state = BufferEntryState::kInFlight;
  s.size = size;
  return true;
}

bool GlobalBuffer::mark_ready(int access_id) {
  Slot& s = slot_for(access_id);
  if (s.state == BufferEntryState::kAbsent) return false;  // consumed in flight
  if (s.done) {
    // The application overtook the prefetch with its own demand read; the
    // landed data is useless — reclaim the space.
    used_ -= s.size;
    s.state = BufferEntryState::kAbsent;
    s.size = 0;
    stats_.wasted += 1;
    return true;
  }
  s.state = BufferEntryState::kReady;
  return false;
}

void GlobalBuffer::consume(int access_id, bool waited) {
  Slot& s = slot_for(access_id);
  assert(s.state == BufferEntryState::kReady);
  used_ -= s.size;
  s.state = BufferEntryState::kAbsent;
  s.size = 0;
  s.done = true;
  stats_.consumed += 1;
  if (waited) stats_.consumed_in_flight += 1;
}

void GlobalBuffer::mark_done(int access_id) { slot_for(access_id).done = true; }

BufferEntryState GlobalBuffer::state(int access_id) const {
  const auto i = static_cast<std::size_t>(access_id);
  assert(i < slots_.size());
  const Slot& s = slots_[i];
  if (s.state != BufferEntryState::kAbsent) return s.state;
  return s.done ? BufferEntryState::kDone : BufferEntryState::kAbsent;
}

}  // namespace dasched
