// The classic binary heap over (time, seq) — the differential-test oracle
// for RadixQueue (tests/sim/queue_differential_test.cc).
//
// Every event key is unique, so any correct priority queue pops the
// identical sequence; a heap is the simplest such queue, which is what
// makes it a trustworthy reference.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "sim/radix_queue.h"

namespace dasched {

class BinaryHeapQueue {
 public:
  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }
  [[nodiscard]] const QueuedEvent& top() const { return heap_.front(); }

  void push(const QueuedEvent& e) {
    heap_.push_back(e);
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  void pop() {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }

 private:
  /// `a` fires later than `b`: the max-heap on "later" is a min-queue.
  struct Later {
    bool operator()(const QueuedEvent& a, const QueuedEvent& b) const {
      return event_before(b, a);
    }
  };
  std::vector<QueuedEvent> heap_;
};

}  // namespace dasched
