// Blocked SCAN/elevator request queue for the disk model.
//
// The index is a sequence of 16-byte (offset, slot) entries kept in offset
// order, cut into blocks of at most `kBlockEntries`.  A small ordered
// directory holds each block's id and its last offset; requests live in a
// pooled slab addressed by `slot`.  A push lands after the last entry of
// equal offset, so insertion position alone keeps FIFO order among equal
// offsets — the order `std::multimap` iterates — and `take_next` applies
// the SCAN pick rules to that sequence, so the sweep picks bit-identically
// the same request as a sorted flat index or a multimap would.  A push or
// take shifts at most one block's entries; a full block splits in half and
// an emptied block returns to the pool.  Blocks, directory, slab and free
// lists all recycle their storage — steady-state pushes and takes never
// allocate.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <vector>

#include "util/annotations.h"
#include "util/units.h"

namespace dasched {

template <typename Request>
class ElevatorQueue {
 public:
  static constexpr std::uint32_t kBlockEntries = 64;

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Drops every queued request, keeping block, directory, slab and
  /// free-list capacity warm.  Picks depend only on the offset order and the
  /// arrival order among equal offsets, so a cleared queue picks exactly
  /// like a fresh one.
  void clear() {
    for (const DirEntry& d : dir_) free_blocks_.push_back(d.block);
    dir_.clear();
    slab_.clear();
    free_slots_.clear();
    size_ = 0;
  }

  /// Enqueues a request keyed by its disk offset, after every queued
  /// request of equal offset (FIFO among equal offsets).
  DASCHED_HOT void push(Bytes offset, Request req) {
    std::uint32_t slot;
    if (!free_slots_.empty()) {
      slot = free_slots_.back();
      free_slots_.pop_back();
      slab_[slot] = std::move(req);
    } else {
      slot = static_cast<std::uint32_t>(slab_.size());
      // dasched-lint: allow(hot-alloc): slab growth is cold-path; slots
      // recycle, so steady-state pushes reuse free_slots_.
      slab_.push_back(std::move(req));
    }
    if (dir_.empty()) {
      // dasched-lint: allow(hot-alloc): directory growth is bounded by the
      // block high-water mark; the directory keeps its capacity.
      dir_.push_back(DirEntry{offset, acquire_block()});
    }
    // The first block whose last offset exceeds `offset` holds the
    // insertion point; past every block, the entry appends to the last.
    std::size_t k = static_cast<std::size_t>(
        std::partition_point(dir_.begin(), dir_.end(),
                             [offset](const DirEntry& d) { return d.last <= offset; }) -
        dir_.begin());
    if (k == dir_.size()) --k;
    std::uint32_t pos = upper_in(blocks_[dir_[k].block], offset);
    if (blocks_[dir_[k].block].count == kBlockEntries) {
      split(k);
      constexpr std::uint32_t kHalf = kBlockEntries / 2;
      if (pos > kHalf) {
        ++k;
        pos -= kHalf;
      }
    }
    Block& b = blocks_[dir_[k].block];
    std::copy_backward(b.entries.begin() + pos, b.entries.begin() + b.count,
                       b.entries.begin() + b.count + 1);
    b.entries[pos] = Entry{offset, slot};
    ++b.count;
    dir_[k].last = b.entries[b.count - 1].offset;
    ++size_;
  }

  /// Removes and returns the next request of a SCAN sweep from `head`:
  /// sweeping up, the first request at or above `head`, reversing to the
  /// last request when none is; sweeping down, the first request at `head`
  /// if one is there, else the last request below it, reversing to the
  /// first request when none is below.  Flips `sweep_up` at a reversal.
  DASCHED_HOT Request take_next(Bytes head, bool& sweep_up) {
    assert(!empty());
    // Lower bound of `head`: block k, entry i; k == dir_.size() past the end.
    std::size_t k = static_cast<std::size_t>(
        std::partition_point(dir_.begin(), dir_.end(),
                             [head](const DirEntry& d) { return d.last < head; }) -
        dir_.begin());
    const bool past_end = k == dir_.size();
    std::uint32_t i = past_end ? 0 : lower_in(blocks_[dir_[k].block], head);
    if (sweep_up) {
      if (past_end) {
        sweep_up = false;
        k = dir_.size() - 1;
        i = blocks_[dir_[k].block].count - 1;
      }
    } else if (k == 0 && i == 0) {
      sweep_up = true;
    } else if (past_end || blocks_[dir_[k].block].entries[i].offset > head) {
      if (i > 0) {
        --i;
      } else {
        --k;
        i = blocks_[dir_[k].block].count - 1;
      }
    }
    return take_at(k, i);
  }

 private:
  struct Entry {
    Bytes offset;
    std::uint32_t slot;
  };
  static_assert(sizeof(Entry) == 16);

  struct Block {
    std::uint32_t count = 0;
    std::array<Entry, kBlockEntries> entries{};
  };

  struct DirEntry {
    Bytes last;  // offset of the block's last entry
    std::uint32_t block;
  };

  static std::uint32_t upper_in(const Block& b, Bytes offset) {
    const auto end = b.entries.begin() + b.count;
    return static_cast<std::uint32_t>(
        std::upper_bound(b.entries.begin(), end, offset,
                         [](Bytes off, const Entry& e) { return off < e.offset; }) -
        b.entries.begin());
  }

  static std::uint32_t lower_in(const Block& b, Bytes offset) {
    const auto end = b.entries.begin() + b.count;
    return static_cast<std::uint32_t>(
        std::lower_bound(b.entries.begin(), end, offset,
                         [](const Entry& e, Bytes off) { return e.offset < off; }) -
        b.entries.begin());
  }

  std::uint32_t acquire_block() {
    if (!free_blocks_.empty()) {
      const std::uint32_t id = free_blocks_.back();
      free_blocks_.pop_back();
      blocks_[id].count = 0;
      return id;
    }
    const auto id = static_cast<std::uint32_t>(blocks_.size());
    // dasched-lint: allow(hot-alloc): block-pool growth is cold-path;
    // emptied blocks return to free_blocks_, whose capacity is reserved
    // here so releasing never grows it.
    blocks_.emplace_back();
    // dasched-lint: allow(hot-alloc): see above.
    free_blocks_.reserve(blocks_.capacity());
    return id;
  }

  /// Moves the upper half of the full block at directory position `k` into
  /// a new block inserted at `k + 1`.
  void split(std::size_t k) {
    constexpr std::uint32_t kHalf = kBlockEntries / 2;
    const std::uint32_t right = acquire_block();
    Block& l = blocks_[dir_[k].block];
    Block& r = blocks_[right];
    std::copy(l.entries.begin() + kHalf, l.entries.end(), r.entries.begin());
    r.count = kBlockEntries - kHalf;
    l.count = kHalf;
    const DirEntry upper{dir_[k].last, right};
    dir_[k].last = l.entries[kHalf - 1].offset;
    // dasched-lint: allow(hot-alloc): directory growth is bounded by the
    // block high-water mark; the directory keeps its capacity.
    dir_.insert(dir_.begin() + static_cast<std::ptrdiff_t>(k) + 1, upper);
  }

  /// Removes entry `i` of the block at directory position `k`, releasing
  /// the block when it empties, and returns its request.
  Request take_at(std::size_t k, std::uint32_t i) {
    const std::uint32_t id = dir_[k].block;
    Block& b = blocks_[id];
    assert(i < b.count);
    const std::uint32_t slot = b.entries[i].slot;
    std::copy(b.entries.begin() + i + 1, b.entries.begin() + b.count,
              b.entries.begin() + i);
    --b.count;
    if (b.count == 0) {
      dir_.erase(dir_.begin() + static_cast<std::ptrdiff_t>(k));
      // dasched-lint: allow(hot-alloc): capacity reserved on block growth.
      free_blocks_.push_back(id);
    } else {
      dir_[k].last = b.entries[b.count - 1].offset;
    }
    --size_;
    Request out = std::move(slab_[slot]);
    // dasched-lint: allow(hot-alloc): free-list growth is bounded by the
    // slab high-water mark; steady state recycles capacity.
    free_slots_.push_back(slot);
    return out;
  }

  std::vector<Block> blocks_;  // pool; ids index it
  std::vector<std::uint32_t> free_blocks_;
  std::vector<DirEntry> dir_;  // blocks in offset order
  std::vector<Request> slab_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t size_ = 0;
};

}  // namespace dasched
