// File striping across I/O nodes (Fig. 1).
//
// The parallel file system divides every file into fixed-size stripes and
// distributes them round-robin over the I/O nodes, each file starting at a
// per-file base node.  `StripingMap` is a pure mapping shared by the
// compiler (to build access signatures) and the storage system (to route
// requests); it also hands out deterministic node-local disk offsets through
// a per-node bump allocator.  The router walks accesses with the zero-
// allocation `for_each_piece` visitor.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

#include "core/signature.h"
#include "util/units.h"

namespace dasched {

using FileId = int;

struct StripePiece {
  int io_node = 0;
  /// Node-local byte offset assigned to this stripe.
  Bytes node_offset = 0;
  /// Byte range of the original request covered by this piece.
  Bytes length = 0;
};

class StripingMap {
 public:
  StripingMap(int num_io_nodes, Bytes stripe_size);

  /// Registers a file; stripes are assigned node-local space immediately.
  FileId create_file(std::string name, Bytes size);

  /// Forgets every file and returns all node-local space, keeping the
  /// geometry (node count, stripe size).  File creation is deterministic,
  /// so re-registering the same files after a reset reproduces the exact
  /// same mapping as a fresh construction.  Only called on a workload
  /// change (never on the zero-allocation reuse path).
  void reset() {
    files_.clear();
    std::fill(next_free_.begin(), next_free_.end(), Bytes{0});
  }

  [[nodiscard]] int num_io_nodes() const { return num_nodes_; }
  [[nodiscard]] Bytes stripe_size() const { return stripe_size_; }
  [[nodiscard]] const std::string& file_name(FileId f) const;
  [[nodiscard]] Bytes file_size(FileId f) const;

  /// I/O node holding stripe `index` of file `f`.
  [[nodiscard]] int node_of_stripe(FileId f, std::int64_t index) const;

  /// Visits the per-stripe pieces of a byte-range access in file order,
  /// without materializing them.  The range must lie inside the file.
  template <typename Visitor>
  void for_each_piece(FileId f, Bytes offset, Bytes size, Visitor&& visit) const {
    const FileInfo& fi = info(f);
    assert(offset >= 0 && size > 0 && offset + size <= fi.size);
    Bytes pos = offset;
    const Bytes end = offset + size;
    while (pos < end) {
      const std::int64_t stripe = pos / stripe_size_;
      const Bytes in_stripe = pos % stripe_size_;
      const Bytes piece = std::min(end - pos, stripe_size_ - in_stripe);
      const int node = node_of_stripe(f, stripe);
      // Stripe k of this file is the (k / num_nodes)-th of the file's
      // stripes on its node (round-robin places exactly one stripe per node
      // per round).
      const Bytes local = fi.node_base[static_cast<std::size_t>(node)] +
                          (stripe / num_nodes_) * stripe_size_ + in_stripe;
      visit(StripePiece{node, local, piece});
      pos += piece;
    }
  }

  /// Signature of the I/O nodes a byte-range access touches — the quantity
  /// the compiler attaches to every access record.
  [[nodiscard]] Signature signature(FileId f, Bytes offset, Bytes size) const;

  /// Total node-local bytes allocated on one I/O node (for capacity checks).
  [[nodiscard]] Bytes allocated_on(int node) const;

 private:
  struct FileInfo {
    std::string name;
    Bytes size = 0;
    int base_node = 0;
    /// Node-local byte offset of this file's first stripe on each node.
    std::vector<Bytes> node_base;
  };

  [[nodiscard]] const FileInfo& info(FileId f) const;

  int num_nodes_;
  Bytes stripe_size_;
  std::vector<FileInfo> files_;
  std::vector<Bytes> next_free_;  // per-node bump allocator
};

}  // namespace dasched
