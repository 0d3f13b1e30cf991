#include "storage/striping.h"

#include <cassert>

namespace dasched {

StripingMap::StripingMap(int num_io_nodes, Bytes stripe_size)
    : num_nodes_(num_io_nodes),
      stripe_size_(stripe_size),
      next_free_(static_cast<std::size_t>(num_io_nodes), 0) {
  assert(num_io_nodes > 0 && stripe_size > 0);
}

FileId StripingMap::create_file(std::string name, Bytes size) {
  assert(size > 0);
  FileInfo fi;
  fi.name = std::move(name);
  fi.size = size;
  fi.base_node = static_cast<int>(files_.size()) % num_nodes_;
  fi.node_base.assign(static_cast<std::size_t>(num_nodes_), 0);

  const std::int64_t num_stripes = (size + stripe_size_ - 1) / stripe_size_;
  for (int d = 0; d < num_nodes_; ++d) {
    // Count of this file's stripes living on node d.
    const int first = ((d - fi.base_node) % num_nodes_ + num_nodes_) % num_nodes_;
    const std::int64_t count =
        first >= num_stripes ? 0 : (num_stripes - first + num_nodes_ - 1) / num_nodes_;
    fi.node_base[static_cast<std::size_t>(d)] = next_free_[static_cast<std::size_t>(d)];
    next_free_[static_cast<std::size_t>(d)] += count * stripe_size_;
  }
  files_.push_back(std::move(fi));
  return static_cast<FileId>(files_.size() - 1);
}

const StripingMap::FileInfo& StripingMap::info(FileId f) const {
  assert(f >= 0 && static_cast<std::size_t>(f) < files_.size());
  return files_[static_cast<std::size_t>(f)];
}

const std::string& StripingMap::file_name(FileId f) const { return info(f).name; }

Bytes StripingMap::file_size(FileId f) const { return info(f).size; }

int StripingMap::node_of_stripe(FileId f, std::int64_t index) const {
  return (info(f).base_node + static_cast<int>(index % num_nodes_)) % num_nodes_;
}

Signature StripingMap::signature(FileId f, Bytes offset, Bytes size) const {
  Signature sig(num_nodes_);
  const std::int64_t first = offset / stripe_size_;
  const std::int64_t last = (offset + size - 1) / stripe_size_;
  // Consecutive stripes land on consecutive nodes mod num_nodes, so the
  // touched set is a cyclic run starting at the first stripe's node: walk
  // min(stripes, num_nodes) nodes instead of every stripe (a span covering
  // >= num_nodes stripes touches all nodes — the old early exit, closed
  // form).
  const std::int64_t stripes = last - first + 1;
  const int run = stripes >= num_nodes_ ? num_nodes_ : static_cast<int>(stripes);
  int node = node_of_stripe(f, first);
  for (int k = 0; k < run; ++k) {
    sig.set(node);
    node += 1;
    if (node == num_nodes_) node = 0;
  }
  return sig;
}

Bytes StripingMap::allocated_on(int node) const {
  assert(node >= 0 && node < num_nodes_);
  return next_free_[static_cast<std::size_t>(node)];
}

}  // namespace dasched
