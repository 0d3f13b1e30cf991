#include "check/storage_check.h"

#include <algorithm>
#include <sstream>
#include <vector>

namespace dasched {

void StorageAccountingCheck::on_request_routed(
    FileId f, Bytes offset, Bytes size, bool is_write,
    std::span<const StripePiece> pieces) {
  routing_seen_ = true;
  for (const StripePiece& p : pieces) {
    auto& routed = routed_[p.io_node];
    (is_write ? routed.write_pieces : routed.read_pieces) += 1;
  }
  if (striping_ == nullptr) return;

  evaluated();
  const Bytes stripe = striping_->stripe_size();
  if (offset < 0 || size <= 0 || offset + size > striping_->file_size(f)) {
    std::ostringstream os;
    os << "request [" << offset << ", " << offset + size << ") leaves file "
       << striping_->file_name(f) << " of " << striping_->file_size(f) << " B";
    fail(0, os.str());
    return;
  }

  // Walk the byte range in file order and re-derive where each piece must
  // land; the router hands pieces out in the same order.
  Bytes cur = offset;
  for (const StripePiece& p : pieces) {
    evaluated();
    std::ostringstream os;
    const std::int64_t stripe_index = cur / stripe;
    const Bytes within = cur - stripe_index * stripe;
    if (p.length <= 0 || within + p.length > stripe) {
      os << "piece of " << p.length << " B at file offset " << cur
         << " crosses the " << stripe << " B stripe boundary";
    } else if (p.io_node != striping_->node_of_stripe(f, stripe_index)) {
      os << "stripe " << stripe_index << " of file " << striping_->file_name(f)
         << " routed to I/O node " << p.io_node << "; round-robin places it on node "
         << striping_->node_of_stripe(f, stripe_index);
    } else if (p.node_offset < 0 ||
               p.node_offset + p.length > striping_->allocated_on(p.io_node)) {
      os << "piece points at node-local range [" << p.node_offset << ", "
         << p.node_offset + p.length << ") on node " << p.io_node
         << ", beyond the " << striping_->allocated_on(p.io_node)
         << " B allocated there";
    } else {
      cur += p.length;
      continue;
    }
    fail(0, os.str());
    return;
  }
  evaluated();
  if (cur != offset + size) {
    std::ostringstream os;
    os << "pieces cover " << cur - offset << " B of a " << size << " B request";
    fail(0, os.str());
  }
}

void StorageAccountingCheck::on_read(const IoNode& node, Bytes offset,
                                     Bytes size, bool background) {
  (void)offset, (void)size;
  NodeLedger& ledger = ledger_for(node);
  (background ? ledger.background_reads : ledger.demand_reads) += 1;
}

void StorageAccountingCheck::on_write(const IoNode& node, Bytes offset,
                                      Bytes size) {
  NodeLedger& ledger = ledger_for(node);
  ledger.writes += 1;
  const Bytes bs = node.cache().block_size();
  ledger.write_blocks += (offset + size - 1) / bs - offset / bs + 1;
}

void StorageAccountingCheck::on_block_lookup(const IoNode& node, Bytes block,
                                             bool hit) {
  (void)block;
  NodeLedger& ledger = ledger_for(node);
  (hit ? ledger.hits : ledger.misses) += 1;
}

void StorageAccountingCheck::on_prefetch_issued(const IoNode& node, Bytes block) {
  (void)block;
  ledger_for(node).prefetches += 1;
}

void StorageAccountingCheck::on_disk_requests_issued(const IoNode& node,
                                                     std::size_t count) {
  ledger_for(node).disk_requests += static_cast<std::int64_t>(count);
}

void StorageAccountingCheck::on_finalized(const IoNode& node,
                                          const IoNodeStats& stats) {
  NodeLedger& ledger = ledger_for(node);
  ledger.finalized = true;
  const int id = node.node_id();
  const CacheStats& cache = stats.cache;

  evaluated();
  if (cache.hits != ledger.hits || cache.misses != ledger.misses) {
    std::ostringstream os;
    os << "node " << id << " cache reports " << cache.hits << " hits / "
       << cache.misses << " misses; " << ledger.hits << " / " << ledger.misses
       << " demand lookups were observed";
    fail(0, os.str());
  }
  evaluated();
  if (stats.requests != cache.hits + cache.misses) {
    std::ostringstream os;
    os << "node " << id << " request count " << stats.requests
       << " != hits + misses = " << cache.hits + cache.misses;
    fail(0, os.str());
  }
  evaluated();
  if (stats.disk_requests != ledger.disk_requests) {
    std::ostringstream os;
    os << "node " << id << " disks served " << stats.disk_requests
       << " requests; the node issued " << ledger.disk_requests;
    fail(0, os.str());
  }
  evaluated();
  const std::int64_t live = cache.insertions - cache.evictions - cache.invalidations;
  if (static_cast<std::int64_t>(node.cache().size()) != live ||
      node.cache().size() > node.cache().max_blocks()) {
    std::ostringstream os;
    os << "node " << id << " cache holds " << node.cache().size()
       << " blocks; insertions - evictions - invalidations = " << live
       << " (capacity " << node.cache().max_blocks() << ")";
    fail(0, os.str());
  }
  evaluated();
  if (cache.insertions > ledger.misses + ledger.prefetches + ledger.write_blocks) {
    std::ostringstream os;
    os << "node " << id << " cache absorbed " << cache.insertions
       << " insertions; only " << ledger.misses << " misses + "
       << ledger.prefetches << " prefetches + " << ledger.write_blocks
       << " write blocks could have caused them";
    fail(0, os.str());
  }
}

void StorageAccountingCheck::at_end() {
  if (!routing_seen_) return;
  // Walk nodes in id order so a multi-node failure always produces the
  // same report, whatever the hash iteration order.
  std::vector<int> ids;
  ids.reserve(ledgers_.size());
  // dasched-lint: allow(nondet-unordered-iter): keys are sorted below
  // before any observable output is produced.
  for (const auto& [id, ledger] : ledgers_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  // Deliveries cross the simulated network, so a run cut short may leave
  // routed pieces in flight — delivered <= routed, never the reverse.
  for (const int id : ids) {
    const NodeLedger& ledger = ledgers_.at(id);
    evaluated();
    const auto it = routed_.find(id);
    const RoutedLedger routed = it == routed_.end() ? RoutedLedger{} : it->second;
    const std::int64_t delivered_reads = ledger.demand_reads + ledger.background_reads;
    if (delivered_reads > routed.read_pieces || ledger.writes > routed.write_pieces) {
      std::ostringstream os;
      os << "node " << id << " served " << delivered_reads << " reads / "
         << ledger.writes << " writes but only " << routed.read_pieces << " / "
         << routed.write_pieces << " pieces were routed to it";
      fail(0, os.str());
    }
  }
}

}  // namespace dasched
