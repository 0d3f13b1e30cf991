// Cache/striping accounting (invariant 4 of the audit catalog).
//
// Taps both the client-level router and every I/O node.  On each routed
// request the stripe math is re-derived: the pieces must tile the byte range
// exactly, stay inside single stripes, land on the round-robin node that
// `StripingMap::node_of_stripe` names, and point into allocated node-local
// space.  Per node, the observed hit/miss/prefetch/disk-op streams must
// reconcile with the `CacheStats` and disk counters the node reports at
// finalize, and no node may deliver more requests than were routed to it.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>

#include "check/audit.h"
#include "storage/io_node.h"
#include "storage/storage_system.h"
#include "storage/striping.h"
#include "util/annotations.h"

namespace dasched {

class DASCHED_OBSERVER_PASSIVE StorageAccountingCheck final
    : public InvariantCheck,
                                     public IoNodeObserver,
                                     public StorageObserver {
 public:
  /// `striping` enables the per-request stripe-math re-derivation; without it
  /// (standalone I/O-node tests) only the per-node ledgers are checked.
  explicit StorageAccountingCheck(SimAuditor& auditor,
                                  const StripingMap* striping = nullptr)
      : InvariantCheck(auditor), striping_(striping) {}

  [[nodiscard]] const char* name() const override {
    return "storage-accounting";
  }

  // StorageObserver ----------------------------------------------------------
  void on_request_routed(FileId f, Bytes offset, Bytes size, bool is_write,
                         std::span<const StripePiece> pieces) override;

  // IoNodeObserver -----------------------------------------------------------
  void on_read(const IoNode& node, Bytes offset, Bytes size,
               bool background) override;
  void on_write(const IoNode& node, Bytes offset, Bytes size) override;
  void on_block_lookup(const IoNode& node, Bytes block, bool hit) override;
  void on_prefetch_issued(const IoNode& node, Bytes block) override;
  void on_disk_requests_issued(const IoNode& node, std::size_t count) override;
  void on_finalized(const IoNode& node, const IoNodeStats& stats) override;

  void at_end() override;

 private:
  struct NodeLedger {
    std::int64_t hits = 0;
    std::int64_t misses = 0;
    std::int64_t prefetches = 0;
    std::int64_t disk_requests = 0;
    /// Demand (non-background) node-local reads delivered to the node.
    std::int64_t demand_reads = 0;
    std::int64_t background_reads = 0;
    std::int64_t writes = 0;
    /// Blocks touched by writes (upper-bounds write-path insertions).
    std::int64_t write_blocks = 0;
    bool finalized = false;
  };

  struct RoutedLedger {
    std::int64_t read_pieces = 0;
    std::int64_t write_pieces = 0;
  };

  NodeLedger& ledger_for(const IoNode& node) {
    return ledgers_[node.node_id()];
  }

  const StripingMap* striping_;
  std::unordered_map<int, NodeLedger> ledgers_;
  std::unordered_map<int, RoutedLedger> routed_;
  bool routing_seen_ = false;
};

}  // namespace dasched
