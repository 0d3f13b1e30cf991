// Scheduling tables — the artifact the compiler hands to the runtime.
//
// After the scheduling algorithms pick a point for every access, the results
// are organized per process: for each client process, the ordered rows of
// the placement vector its runtime scheduler thread walks as the process
// advances through its iterations.  The table copies no access.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/access.h"

namespace dasched {

class SchedulingTable {
 public:
  SchedulingTable() = default;

  /// Indexes `scheduled` by process: one counting pass, then each process's
  /// rows sorted by (slot, access id).  The table refers to `scheduled` by
  /// position, so it is valid for that vector (or a copy of it) only.
  explicit SchedulingTable(const std::vector<ScheduledAccess>& scheduled);

  /// Rows of one process, ordered by (slot, access id).  Empty for
  /// processes with no scheduled accesses.
  [[nodiscard]] std::span<const std::uint32_t> entries(int process) const;

  [[nodiscard]] int num_processes() const {
    return offsets_.empty() ? 0 : static_cast<int>(offsets_.size() - 1);
  }

  [[nodiscard]] std::int64_t total_entries() const {
    return static_cast<std::int64_t>(rows_.size());
  }

 private:
  /// Every row, grouped by process: process p's are
  /// rows_[offsets_[p] .. offsets_[p + 1]).
  std::vector<std::uint32_t> rows_;
  std::vector<std::uint32_t> offsets_;
};

}  // namespace dasched
