#include "core/scheduling_table.h"

#include <algorithm>

namespace dasched {

SchedulingTable::SchedulingTable(const std::vector<ScheduledAccess>& scheduled) {
  int max_process = -1;
  for (const auto& s : scheduled) max_process = std::max(max_process, s.process);
  offsets_.assign(static_cast<std::size_t>(max_process) + 2, 0u);
  for (const auto& s : scheduled) ++offsets_[static_cast<std::size_t>(s.process) + 1];
  for (std::size_t p = 1; p < offsets_.size(); ++p) offsets_[p] += offsets_[p - 1];

  rows_.resize(scheduled.size());
  std::vector<std::uint32_t> fill(offsets_.begin(), offsets_.end() - 1);
  for (std::uint32_t i = 0; i < scheduled.size(); ++i) {
    rows_[fill[static_cast<std::size_t>(scheduled[i].process)]++] = i;
  }
  const auto by_slot_then_id = [&scheduled](std::uint32_t a, std::uint32_t b) {
    const ScheduledAccess& x = scheduled[a];
    const ScheduledAccess& y = scheduled[b];
    if (x.slot != y.slot) return x.slot < y.slot;
    return x.id < y.id;
  };
  for (std::size_t p = 0; p + 1 < offsets_.size(); ++p) {
    std::sort(rows_.begin() + offsets_[p], rows_.begin() + offsets_[p + 1],
              by_slot_then_id);
  }
}

std::span<const std::uint32_t> SchedulingTable::entries(int process) const {
  if (process < 0 || process >= num_processes()) return {};
  const auto p = static_cast<std::size_t>(process);
  return std::span<const std::uint32_t>(rows_).subspan(
      offsets_[p], offsets_[p + 1] - offsets_[p]);
}

}  // namespace dasched
