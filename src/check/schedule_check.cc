#include "check/schedule_check.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <sstream>

namespace dasched {

void ScheduleConsistencyCheck::validate(const Compiled& compiled,
                                        const ScheduleOptions& opts,
                                        bool scheduling_enabled) {
  check_records(compiled.program.reads, compiled.program.num_slots);
  if (!scheduling_enabled) return;  // no placements, no table
  check_placements(compiled.scheduled, compiled.program.num_slots);
  check_double_booking(compiled.scheduled);
  check_theta(compiled.scheduled, opts, compiled.sched_stats);
  check_flags(compiled.scheduled, compiled.sched_stats);
  check_table(compiled.table, compiled.scheduled);
}

void ScheduleConsistencyCheck::check_records(
    const std::vector<AccessRecord>& records, Slot num_slots) {
  for (const AccessRecord& rec : records) {
    evaluated();
    std::ostringstream os;
    if (rec.begin > rec.end) {
      os << "access #" << rec.id << " has slack [" << rec.begin << ", "
         << rec.end << "]: the negative-slack clamp to length 1 was skipped";
    } else if (rec.length < 1) {
      os << "access #" << rec.id << " has non-positive length " << rec.length;
    } else if (rec.begin < 0 || (num_slots > 0 && rec.end >= num_slots)) {
      os << "access #" << rec.id << " slack [" << rec.begin << ", " << rec.end
         << "] leaves the coarsened slot space [0, " << num_slots << ")";
    } else if (rec.original < rec.begin || rec.original > rec.end) {
      os << "access #" << rec.id << " original point " << rec.original
         << " outside its slack [" << rec.begin << ", " << rec.end << "]";
    } else {
      continue;
    }
    fail(0, os.str());
  }
}

void ScheduleConsistencyCheck::check_placements(
    const std::vector<ScheduledAccess>& scheduled, Slot num_slots) {
  for (const ScheduledAccess& s : scheduled) {
    evaluated();
    std::ostringstream os;
    if (s.forced) {
      if (s.slot != s.rec.original) {
        os << "forced access #" << s.rec.id << " sits at slot " << s.slot
           << " instead of its original point " << s.rec.original;
        fail(0, os.str());
      }
      continue;
    }
    if (s.slot < s.rec.begin || s.slot > s.rec.latest_start()) {
      os << "access #" << s.rec.id << " scheduled at slot " << s.slot
         << " outside its slack [" << s.rec.begin << ", "
         << s.rec.latest_start() << "]";
      fail(0, os.str());
    } else if (num_slots > 0 &&
               (s.slot < 0 || s.slot + s.rec.length > num_slots)) {
      os << "access #" << s.rec.id << " occupies [" << s.slot << ", "
         << s.slot + s.rec.length - 1 << "], beyond the " << num_slots
         << "-slot table";
      fail(0, os.str());
    }
  }
}

void ScheduleConsistencyCheck::check_double_booking(
    const std::vector<ScheduledAccess>& scheduled) {
  // Per process: which access occupies each slot.  Forced pins are exempt —
  // a forced access genuinely shares its original slot (the whole slack was
  // occupied), and the scheduler marks it as such.
  std::map<int, std::map<Slot, int>> occupancy;
  for (const ScheduledAccess& s : scheduled) {
    if (s.forced) continue;
    auto& slots = occupancy[s.rec.process];
    for (int k = 0; k < s.rec.length; ++k) {
      evaluated();
      const auto [it, inserted] = slots.emplace(s.slot + k, s.rec.id);
      if (!inserted) {
        std::ostringstream os;
        os << "process " << s.rec.process << " slot " << s.slot + k
           << " double-booked by accesses #" << it->second << " and #"
           << s.rec.id;
        fail(0, os.str());
      }
    }
  }
}

void ScheduleConsistencyCheck::check_flags(
    const std::vector<ScheduledAccess>& scheduled, const ScheduleStats& stats) {
  const auto forced = std::ranges::count_if(
      scheduled, [](const ScheduledAccess& s) { return s.forced; });
  const auto fallbacks = std::ranges::count_if(
      scheduled, [](const ScheduledAccess& s) { return s.theta_fallback; });
  evaluated();
  if (forced != stats.forced) {
    std::ostringstream os;
    os << forced << " access(es) flagged forced, but the scheduler counted "
       << stats.forced;
    fail(0, os.str());
  }
  evaluated();
  if (fallbacks != stats.theta_fallbacks) {
    std::ostringstream os;
    os << fallbacks << " access(es) flagged theta_fallback, but the scheduler "
       << "counted " << stats.theta_fallbacks;
    fail(0, os.str());
  }
}

void ScheduleConsistencyCheck::check_theta(
    const std::vector<ScheduledAccess>& scheduled, const ScheduleOptions& opts,
    const ScheduleStats& stats) {
  if (opts.theta <= 0 || scheduled.empty()) return;
  // Final per-(slot, node) counts.  When the scheduler reported neither
  // fallbacks nor forced pins, every placement passed theta_ok against a
  // subset of these counts, so the cap must hold exactly.  Otherwise each
  // over-cap unit must be attributable to a fallback/forced access.
  std::map<std::pair<Slot, int>, std::int64_t> counts;
  std::int64_t worst_per_access = 0;
  for (const ScheduledAccess& s : scheduled) {
    worst_per_access = std::max(
        worst_per_access, static_cast<std::int64_t>(s.rec.length) *
                              static_cast<std::int64_t>(s.rec.sig.popcount()));
    for (int k = 0; k < s.rec.length; ++k) {
      s.rec.sig.for_each_node(
          [&counts, &s, k](int node) { counts[{s.slot + k, node}] += 1; });
    }
  }
  const std::int64_t excused = stats.theta_fallbacks + stats.forced;
  std::int64_t excess = 0;
  for (const auto& [key, count] : counts) {
    evaluated();
    if (count <= opts.theta) continue;
    excess += count - opts.theta;
    if (excused == 0) {
      std::ostringstream os;
      os << "slot " << key.first << " puts " << count
         << " accesses on I/O node " << key.second << ", over the theta cap of "
         << opts.theta << " with no fallback reported";
      fail(0, os.str());
    }
  }
  evaluated();
  if (excused > 0 && excess > excused * worst_per_access) {
    std::ostringstream os;
    os << "total theta excess " << excess << " cannot be explained by "
       << excused << " fallback/forced placements";
    fail(0, os.str());
  }
}

void ScheduleConsistencyCheck::check_table(
    const SchedulingTable& table, const std::vector<ScheduledAccess>& scheduled) {
  evaluated();
  if (table.total_entries() != static_cast<std::int64_t>(scheduled.size())) {
    std::ostringstream os;
    os << "table holds " << table.total_entries() << " entries for "
       << scheduled.size() << " scheduled accesses";
    fail(0, os.str());
    return;
  }
  // Every row appears exactly once, under its own process, in (slot, id)
  // order, and row i holds access i.
  std::vector<char> seen(scheduled.size(), 0);
  for (int p = 0; p < table.num_processes(); ++p) {
    const ScheduledAccess* prev = nullptr;
    for (const std::uint32_t row : table.entries(p)) {
      evaluated();
      const ScheduledAccess& e = scheduled[row];
      if (e.rec.id != static_cast<int>(row)) {
        std::ostringstream os;
        os << "row " << row << " holds access #" << e.rec.id
           << ": the runtime reads row i as access i";
        fail(0, os.str());
      }
      if (e.rec.process != p) {
        std::ostringstream os;
        os << "access #" << e.rec.id << " of process " << e.rec.process
           << " filed under process " << p;
        fail(0, os.str());
      }
      if (seen[row]++ != 0) {
        std::ostringstream os;
        os << "access #" << e.rec.id << " appears twice in the table";
        fail(0, os.str());
      }
      if (prev != nullptr && (prev->slot > e.slot ||
                              (prev->slot == e.slot && prev->rec.id >= e.rec.id))) {
        std::ostringstream os;
        os << "process " << p << " table out of (slot, id) order at access #"
           << e.rec.id;
        fail(0, os.str());
      }
      prev = &e;
    }
  }
  evaluated();
  const auto missing = std::ranges::count(seen, 0);
  if (missing > 0) {
    std::ostringstream os;
    os << missing << " scheduled access(es) missing from the table";
    fail(0, os.str());
  }
}

}  // namespace dasched
