#include "check/schedule_check.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <sstream>

namespace dasched {

void ScheduleConsistencyCheck::validate(const Compiled& compiled,
                                        const CompileOptions& opts,
                                        const StripingMap& striping) {
  if (!opts.enable_scheduling) {
    // A baseline compile keeps no records: analyze a handle copy of its
    // plan, so the audit checks the slacks a scheme-on compile would place.
    CompiledProgram program = compiled.program;
    analyze_slacks(program, striping, opts.slack);
    check_records(program.reads, program.num_slots);
    return;  // no placements, no table
  }
  const std::vector<AccessRecord>& reads = compiled.program.reads;
  check_records(reads, compiled.program.num_slots);
  if (compiled.scheduled.size() != reads.size()) {
    std::ostringstream os;
    os << compiled.scheduled.size() << " placements for " << reads.size()
       << " reads: row i must place read i";
    fail(0, os.str());
    return;
  }
  check_placements(reads, compiled.scheduled, compiled.program.num_slots);
  check_double_booking(reads, compiled.scheduled);
  check_theta(reads, compiled.scheduled, opts.sched, compiled.sched_stats);
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
    const std::vector<AccessRecord>& records,
    const std::vector<ScheduledAccess>& scheduled, Slot num_slots) {
  for (std::size_t i = 0; i < scheduled.size(); ++i) {
    const ScheduledAccess& s = scheduled[i];
    const AccessRecord& rec = records[i];
    evaluated();
    std::ostringstream os;
    if (s.id != rec.id) {
      os << "row " << i << " places access #" << s.id
         << " but holds the record of access #" << rec.id;
      fail(0, os.str());
      continue;
    }
    if (s.forced) {
      if (s.slot != rec.original) {
        os << "forced access #" << s.id << " sits at slot " << s.slot
           << " instead of its original point " << rec.original;
        fail(0, os.str());
      }
      continue;
    }
    if (s.slot < rec.begin || s.slot > rec.latest_start()) {
      os << "access #" << s.id << " scheduled at slot " << s.slot
         << " outside its slack [" << rec.begin << ", " << rec.latest_start()
         << "]";
      fail(0, os.str());
    } else if (num_slots > 0 &&
               (s.slot < 0 || s.slot + rec.length > num_slots)) {
      os << "access #" << s.id << " occupies [" << s.slot << ", "
         << s.slot + rec.length - 1 << "], beyond the " << num_slots
         << "-slot table";
      fail(0, os.str());
    }
  }
}

void ScheduleConsistencyCheck::check_double_booking(
    const std::vector<AccessRecord>& records,
    const std::vector<ScheduledAccess>& scheduled) {
  // Per process: which access occupies each slot.  Forced pins are exempt —
  // a forced access genuinely shares its original slot (the whole slack was
  // occupied), and the scheduler marks it as such.
  std::map<int, std::map<Slot, int>> occupancy;
  for (std::size_t i = 0; i < scheduled.size(); ++i) {
    const ScheduledAccess& s = scheduled[i];
    if (s.forced) continue;
    auto& slots = occupancy[s.process];
    for (int k = 0; k < records[i].length; ++k) {
      evaluated();
      const auto [it, inserted] = slots.emplace(s.slot + k, s.id);
      if (!inserted) {
        std::ostringstream os;
        os << "process " << s.process << " slot " << s.slot + k
           << " double-booked by accesses #" << it->second << " and #"
           << s.id;
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
    const std::vector<AccessRecord>& records,
    const std::vector<ScheduledAccess>& scheduled, const ScheduleOptions& opts,
    const ScheduleStats& stats) {
  if (opts.theta <= 0 || scheduled.empty()) return;
  // Final per-(slot, node) counts.  When the scheduler reported neither
  // fallbacks nor forced pins, every placement passed theta_ok against a
  // subset of these counts, so the cap must hold exactly.  Otherwise each
  // over-cap unit must be attributable to a fallback/forced access.
  std::map<std::pair<Slot, int>, std::int64_t> counts;
  std::int64_t worst_per_access = 0;
  for (std::size_t i = 0; i < scheduled.size(); ++i) {
    const Slot slot = scheduled[i].slot;
    const AccessRecord& rec = records[i];
    worst_per_access = std::max(
        worst_per_access, static_cast<std::int64_t>(rec.length) *
                              static_cast<std::int64_t>(rec.sig.popcount()));
    for (int k = 0; k < rec.length; ++k) {
      rec.sig.for_each_node(
          [&counts, slot, k](int node) { counts[{slot + k, node}] += 1; });
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
      if (e.id != static_cast<int>(row)) {
        std::ostringstream os;
        os << "row " << row << " holds access #" << e.id
           << ": the runtime reads row i as access i";
        fail(0, os.str());
      }
      if (e.process != p) {
        std::ostringstream os;
        os << "access #" << e.id << " of process " << e.process
           << " filed under process " << p;
        fail(0, os.str());
      }
      if (seen[row]++ != 0) {
        std::ostringstream os;
        os << "access #" << e.id << " appears twice in the table";
        fail(0, os.str());
      }
      if (prev != nullptr && (prev->slot > e.slot ||
                              (prev->slot == e.slot && prev->id >= e.id))) {
        std::ostringstream os;
        os << "process " << p << " table out of (slot, id) order at access #"
           << e.id;
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
