#include "core/scheduler.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <numeric>
#include <utility>

namespace dasched {
namespace {

constexpr std::uint32_t kNoClass = std::numeric_limits<std::uint32_t>::max();

std::uint64_t class_hash(const AccessRecord& rec) {
  return rec.sig.hash() ^
         (static_cast<std::uint64_t>(rec.length) * 0x9e3779b97f4a7c15ULL);
}

/// Σ_k sigma[j] · inv_d(t + k) over the window terms inside the timeline,
/// k ascending from −range to l − 1 + range (range = sigma.size() − 1), j
/// the distance of t + k outside [t, t + l − 1].  Every reuse factor is
/// this one sum, so they agree bit for bit.
template <typename InvD>
double window_sum(Slot t, int l, Slot num_slots, std::span<const double> sigma,
                  InvD inv_d) {
  const auto range = static_cast<Slot>(sigma.size()) - 1;
  const Slot k_lo = std::max<Slot>(-range, -t);
  const Slot k_hi = std::min<Slot>(l - 1 + range, num_slots - 1 - t);
  double total = 0.0;
  for (Slot k = k_lo; k <= k_hi; ++k) {
    const Slot j = k < 0 ? -k : (k > l - 1 ? k - (l - 1) : 0);
    total += sigma[static_cast<std::size_t>(j)] * inv_d(t + k);
  }
  return total;
}

}  // namespace

AccessScheduler::AccessScheduler(int num_io_nodes, Slot num_slots,
                                 ScheduleOptions opts)
    : num_nodes_(num_io_nodes),
      num_slots_(num_slots),
      opts_(opts),
      group_(static_cast<std::size_t>(num_slots), Signature(num_io_nodes)),
      sigma_(static_cast<std::size_t>(std::min<Slot>(opts.delta, num_slots - 1)) +
             1),
      inv_dist_(2 * static_cast<std::size_t>(num_io_nodes) + 1) {
  assert(num_io_nodes > 0 && num_slots > 0);
  if (opts_.theta > 0) {
    node_counts_.assign(
        static_cast<std::size_t>(num_slots) * static_cast<std::size_t>(num_nodes_),
        0);
    saturated_.assign(static_cast<std::size_t>(num_slots),
                      Signature(num_io_nodes));
  }
  // σ table: the exact `weight()` values, computed once instead of one
  // division per window term.  A term inside the timeline is at most
  // num_slots − 1 slots outside its window, so a huge δ needs no more.
  for (std::size_t j = 0; j < sigma_.size(); ++j) {
    sigma_[j] = weight(static_cast<int>(j), opts_.delta);
  }
  // 1/d table: distance(a, b) = n - similarity + difference lies in
  // [0, 2n].  The paper sets 1/d to 2 when the distance is 0 (a perfect
  // reuse of an identical active set).
  inv_dist_[0] = 2.0;
  for (std::size_t d = 1; d < inv_dist_.size(); ++d) {
    inv_dist_[d] = 1.0 / static_cast<double>(d);
  }
}

void AccessScheduler::reset() {
  for (Signature& g : group_) g.clear();
  std::fill(node_counts_.begin(), node_counts_.end(), 0);
  for (Signature& s : saturated_) s.clear();
  for (auto& rows : occupied_) std::fill(rows.begin(), rows.end(), 0);
  stats_ = ScheduleStats{};
}

double AccessScheduler::weight(int outside_distance, int delta) {
  return 1.0 - static_cast<double>(outside_distance) /
                   (static_cast<double>(delta) + 1.0);
}

double AccessScheduler::reciprocal_distance(const AccessRecord& rec,
                                            Slot s) const {
  return inv_dist_[static_cast<std::size_t>(
      distance(rec.sig, group_[static_cast<std::size_t>(s)]))];
}

double AccessScheduler::reuse_factor(const AccessRecord& rec, Slot slot) const {
  assert(slot >= 0 && slot < num_slots_);
  return window_sum(slot, rec.length, num_slots_, sigma_,
                    [&](Slot s) { return reciprocal_distance(rec, s); });
}

double AccessScheduler::reuse_factor_with_weights(
    const AccessRecord& rec, Slot slot, std::span<const double> sigma) const {
  return window_sum(slot, rec.length, num_slots_, sigma,
                    [&](Slot s) { return reciprocal_distance(rec, s); });
}

std::uint32_t AccessScheduler::intern(const AccessRecord& rec) {
  if (2 * (classes_.size() + 1) > class_slots_.size()) {
    // dasched-lint: allow(hot-alloc): the table keeps its size across
    // calls; it only grows while the first, largest batch is interned.
    class_slots_.resize(std::max<std::size_t>(64, 2 * class_slots_.size()));
    std::fill(class_slots_.begin(), class_slots_.end(), kNoClass);
    for (std::uint32_t c = 0; c < classes_.size(); ++c) {
      std::size_t at = class_hash(*classes_[c].rep) & (class_slots_.size() - 1);
      while (class_slots_[at] != kNoClass) {
        at = (at + 1) & (class_slots_.size() - 1);
      }
      class_slots_[at] = c;
    }
  }
  const std::size_t mask = class_slots_.size() - 1;
  for (std::size_t at = class_hash(rec) & mask;; at = (at + 1) & mask) {
    const std::uint32_t c = class_slots_[at];
    if (c == kNoClass) {
      class_slots_[at] = static_cast<std::uint32_t>(classes_.size());
      // dasched-lint: allow(hot-alloc): class rows keep their capacity
      // across calls.
      classes_.push_back({&rec, rec.begin, rec.latest_start(), 0});
      return class_slots_[at];
    }
    const AccessRecord& rep = *classes_[c].rep;
    if (rep.length == rec.length && rep.sig == rec.sig) return c;
  }
}

void AccessScheduler::build_class_tables(std::span<const AccessRecord> accesses) {
  std::fill(class_slots_.begin(), class_slots_.end(), kNoClass);
  // dasched-lint: allow(hot-alloc): scratch keeps its capacity across
  // calls; growth only happens on the first, largest batch.
  class_of_.resize(accesses.size());
  for (std::size_t i = 0; i < accesses.size(); ++i) {
    const std::uint32_t c = intern(accesses[i]);
    ReuseClass& rc = classes_[c];
    rc.lo = std::min(rc.lo, accesses[i].begin);
    rc.hi = std::max(rc.hi, accesses[i].latest_start());
    class_of_[i] = c;
  }
  // From the range of start slots to every slot a σ window can reach.
  std::size_t total = 0;
  for (ReuseClass& rc : classes_) {
    rc.lo = std::max<Slot>(0, rc.lo - opts_.delta);
    rc.hi = std::min<Slot>(num_slots_ - 1,
                           rc.hi + rc.rep->length - 1 + opts_.delta);
    rc.hi = std::max(rc.hi, rc.lo - 1);
    rc.offset = total;
    total += static_cast<std::size_t>(rc.hi - rc.lo + 1);
  }
  // dasched-lint: allow(hot-alloc): the tables keep their capacity across
  // calls; growth only happens on the first, largest batch.
  table_d_.resize(total);
  table_r_.resize(total);  // dasched-lint: allow(hot-alloc): as above
  stale_.assign(total, 1);  // dasched-lint: allow(hot-alloc): as above
  for (const ReuseClass& rc : classes_) {
    for (Slot s = rc.lo; s <= rc.hi; ++s) {
      table_d_[rc.offset + static_cast<std::size_t>(s - rc.lo)] =
          reciprocal_distance(*rc.rep, s);
    }
  }
}

double AccessScheduler::class_reuse(std::uint32_t c, Slot t) {
  const ReuseClass& rc = classes_[c];
  assert(t >= rc.lo && t <= rc.hi);
  const std::size_t at = rc.offset + static_cast<std::size_t>(t - rc.lo);
  if (stale_[at]) {
    const double* d = table_d_.data() + rc.offset;
    table_r_[at] = window_sum(t, rc.rep->length, num_slots_, sigma_,
                              [&](Slot s) { return d[s - rc.lo]; });
    stale_[at] = 0;
  }
  return table_r_[at];
}

void AccessScheduler::merge_into_group(const Signature& sig, Slot s) {
  if (!group_[static_cast<std::size_t>(s)].merge(sig)) return;
  for (const ReuseClass& rc : classes_) {
    if (s < rc.lo || s > rc.hi) continue;
    double& d = table_d_[rc.offset + static_cast<std::size_t>(s - rc.lo)];
    const double fresh = reciprocal_distance(*rc.rep, s);
    if (fresh == d) continue;
    d = fresh;
    // R_t reads D at s iff s lies in [t − δ, t + l − 1 + δ].
    const Slot from = std::max<Slot>(rc.lo, s - rc.rep->length + 1 - opts_.delta);
    const Slot to = std::min<Slot>(rc.hi, s + opts_.delta);
    std::fill(stale_.begin() + static_cast<std::ptrdiff_t>(rc.offset) +
                  (from - rc.lo),
              stale_.begin() + static_cast<std::ptrdiff_t>(rc.offset) +
                  (to - rc.lo) + 1,
              std::uint8_t{1});
  }
}

void AccessScheduler::ensure_process(int process) {
  if (static_cast<std::size_t>(process) >= occupied_.size()) {
    // dasched-lint: allow(hot-alloc): warm-up growth; rows persist and are
    // reused across schedule calls.
    occupied_.resize(static_cast<std::size_t>(process) + 1);
  }
  auto& rows = occupied_[static_cast<std::size_t>(process)];
  if (rows.empty()) rows.assign(static_cast<std::size_t>(num_slots_), 0);
}

bool AccessScheduler::available(int process, Slot slot, int length) const {
  if (slot < 0 || slot + length > num_slots_) return false;
  if (static_cast<std::size_t>(process) >= occupied_.size()) return true;
  const auto& rows = occupied_[static_cast<std::size_t>(process)];
  if (rows.empty()) return true;
  for (int k = 0; k < length; ++k) {
    if (rows[static_cast<std::size_t>(slot + k)]) return false;
  }
  return true;
}

bool AccessScheduler::theta_ok(const AccessRecord& rec, Slot slot) const {
  if (opts_.theta <= 0) return true;
  // A node violates the cap iff its count has already reached θ, i.e. iff
  // its bit is set in the slot's saturated mask: one signature-AND per
  // occupied slot replaces the per-node counter rescan.
  for (int k = 0; k < rec.length; ++k) {
    const Slot s = slot + k;
    if (s < 0 || s >= num_slots_) continue;
    if (intersects(rec.sig, saturated_[static_cast<std::size_t>(s)])) {
      return false;
    }
  }
  return true;
}

double AccessScheduler::average_excess(const AccessRecord& rec, Slot slot) const {
  if (opts_.theta <= 0) return 0.0;
  std::int64_t excess = 0;
  std::int64_t oversubscribed = 0;
  for (int k = 0; k < rec.length; ++k) {
    const Slot s = slot + k;
    if (s < 0 || s >= num_slots_) continue;
    const std::size_t base =
        static_cast<std::size_t>(s) * static_cast<std::size_t>(num_nodes_);
    rec.sig.for_each_node([&](int node) {
      const int m = node_counts_[base + static_cast<std::size_t>(node)] + 1;
      if (m > opts_.theta) {
        excess += m - opts_.theta;
        oversubscribed += 1;
      }
    });
  }
  if (oversubscribed == 0) return 0.0;
  return static_cast<double>(excess) / static_cast<double>(oversubscribed);
}

void AccessScheduler::place(const AccessRecord& rec, Slot slot) {
  assert(slot >= 0 && slot + rec.length <= num_slots_);
  ensure_process(rec.process);
  auto& rows = occupied_[static_cast<std::size_t>(rec.process)];
  for (int k = 0; k < rec.length; ++k) {
    merge_into_group(rec.sig, slot + k);
    const auto s = static_cast<std::size_t>(slot + k);
    rows[s] = 1;
    if (opts_.theta > 0) {
      const std::size_t base = s * static_cast<std::size_t>(num_nodes_);
      rec.sig.for_each_node([&](int node) {
        std::uint16_t& count = node_counts_[base + static_cast<std::size_t>(node)];
        count += 1;
        if (count >= opts_.theta) saturated_[s].set(node);
      });
    }
  }
}

const Signature& AccessScheduler::group_signature(Slot slot) const {
  return group_[static_cast<std::size_t>(slot)];
}

std::vector<ScheduledAccess> AccessScheduler::schedule(
    std::vector<AccessRecord> accesses) {
  std::vector<ScheduledAccess> out;
  schedule_into(accesses, out);
  return out;
}

void AccessScheduler::schedule_into(std::span<const AccessRecord> accesses,
                                    std::vector<ScheduledAccess>& out) {
  // dasched-lint: allow(hot-alloc): scratch vectors keep their capacity
  // across calls; growth only happens on the first, largest batch.
  order_.resize(accesses.size());
  std::iota(order_.begin(), order_.end(), 0u);
  std::sort(order_.begin(), order_.end(),
            [&accesses](std::uint32_t a, std::uint32_t b) {
              return placed_before(accesses[a], accesses[b]);
            });

  out.clear();
  // dasched-lint: allow(hot-alloc): one up-front reserve per batch keeps
  // the placement loop below allocation-free.
  out.reserve(accesses.size());
  double total_advance = 0.0;

  // The class rows point into `accesses`; drop them however this returns.
  struct DropClasses {
    std::vector<ReuseClass>& classes;
    ~DropClasses() { classes.clear(); }
  } drop_classes{classes_};
  build_class_tables(accesses);

  for (std::uint32_t idx : order_) {
    const AccessRecord& rec = accesses[idx];
    const std::uint32_t c = class_of_[idx];
    assert(rec.begin <= rec.end && rec.length >= 1);

    candidates_.clear();
    const Slot lo = rec.begin;
    const Slot hi = rec.latest_start();
    Slot stride = 1;
    if (opts_.max_candidates > 0 && hi - lo + 1 > opts_.max_candidates) {
      stride = (hi - lo + opts_.max_candidates) / opts_.max_candidates;
    }

    for (Slot s = lo; s <= hi; s += stride) {
      if (!available(rec.process, s, rec.length)) continue;
      // dasched-lint: allow(hot-alloc): candidate scratch retains capacity
      // across placements.
      candidates_.push_back({s, class_reuse(c, s)});
    }
    if (stride > 1 && (hi - lo) % stride != 0 &&
        available(rec.process, hi, rec.length)) {
      // dasched-lint: allow(hot-alloc): candidate scratch retains capacity
      // across placements.
      candidates_.push_back({hi, class_reuse(c, hi)});
    }

    ScheduledAccess result{rec, rec.original, false};
    if (candidates_.empty()) {
      // The whole slack is occupied by this process's other accesses; pin to
      // the original point (the read must still happen there).
      result.forced = true;
      stats_.forced += 1;
      // Do not mark occupancy: the slot genuinely holds two accesses now and
      // blocking it further would only cascade more forced placements.
      for (int k = 0; k < rec.length; ++k) {
        const Slot s = result.slot + k;
        if (s >= 0 && s < num_slots_) merge_into_group(rec.sig, s);
      }
    } else {
      // Max-reuse selection (Fig. 11): the first best wins.  Under θ
      // (Sec. IV-B3), in non-increasing reuse order (slot order on ties, as
      // the reference's stable sort), the first candidate that satisfies θ
      // at every occupied slot wins; if none does, the one minimizing the
      // average excess E_t, the earlier in that order on E_t ties.
      // Candidates are already in slot order, so linear scans that replace
      // only on a strictly better key find exactly that candidate without
      // sorting.  theta_ok always holds when θ is 0.
      std::size_t best = 0;
      for (std::size_t i = 1; i < candidates_.size(); ++i) {
        if (candidates_[i].reuse > candidates_[best].reuse) best = i;
      }
      std::size_t pick = best;
      if (!theta_ok(rec, candidates_[best].slot)) {
        // The best θ-passing candidate; theta_ok only runs on a candidate
        // that would beat the current pick.
        bool found = false;
        for (std::size_t i = 0; i < candidates_.size(); ++i) {
          if (found && !(candidates_[i].reuse > candidates_[pick].reuse)) {
            continue;
          }
          if (theta_ok(rec, candidates_[i].slot)) {
            pick = i;
            found = true;
          }
        }
        if (!found) {
          double best_excess = std::numeric_limits<double>::infinity();
          for (std::size_t i = 0; i < candidates_.size(); ++i) {
            const double e = average_excess(rec, candidates_[i].slot);
            if (e < best_excess ||
                (e == best_excess &&
                 candidates_[i].reuse > candidates_[pick].reuse)) {
              best_excess = e;
              pick = i;
            }
          }
          stats_.theta_fallbacks += 1;
          result.theta_fallback = true;
        }
      }
      result.slot = candidates_[pick].slot;
      place(rec, result.slot);
    }

    total_advance += static_cast<double>(rec.original - result.slot);
    // dasched-lint: allow(hot-alloc): the caller pre-reserves `out` (see
    // Cluster::compile); growth here is first-run only.
    out.push_back(std::move(result));
  }

  stats_.scheduled = static_cast<std::int64_t>(out.size());
  stats_.mean_advance_slots =
      out.empty() ? 0.0 : total_advance / static_cast<double>(out.size());

  std::sort(out.begin(), out.end(),
            [](const ScheduledAccess& a, const ScheduledAccess& b) {
              return a.rec.id < b.rec.id;
            });
}

}  // namespace dasched
