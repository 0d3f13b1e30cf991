#include "core/scheduler.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <numeric>
#include <utility>

namespace dasched {

AccessScheduler::AccessScheduler(int num_io_nodes, Slot num_slots,
                                 ScheduleOptions opts)
    : num_nodes_(num_io_nodes),
      num_slots_(num_slots),
      opts_(opts),
      rng_(opts.seed),
      group_(static_cast<std::size_t>(num_slots), Signature(num_io_nodes)),
      sigma_(static_cast<std::size_t>(opts.delta) + 1),
      inv_dist_(2 * static_cast<std::size_t>(num_io_nodes) + 1),
      inv_d_(static_cast<std::size_t>(num_slots), 0.0) {
  assert(num_io_nodes > 0 && num_slots > 0);
  if (opts_.theta > 0) {
    node_counts_.assign(
        static_cast<std::size_t>(num_slots) * static_cast<std::size_t>(num_nodes_),
        0);
    saturated_.assign(static_cast<std::size_t>(num_slots),
                      Signature(num_io_nodes));
  }
  // σ table: the exact `weight()` values, computed once instead of one
  // division per window term.
  for (int j = 0; j <= opts_.delta; ++j) {
    sigma_[static_cast<std::size_t>(j)] = weight(j, opts_.delta);
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
  rng_.reseed(opts_.seed);
}

double AccessScheduler::weight(int outside_distance, int delta) {
  return 1.0 - static_cast<double>(outside_distance) /
                   static_cast<double>(delta + 1);
}

double AccessScheduler::reciprocal_distance(const AccessRecord& rec,
                                            Slot s) const {
  return inv_dist_[static_cast<std::size_t>(
      distance(rec.sig, group_[static_cast<std::size_t>(s)]))];
}

double AccessScheduler::reuse_factor(const AccessRecord& rec, Slot slot) const {
  double total = 0.0;
  const int l = rec.length;
  for (int k = -opts_.delta; k <= l - 1 + opts_.delta; ++k) {
    const Slot s = slot + k;
    if (s < 0 || s >= num_slots_) continue;
    const int j = k < 0 ? -k : (k > l - 1 ? k - (l - 1) : 0);
    total += weight(j, opts_.delta) * reciprocal_distance(rec, s);
  }
  return total;
}

double AccessScheduler::reuse_factor_with_weights(
    const AccessRecord& rec, Slot slot, std::span<const double> sigma) const {
  double total = 0.0;
  const int l = rec.length;
  const int range = static_cast<int>(sigma.size()) - 1;
  for (int k = -range; k <= l - 1 + range; ++k) {
    const Slot s = slot + k;
    if (s < 0 || s >= num_slots_) continue;
    const int j = k < 0 ? -k : (k > l - 1 ? k - (l - 1) : 0);
    total += sigma[static_cast<std::size_t>(j)] * reciprocal_distance(rec, s);
  }
  return total;
}

void AccessScheduler::fill_distance_cache(const AccessRecord& rec,
                                          Slot span_lo, Slot span_hi) {
  assert(span_lo >= 0 && span_hi < num_slots_ && span_lo <= span_hi);
  for (Slot s = span_lo; s <= span_hi; ++s) {
    inv_d_[static_cast<std::size_t>(s)] = reciprocal_distance(rec, s);
  }
}

double AccessScheduler::cached_reuse_factor(const AccessRecord& rec,
                                            Slot slot) const {
  // Same term order and arithmetic as `reuse_factor`, with the distance
  // already cached per slot and σ read from the table — the sum is
  // bit-identical, only cheaper.
  double total = 0.0;
  const int l = rec.length;
  const Slot k_lo = std::max<Slot>(-opts_.delta, -slot);
  const Slot k_hi = std::min<Slot>(l - 1 + opts_.delta, num_slots_ - 1 - slot);
  for (Slot k = k_lo; k <= k_hi; ++k) {
    const int j = k < 0 ? static_cast<int>(-k)
                        : (k > l - 1 ? static_cast<int>(k) - (l - 1) : 0);
    total += sigma_[static_cast<std::size_t>(j)] *
             inv_d_[static_cast<std::size_t>(slot + k)];
  }
  return total;
}

void AccessScheduler::evaluate_candidates(const AccessRecord& rec) {
  // Candidates come in increasing slot order, so those whose whole σ window
  // [s-δ, s+l-1+δ] lies inside the timeline form one contiguous run; the
  // clipped ones before and after it take the general cached sum, which is
  // the same float-op sequence as a lane for an interior candidate.
  const std::size_t n = candidates_.size();
  const Slot first_interior = opts_.delta;
  const Slot last_interior = num_slots_ - rec.length - opts_.delta;
  std::size_t i = 0;
  for (; i < n && candidates_[i].slot < first_interior; ++i) {
    candidates_[i].reuse = cached_reuse_factor(rec, candidates_[i].slot);
  }
  std::size_t end = i;
  while (end < n && candidates_[end].slot <= last_interior) ++end;

  // Interior candidates are summed kLanes at a time in independent
  // accumulators against one shared weight row: the σ weight of each term
  // of an unclipped window, in the reference's term order (k = -δ ..
  // l-1+δ).  Every lane performs exactly the float-op sequence of
  // `cached_reuse_factor`; only the latency chains overlap.
  constexpr std::size_t kLanes = 4;
  const int l = rec.length;
  const auto width = static_cast<std::size_t>(l + 2 * opts_.delta);
  if (i + kLanes <= end) {
    // dasched-lint: allow(hot-alloc): the row keeps its capacity across
    // accesses; growth only happens on the first, longest access.
    weights_.resize(width);
    for (std::size_t t = 0; t < width; ++t) {
      const int k = static_cast<int>(t) - opts_.delta;
      const int j = k < 0 ? -k : (k > l - 1 ? k - (l - 1) : 0);
      weights_[t] = sigma_[static_cast<std::size_t>(j)];
    }
  }
  const double* w = weights_.data();
  const auto window = [&](std::size_t c) {
    return inv_d_.data() + (candidates_[c].slot - opts_.delta);
  };
  for (; i + kLanes <= end; i += kLanes) {
    const double* d0 = window(i);
    const double* d1 = window(i + 1);
    const double* d2 = window(i + 2);
    const double* d3 = window(i + 3);
    double a0 = 0.0;
    double a1 = 0.0;
    double a2 = 0.0;
    double a3 = 0.0;
    for (std::size_t t = 0; t < width; ++t) {
      a0 += w[t] * d0[t];
      a1 += w[t] * d1[t];
      a2 += w[t] * d2[t];
      a3 += w[t] * d3[t];
    }
    candidates_[i].reuse = a0;
    candidates_[i + 1].reuse = a1;
    candidates_[i + 2].reuse = a2;
    candidates_[i + 3].reuse = a3;
  }
  // The last few interior candidates and the clipped ones after them.
  for (; i < n; ++i) {
    candidates_[i].reuse = cached_reuse_factor(rec, candidates_[i].slot);
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
    const auto s = static_cast<std::size_t>(slot + k);
    group_[s] |= rec.sig;
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
  // Most-constrained-first: nondecreasing slack length, access id as the
  // deterministic tie-break.
  // dasched-lint: allow(hot-alloc): scratch vectors keep their capacity
  // across calls; growth only happens on the first, largest batch.
  order_.resize(accesses.size());
  std::iota(order_.begin(), order_.end(), 0u);
  std::sort(order_.begin(), order_.end(),
            [&accesses](std::uint32_t a, std::uint32_t b) {
              const Slot la = accesses[a].slack_length();
              const Slot lb = accesses[b].slack_length();
              if (la != lb) return la < lb;
              return accesses[a].id < accesses[b].id;
            });

  out.clear();
  // dasched-lint: allow(hot-alloc): one up-front reserve per batch keeps
  // the placement loop below allocation-free.
  out.reserve(accesses.size());
  double total_advance = 0.0;

  for (std::uint32_t idx : order_) {
    const AccessRecord& rec = accesses[idx];
    assert(rec.begin <= rec.end && rec.length >= 1);

    candidates_.clear();
    const Slot lo = rec.begin;
    const Slot hi = rec.latest_start();
    Slot stride = 1;
    if (opts_.max_candidates > 0 && hi - lo + 1 > opts_.max_candidates) {
      stride = (hi - lo + opts_.max_candidates) / opts_.max_candidates;
    }

    // Hoisted distance cache: `group_` only changes in place(), so 1/d(s)
    // over every slot any candidate's window can reach is computed once per
    // access instead of once per (candidate, window slot) pair.
    const Slot span_lo = std::max<Slot>(0, lo - opts_.delta);
    const Slot span_hi =
        std::min<Slot>(num_slots_ - 1, hi + rec.length - 1 + opts_.delta);
    if (span_lo <= span_hi && lo <= hi) {
      fill_distance_cache(rec, span_lo, span_hi);
    }

    for (Slot s = lo; s <= hi; s += stride) {
      if (!available(rec.process, s, rec.length)) continue;
      // dasched-lint: allow(hot-alloc): candidate scratch retains capacity
      // across placements.
      candidates_.push_back({s, 0.0});
    }
    if (stride > 1 && (hi - lo) % stride != 0 &&
        available(rec.process, hi, rec.length)) {
      // dasched-lint: allow(hot-alloc): candidate scratch retains capacity
      // across placements.
      candidates_.push_back({hi, 0.0});
    }
    evaluate_candidates(rec);

    ScheduledAccess result{rec, rec.original, false};
    bool theta_fallback = false;
    if (candidates_.empty()) {
      // The whole slack is occupied by this process's other accesses; pin to
      // the original point (the read must still happen there).
      result.forced = true;
      stats_.forced += 1;
      // Do not mark occupancy: the slot genuinely holds two accesses now and
      // blocking it further would only cascade more forced placements.
      for (int k = 0; k < rec.length; ++k) {
        const Slot s = result.slot + k;
        if (s >= 0 && s < num_slots_) {
          group_[static_cast<std::size_t>(s)] |= rec.sig;
        }
      }
    } else if (opts_.theta <= 0) {
      // Plain max-reuse selection (Fig. 11): first best wins unless the
      // randomized tie-break is enabled.
      std::size_t best = 0;
      int ties = 1;
      for (std::size_t i = 1; i < candidates_.size(); ++i) {
        if (candidates_[i].reuse > candidates_[best].reuse) {
          best = i;
          ties = 1;
        } else if (opts_.random_tie_break &&
                   candidates_[i].reuse == candidates_[best].reuse) {
          // Reservoir-style uniform choice among ties.
          ties += 1;
          if (rng_.next_below(static_cast<std::uint64_t>(ties)) == 0) best = i;
        }
      }
      result.slot = candidates_[best].slot;
      place(rec, result.slot);
    } else {
      // θ-constrained selection (Sec. IV-B3): in non-increasing reuse order
      // (slot order on ties, as the reference's stable sort), the first
      // candidate that satisfies θ at every occupied slot wins; if none
      // does, the one minimizing the average excess E_t, the earlier in that
      // order on E_t ties.  Candidates are already in slot order, so linear
      // scans that replace only on a strictly better key find exactly that
      // candidate without sorting.
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
          theta_fallback = true;
        }
      }
      result.slot = candidates_[pick].slot;
      place(rec, result.slot);
    }

    observers_.notify([&](SchedulerObserver* o) {
      o->on_access_placed(rec, result.slot, result.forced, theta_fallback);
    });
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
