#include "core/scheduler.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <limits>
#include <numeric>

namespace dasched {
namespace {

constexpr std::uint32_t kNoClass = std::numeric_limits<std::uint32_t>::max();

/// All ones when a < b, else 0, for a, b < 2^63: the sign bit of a − b.
/// Arithmetic, not a compare, so the compiler keeps the running maxima of
/// the selection pass free of data-dependent branches.
constexpr std::uint64_t less_mask(std::uint64_t a, std::uint64_t b) {
  return 0 - ((a - b) >> 63);
}

/// Bytes past the last slot of each occupancy row, so the gather can read
/// the 8 bytes at any start slot with one load.
constexpr std::size_t kRowPad = 7;

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
    node_class_begin_.assign(static_cast<std::size_t>(num_nodes_) + 1, 0);
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
  if (opts_.theta > 0) {
    table_theta_.resize(total);  // dasched-lint: allow(hot-alloc): as above
    theta_stale_.assign(total, 1);  // dasched-lint: allow(hot-alloc): as above
    // Per-node class lists: count, prefix-sum, fill with a cursor per node
    // (which leaves each begin at the next node's), then shift back.
    std::vector<std::uint32_t>& begin = node_class_begin_;
    for (const ReuseClass& rc : classes_) {
      rc.rep->sig.for_each_node(
          [&](int v) { ++begin[static_cast<std::size_t>(v) + 1]; });
    }
    std::partial_sum(begin.begin(), begin.end(), begin.begin());
    // dasched-lint: allow(hot-alloc): as above
    node_classes_.resize(begin.back());
    for (std::uint32_t c = 0; c < classes_.size(); ++c) {
      classes_[c].rep->sig.for_each_node([&](int v) {
        node_classes_[begin[static_cast<std::size_t>(v)]++] = c;
      });
    }
    std::copy_backward(begin.begin(), begin.end() - 1, begin.end());
    begin[0] = 0;
  }
  for (const ReuseClass& rc : classes_) {
    for (Slot s = rc.lo; s <= rc.hi; ++s) {
      table_d_[rc.offset + static_cast<std::size_t>(s - rc.lo)] =
          reciprocal_distance(*rc.rep, s);
    }
  }
}

void AccessScheduler::refresh_reuse(std::uint32_t c, const Slot* ts,
                                    std::size_t count) {
  const ReuseClass rc = classes_[c];
  const int l = rc.rep->length;
  const double* d = table_d_.data() + rc.offset;
  double* r = table_r_.data() + rc.offset;
  std::uint8_t* stale = stale_.data() + rc.offset;
  const auto range = static_cast<Slot>(sigma_.size()) - 1;
  const auto refresh_one = [&](Slot t) {
    const auto at = static_cast<std::size_t>(t - rc.lo);
    r[at] = window_sum(t, l, num_slots_, sigma_,
                       [&](Slot s) { return d[s - rc.lo]; });
    stale[at] = 0;
  };
  // `ts` ascends, so the starts whose whole window lies inside the timeline
  // form one run [first, last).  Outside it windows are clipped.
  std::size_t first = 0;
  while (first < count && ts[first] < range) refresh_one(ts[first++]);
  std::size_t last = count;
  while (last > first && ts[last - 1] + l - 1 + range > num_slots_ - 1) {
    refresh_one(ts[--last]);
  }
  // Interior starts, four at a time: four independent chains, each adding
  // window_sum's terms in window_sum's order (k from −range to l − 1 +
  // range, j the distance outside the window), so each total is the same
  // double window_sum returns.  A last group of fewer than four repeats
  // its last start in the spare chains.
  for (std::size_t i = first; i < last; i += 4) {
    const std::size_t i1 = std::min(i + 1, last - 1);
    const std::size_t i2 = std::min(i + 2, last - 1);
    const std::size_t i3 = std::min(i + 3, last - 1);
    const double* d0 = d + (ts[i] - range - rc.lo);
    const double* d1 = d + (ts[i1] - range - rc.lo);
    const double* d2 = d + (ts[i2] - range - rc.lo);
    const double* d3 = d + (ts[i3] - range - rc.lo);
    double a0 = 0.0;
    double a1 = 0.0;
    double a2 = 0.0;
    double a3 = 0.0;
    const auto term = [&](Slot k, Slot j) {
      const double w = sigma_[static_cast<std::size_t>(j)];
      a0 += w * d0[k];
      a1 += w * d1[k];
      a2 += w * d2[k];
      a3 += w * d3[k];
    };
    for (Slot k = 0; k < range; ++k) term(k, range - k);
    for (Slot k = range; k < range + l; ++k) term(k, 0);
    for (Slot k = range + l; k < l + 2 * range; ++k) {
      term(k, k - (range + l - 1));
    }
    const double totals[4] = {a0, a1, a2, a3};
    const std::size_t lanes[4] = {i, i1, i2, i3};
    for (std::size_t q = 0; q < 4; ++q) {
      const auto at = static_cast<std::size_t>(ts[lanes[q]] - rc.lo);
      r[at] = totals[q];
      stale[at] = 0;
    }
  }
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
  if (rows.empty()) {
    rows.assign(static_cast<std::size_t>(num_slots_) + kRowPad, 0);
  }
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

AccessScheduler::ThetaCell AccessScheduler::theta_cell(const Signature& sig,
                                                      int length,
                                                      Slot t) const {
  ThetaCell cell{0, 0};
  for (int k = 0; k < length; ++k) {
    const Slot s = t + k;
    if (s < 0 || s >= num_slots_) continue;
    const std::uint16_t* counts =
        node_counts_.data() +
        static_cast<std::size_t>(s) * static_cast<std::size_t>(num_nodes_);
    sig.for_each_node([&](int node) {
      const int m = counts[node] + 1;
      if (m > opts_.theta) {
        cell.excess += m - opts_.theta;
        cell.oversubscribed += 1;
      }
    });
  }
  return cell;
}

bool AccessScheduler::theta_ok(const AccessRecord& rec, Slot slot) const {
  if (opts_.theta <= 0) return true;
  return theta_cell(rec.sig, rec.length, slot).oversubscribed == 0;
}

double AccessScheduler::average_excess(const AccessRecord& rec, Slot slot) const {
  if (opts_.theta <= 0) return 0.0;
  const ThetaCell cell = theta_cell(rec.sig, rec.length, slot);
  if (cell.oversubscribed == 0) return 0.0;
  return static_cast<double>(cell.excess) /
         static_cast<double>(cell.oversubscribed);
}

void AccessScheduler::mark_theta_stale(int node, Slot s) {
  const auto v = static_cast<std::size_t>(node);
  for (std::uint32_t i = node_class_begin_[v]; i < node_class_begin_[v + 1];
       ++i) {
    const ReuseClass& rc = classes_[node_classes_[i]];
    // Θ[c][t] reads the counts of slot s iff s lies in [t, t + l − 1].
    const Slot from = std::max<Slot>(rc.lo, s - rc.rep->length + 1);
    const Slot to = std::min<Slot>(rc.hi, s);
    if (from > to) continue;
    std::fill(theta_stale_.begin() + static_cast<std::ptrdiff_t>(rc.offset) +
                  (from - rc.lo),
              theta_stale_.begin() + static_cast<std::ptrdiff_t>(rc.offset) +
                  (to - rc.lo) + 1,
              std::uint8_t{1});
  }
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
      // A node's count enters Θ only once it is at least θ, so only a
      // count that reaches θ or more changes a Θ entry.
      std::uint16_t* counts =
          node_counts_.data() + s * static_cast<std::size_t>(num_nodes_);
      rec.sig.for_each_node([&](int node) {
        counts[node] += 1;
        if (counts[node] >= opts_.theta) mark_theta_stale(node, slot + k);
      });
    }
  }
}

const Signature& AccessScheduler::group_signature(Slot slot) const {
  return group_[static_cast<std::size_t>(slot)];
}

template <bool kTheta>
std::size_t AccessScheduler::gather_candidates(const AccessRecord& rec,
                                               std::uint32_t c) {
  const ReuseClass rc = classes_[c];  // a copy: the Slot stores below
                                      // cannot alias it
  const Slot lo = rec.begin;
  const Slot hi = rec.latest_start();
  const int l = rec.length;
  if (hi < lo) return 0;
  // Slacks wider than max_candidates are sampled at an even stride.
  Slot stride = 1;
  if (opts_.max_candidates > 0 && hi - lo + 1 > opts_.max_candidates) {
    stride = (hi - lo + opts_.max_candidates) / opts_.max_candidates;
  }
  const auto points = static_cast<std::size_t>((hi - lo) / stride) + 2;
  if (slots_.size() < points) {
    // dasched-lint: allow(hot-alloc): scratch keeps its capacity across
    // accesses and calls; it only grows to the widest slack gathered.
    slots_.resize(points);
    stale_r_slots_.resize(points);  // dasched-lint: allow(hot-alloc): as above
    // dasched-lint: allow(hot-alloc): as above
    stale_theta_slots_.resize(points);
  }
  ensure_process(rec.process);
  const char* busy = occupied_[static_cast<std::size_t>(rec.process)].data();
  const std::uint8_t* r_stale = stale_.data() + rc.offset;
  const std::uint8_t* t_stale =
      kTheta ? theta_stale_.data() + rc.offset : nullptr;

  // Start slots outside [0, N − l] are never available; skip them whole.
  Slot first = lo;
  if (first < 0) first += (-first + stride - 1) / stride * stride;
  const Slot last = std::min<Slot>(hi, num_slots_ - l);

  // Store every start slot, and advance each count by the slot's
  // availability bit (and stale bit): no branch per candidate.
  std::size_t n = 0;
  std::size_t n_r = 0;
  std::size_t n_t = 0;
  const auto gather_with = [&](auto taken) {
    const auto gather = [&](Slot s) {
      const std::size_t keep = taken(s) ? 0 : 1;
      const auto at = static_cast<std::size_t>(s - rc.lo);
      slots_[n] = s;
      n += keep;
      stale_r_slots_[n_r] = s;
      n_r += keep & r_stale[at];
      if constexpr (kTheta) {
        stale_theta_slots_[n_t] = s;
        n_t += keep & t_stale[at];
      }
    };
    for (Slot s = first; s <= last; s += stride) gather(s);
    // Sampling always examines the latest start too.
    if (stride > 1 && (hi - lo) % stride != 0 && hi >= 0 && hi <= last) {
      gather(hi);
    }
  };
  if (l <= 8) {
    // One 8-byte load covers the l occupancy bytes of a start slot.
    const std::uint64_t mask =
        l == 8 ? ~std::uint64_t{0}
               : (std::endian::native == std::endian::little
                      ? (std::uint64_t{1} << (8 * l)) - 1
                      : ~(~std::uint64_t{0} >> (8 * l)));
    gather_with([&](Slot s) {
      std::uint64_t word;
      std::memcpy(&word, busy + s, sizeof word);
      return (word & mask) != 0;
    });
  } else {
    gather_with([&](Slot s) {
      unsigned taken = 0;
      for (int k = 0; k < l; ++k) {
        taken |= static_cast<unsigned char>(busy[s + k]);
      }
      return taken != 0;
    });
  }

  refresh_reuse(c, stale_r_slots_.data(), n_r);
  if constexpr (kTheta) {
    for (std::size_t i = 0; i < n_t; ++i) {
      const Slot t = stale_theta_slots_[i];
      const auto at = static_cast<std::size_t>(t - rc.lo);
      table_theta_[rc.offset + at] = theta_cell(rc.rep->sig, l, t);
      theta_stale_[rc.offset + at] = 0;
    }
  }
  return n;
}

std::vector<ScheduledAccess> AccessScheduler::schedule(
    const std::vector<AccessRecord>& accesses) {
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

  // Row i is the placement of accesses[i].
  out.clear();
  // dasched-lint: allow(hot-alloc): one up-front resize per batch keeps
  // the placement loop below allocation-free.
  out.resize(accesses.size());
  double total_advance = 0.0;

  // The class rows point into `accesses`, and place() follows the per-node
  // class lists: drop both however this returns.
  struct DropClasses {
    AccessScheduler& self;
    ~DropClasses() {
      self.classes_.clear();
      std::fill(self.node_class_begin_.begin(), self.node_class_begin_.end(),
                0u);
    }
  } drop_classes{*this};
  build_class_tables(accesses);

  for (std::uint32_t idx : order_) {
    const AccessRecord& rec = accesses[idx];
    const std::uint32_t c = class_of_[idx];
    assert(rec.begin <= rec.end && rec.length >= 1);

    const std::size_t n = opts_.theta > 0 ? gather_candidates<true>(rec, c)
                                          : gather_candidates<false>(rec, c);

    ScheduledAccess result{rec, rec.original, false};
    if (n == 0) {
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
      // One pass over the candidates, in slot order, for the three picks
      // of Fig. 11 and Sec. IV-B3: the first best reuse; the first best
      // reuse that keeps θ; and, for when none keeps θ, the least E_t with
      // ties to the highest reuse, then the earliest slot.  The reference
      // stable-sorts by reuse and walks that order; replacing a pick only
      // on a strictly better key finds the same candidates.
      const ReuseClass& rc = classes_[c];
      const Slot row_lo = rc.lo;
      const Slot* slots = slots_.data();
      const double* r = table_r_.data() + rc.offset;
      // A reuse factor is a sum of positive terms, and positive doubles
      // order as their bit patterns do (all below 2^63), so the running
      // maxima are integer masks: no branch on the data.  Replacing a pick
      // only on a strictly larger key keeps the earliest slot among equals.
      const ThetaCell* theta =
          opts_.theta > 0 ? table_theta_.data() + rc.offset : nullptr;
      std::size_t pick = 0;
      std::uint64_t best = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const auto at = static_cast<std::size_t>(slots[i] - row_lo);
        std::uint64_t key = std::bit_cast<std::uint64_t>(r[at]);
        if (theta != nullptr) {
          // A candidate that breaks θ keys 0, below every feasible one.
          const std::uint64_t over =
              static_cast<std::uint32_t>(theta[at].oversubscribed);
          key &= 0 - ((over - 1) >> 63);
        }
        const std::uint64_t better = less_mask(best, key);
        pick ^= (pick ^ i) & better;
        best ^= (best ^ key) & better;
      }
      if (theta != nullptr && best == 0) {
        // No candidate keeps θ: the least E_t, ties to the highest reuse,
        // then the earliest slot.
        double least_excess = std::numeric_limits<double>::infinity();
        double fallback_reuse = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
          const auto at = static_cast<std::size_t>(slots[i] - row_lo);
          const double e = static_cast<double>(theta[at].excess) /
                           static_cast<double>(theta[at].oversubscribed);
          if (e < least_excess ||
              (e == least_excess && r[at] > fallback_reuse)) {
            least_excess = e;
            fallback_reuse = r[at];
            pick = i;
          }
        }
        stats_.theta_fallbacks += 1;
        result.theta_fallback = true;
      }
      result.slot = slots_[pick];
      place(rec, result.slot);
    }

    total_advance += static_cast<double>(rec.original - result.slot);
    out[idx] = result;
  }

  stats_.scheduled = static_cast<std::int64_t>(out.size());
  stats_.mean_advance_slots =
      out.empty() ? 0.0 : total_advance / static_cast<double>(out.size());
}

}  // namespace dasched
