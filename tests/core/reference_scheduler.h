// The pre-fast-path AccessScheduler, preserved verbatim as the oracle for
// the differential test (scheduler_differential_test.cc).
//
// This is the straightforward implementation of Sec. IV-B: per candidate it
// recomputes every signature distance inside the σ window, materializes
// `nodes()` vectors for θ bookkeeping and stable-sorts candidates in the
// θ path.  The production scheduler must produce bit-identical placements,
// stats and group signatures — any divergence (a reassociated float sum, a
// changed tie order) fails the test.  It has since lost only the randomized
// tie-break, which the production scheduler no longer offers, gained the
// per-access `theta_fallback` flag the production result now carries, and
// sorts by the placement's own id now that a placement holds no record.
//
// Do not "improve" this file: its value is being the old code.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/access.h"
#include "core/scheduler.h"
#include "core/signature.h"

namespace dasched {

class ReferenceScheduler {
 public:
  ReferenceScheduler(int num_io_nodes, Slot num_slots, ScheduleOptions opts = {})
      : num_nodes_(num_io_nodes),
        num_slots_(num_slots),
        opts_(opts),
        group_(static_cast<std::size_t>(num_slots), Signature(num_io_nodes)) {
    assert(num_io_nodes > 0 && num_slots > 0);
    if (opts_.theta > 0) {
      node_counts_.assign(static_cast<std::size_t>(num_slots) *
                              static_cast<std::size_t>(num_nodes_),
                          0);
    }
  }

  static double weight(int outside_distance, int delta) {
    return 1.0 - static_cast<double>(outside_distance) /
                     static_cast<double>(delta + 1);
  }

  [[nodiscard]] double reuse_factor(const AccessRecord& rec, Slot slot) const {
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

  [[nodiscard]] bool available(int process, Slot slot, int length) const {
    if (slot < 0 || slot + length > num_slots_) return false;
    if (static_cast<std::size_t>(process) >= occupied_.size()) return true;
    const auto& rows = occupied_[static_cast<std::size_t>(process)];
    if (rows.empty()) return true;
    for (int k = 0; k < length; ++k) {
      if (rows[static_cast<std::size_t>(slot + k)]) return false;
    }
    return true;
  }

  [[nodiscard]] bool theta_ok(const AccessRecord& rec, Slot slot) const {
    if (opts_.theta <= 0) return true;
    const auto nodes = rec.sig.nodes();
    for (int k = 0; k < rec.length; ++k) {
      const Slot s = slot + k;
      if (s < 0 || s >= num_slots_) continue;
      const std::size_t base =
          static_cast<std::size_t>(s) * static_cast<std::size_t>(num_nodes_);
      for (int node : nodes) {
        if (node_counts_[base + static_cast<std::size_t>(node)] + 1 >
            opts_.theta) {
          return false;
        }
      }
    }
    return true;
  }

  [[nodiscard]] double average_excess(const AccessRecord& rec, Slot slot) const {
    if (opts_.theta <= 0) return 0.0;
    const auto nodes = rec.sig.nodes();
    std::int64_t excess = 0;
    std::int64_t oversubscribed = 0;
    for (int k = 0; k < rec.length; ++k) {
      const Slot s = slot + k;
      if (s < 0 || s >= num_slots_) continue;
      const std::size_t base =
          static_cast<std::size_t>(s) * static_cast<std::size_t>(num_nodes_);
      for (int node : nodes) {
        const int m = node_counts_[base + static_cast<std::size_t>(node)] + 1;
        if (m > opts_.theta) {
          excess += m - opts_.theta;
          oversubscribed += 1;
        }
      }
    }
    if (oversubscribed == 0) return 0.0;
    return static_cast<double>(excess) / static_cast<double>(oversubscribed);
  }

  void place(const AccessRecord& rec, Slot slot) {
    assert(slot >= 0 && slot + rec.length <= num_slots_);
    ensure_process(rec.process);
    auto& rows = occupied_[static_cast<std::size_t>(rec.process)];
    const auto nodes = rec.sig.nodes();
    for (int k = 0; k < rec.length; ++k) {
      const auto s = static_cast<std::size_t>(slot + k);
      group_[s] |= rec.sig;
      rows[s] = 1;
      if (opts_.theta > 0) {
        const std::size_t base = s * static_cast<std::size_t>(num_nodes_);
        for (int node : nodes) {
          node_counts_[base + static_cast<std::size_t>(node)] += 1;
        }
      }
    }
  }

  [[nodiscard]] const Signature& group_signature(Slot slot) const {
    return group_[static_cast<std::size_t>(slot)];
  }

  std::vector<ScheduledAccess> schedule(std::vector<AccessRecord> accesses) {
    std::vector<std::size_t> order(accesses.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [&accesses](std::size_t a, std::size_t b) {
                const Slot la = accesses[a].slack_length();
                const Slot lb = accesses[b].slack_length();
                if (la != lb) return la < lb;
                return accesses[a].id < accesses[b].id;
              });

    std::vector<ScheduledAccess> out;
    out.reserve(accesses.size());
    double total_advance = 0.0;

    struct Candidate {
      Slot slot;
      double reuse;
    };
    std::vector<Candidate> candidates;

    for (std::size_t idx : order) {
      const AccessRecord& rec = accesses[idx];
      assert(rec.begin <= rec.end && rec.length >= 1);

      candidates.clear();
      const Slot lo = rec.begin;
      const Slot hi = rec.latest_start();
      Slot stride = 1;
      if (opts_.max_candidates > 0 && hi - lo + 1 > opts_.max_candidates) {
        stride = (hi - lo + opts_.max_candidates) / opts_.max_candidates;
      }
      for (Slot s = lo; s <= hi; s += stride) {
        if (!available(rec.process, s, rec.length)) continue;
        candidates.push_back({s, reuse_factor(rec, s)});
      }
      if (stride > 1 && (hi - lo) % stride != 0 &&
          available(rec.process, hi, rec.length)) {
        candidates.push_back({hi, reuse_factor(rec, hi)});
      }

      ScheduledAccess result{rec, rec.original, false};
      if (candidates.empty()) {
        result.forced = true;
        stats_.forced += 1;
        for (int k = 0; k < rec.length; ++k) {
          const Slot s = result.slot + k;
          if (s >= 0 && s < num_slots_) {
            group_[static_cast<std::size_t>(s)] |= rec.sig;
          }
        }
      } else if (opts_.theta <= 0) {
        std::size_t best = 0;
        for (std::size_t i = 1; i < candidates.size(); ++i) {
          if (candidates[i].reuse > candidates[best].reuse) best = i;
        }
        result.slot = candidates[best].slot;
        place(rec, result.slot);
      } else {
        std::stable_sort(candidates.begin(), candidates.end(),
                         [](const Candidate& a, const Candidate& b) {
                           return a.reuse > b.reuse;
                         });
        bool placed = false;
        for (const Candidate& c : candidates) {
          if (theta_ok(rec, c.slot)) {
            result.slot = c.slot;
            placed = true;
            break;
          }
        }
        if (!placed) {
          double best_excess = std::numeric_limits<double>::infinity();
          Slot best_slot = candidates.front().slot;
          for (const Candidate& c : candidates) {
            const double e = average_excess(rec, c.slot);
            if (e < best_excess) {
              best_excess = e;
              best_slot = c.slot;
            }
          }
          result.slot = best_slot;
          result.theta_fallback = true;
          stats_.theta_fallbacks += 1;
        }
        place(rec, result.slot);
      }

      total_advance += static_cast<double>(rec.original - result.slot);
      out.push_back(std::move(result));
    }

    stats_.scheduled = static_cast<std::int64_t>(out.size());
    stats_.mean_advance_slots =
        out.empty() ? 0.0 : total_advance / static_cast<double>(out.size());

    std::sort(out.begin(), out.end(),
              [](const ScheduledAccess& a, const ScheduledAccess& b) {
                return a.id < b.id;
              });
    return out;
  }

  [[nodiscard]] const ScheduleStats& stats() const { return stats_; }
  [[nodiscard]] Slot num_slots() const { return num_slots_; }

 private:
  [[nodiscard]] double reciprocal_distance(const AccessRecord& rec,
                                           Slot s) const {
    const int d = distance(rec.sig, group_[static_cast<std::size_t>(s)]);
    return d == 0 ? 2.0 : 1.0 / static_cast<double>(d);
  }

  void ensure_process(int process) {
    if (static_cast<std::size_t>(process) >= occupied_.size()) {
      occupied_.resize(static_cast<std::size_t>(process) + 1);
    }
    auto& rows = occupied_[static_cast<std::size_t>(process)];
    if (rows.empty()) rows.assign(static_cast<std::size_t>(num_slots_), 0);
  }

  int num_nodes_;
  Slot num_slots_;
  ScheduleOptions opts_;

  std::vector<Signature> group_;
  std::vector<std::uint16_t> node_counts_;
  std::vector<std::vector<char>> occupied_;

  ScheduleStats stats_;
};

}  // namespace dasched
