// The data access scheduling algorithms of Sec. IV-B.
//
// `AccessScheduler` implements the paper's extended algorithm (Sec. IV-B2),
// of which the basic algorithm (Sec. IV-B1) is the length-1 special case,
// plus the θ performance constraint of Sec. IV-B3:
//
//   1. Sort accesses in nondecreasing order of slack length (most
//      constrained first).
//   2. For each access, walk every start slot inside its slack; skip slots
//      where the same process already has a scheduled access ("unavailable").
//   3. Compute the reuse factor R_t = Σ_k σ(k) / d(t+k) over the vertical
//      reuse range [t-δ, t+l-1+δ], where d is the signature distance to the
//      group active signature of slot t+k (unit decomposition of already
//      scheduled accesses) and σ decays linearly away from the occupied
//      window (σ_j = 1 - j/(δ+1)); 1/d is taken as 2 when d = 0.
//   4. Pick the slot with the highest reuse factor, the earliest slot on
//      ties (first best wins, as in the pseudo-code of Fig. 11).  With
//      θ > 0 that slot wins if every occupied slot keeps at most θ
//      accesses per I/O node; otherwise the best such slot in the same
//      order; if none qualifies, the slot minimizing the average excess
//      E_t (flagged `theta_fallback` in the result).
//   5. OR the access's signature into the group active signature of every
//      slot it occupies.
//
// Fast path (DESIGN.md §11): R_t depends only on the access's signature,
// its length and the group signatures in its σ window, and the θ test and
// E_t only on its signature, its length and the per-node counts of the
// slots it would occupy.  `schedule_into` therefore interns the batch into
// (signature, length) classes and keeps three rows per class over the
// class's reachable span: D = 1/d to each slot's group signature, R = the
// reuse factor at each start slot, and Θ = the integer pair (excess,
// oversubscribed) behind θ and E_t at each start slot, each of R and Θ with
// a stale byte per entry.  Every write to `group_` goes through one helper;
// when it changes a slot's signature it refreshes D there for every class
// and marks the R entries whose window covers the slot stale.  `place()`
// marks a class's Θ entries stale only where it raised the count of one
// of the class's nodes to θ or more.  Per access, one branch-free pass
// gathers the available start slots and the stale entries among them, the
// stale entries are refilled (R with the same σ values in the same term
// order as `reuse_factor`, Θ with the same integers as `average_excess`),
// and one pass over the gathered slots selects; a second pass forms E_t
// only when no slot keeps θ.  Schedules are therefore bit-identical to the
// reference implementation (tests/core/scheduler_differential_test.cc).
// A result row is a placement only (no copy of the record), so after a
// warm-up run, `reset()` + `schedule_into()` perform no heap allocation at
// any I/O-node count (tests/core/scheduler_alloc_test.cc).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/access.h"
#include "core/signature.h"
#include "util/annotations.h"

namespace dasched {

/// The order accesses are placed in (step 1): most constrained first, i.e.
/// nondecreasing slack length, access id as the deterministic tie-break.
/// Telemetry replays placements from a compiled schedule in this order.
[[nodiscard]] inline bool placed_before(const AccessRecord& a,
                                        const AccessRecord& b) {
  if (a.slack_length() != b.slack_length()) {
    return a.slack_length() < b.slack_length();
  }
  return a.id < b.id;
}

struct ScheduleOptions {
  /// Vertical reuse range δ (slots), Table II default 20.
  int delta = 20;
  /// Per-I/O-node, per-slot access cap θ; 0 disables the constraint.
  /// Table II default 4.
  int theta = 4;
  /// Upper bound on candidate start slots examined per access.  Slacks wider
  /// than this are sampled at an even stride (the original point is always
  /// examined) — the scheduling-cost analogue of the paper's d-coarsening.
  /// 0 examines every slot.
  int max_candidates = 128;

  friend bool operator==(const ScheduleOptions&, const ScheduleOptions&) =
      default;
};

/// Aggregate statistics of one scheduling run.
struct ScheduleStats {
  std::int64_t scheduled = 0;
  /// Accesses pinned to their original point because their whole slack was
  /// occupied by same-process accesses.
  std::int64_t forced = 0;
  /// Accesses placed at a slot violating θ via the E_t fallback.
  std::int64_t theta_fallbacks = 0;
  /// Mean displacement (original - chosen slot) over all accesses.
  double mean_advance_slots = 0.0;
};

class AccessScheduler {
 public:
  /// `num_io_nodes` sizes the signatures; `num_slots` bounds slot indices.
  AccessScheduler(int num_io_nodes, Slot num_slots, ScheduleOptions opts = {});

  /// Schedules all accesses; row i of the result is the placement of
  /// accesses[i] (the batch order, whatever the ids).
  std::vector<ScheduledAccess> schedule(
      const std::vector<AccessRecord>& accesses);

  /// Same, into a caller-provided result vector (resized to the batch).
  /// With a warmed `out` capacity this performs zero heap allocations.
  DASCHED_HOT void schedule_into(std::span<const AccessRecord> accesses,
                     std::vector<ScheduledAccess>& out);

  /// Clears the timeline (group signatures, θ counts, process occupancy,
  /// stats), keeping every buffer's capacity — the allocation-free way to
  /// reuse one scheduler across runs.
  DASCHED_HOT void reset();

  // --- Introspection (also used by unit tests and incremental callers) -----

  /// Reuse factor of starting `rec` at `slot` (inside the timeline), given
  /// the current timeline.
  [[nodiscard]] double reuse_factor(const AccessRecord& rec, Slot slot) const;

  /// Same, with explicit outside-window weights: sigma[j] is the weight of a
  /// slot j positions outside the occupied window (sigma[0] applies inside).
  /// Lets tests reproduce the paper's rounded worked examples verbatim.
  [[nodiscard]] double reuse_factor_with_weights(
      const AccessRecord& rec, Slot slot, std::span<const double> sigma) const;

  /// Commits `rec` to start at `slot` (updates group signatures, θ counts
  /// and process occupancy).
  void place(const AccessRecord& rec, Slot slot);

  /// True when no same-process access occupies any of [slot, slot+len-1].
  [[nodiscard]] bool available(int process, Slot slot, int length) const;

  /// True when placing `rec` at `slot` keeps every I/O node at or below θ
  /// in every occupied slot.  Always true when θ == 0.
  [[nodiscard]] bool theta_ok(const AccessRecord& rec, Slot slot) const;

  /// Average number of accesses beyond θ per over-subscribed node across the
  /// slots `rec` would occupy starting at `slot` (the paper's E_t), with the
  /// candidate access hypothetically placed.
  [[nodiscard]] double average_excess(const AccessRecord& rec, Slot slot) const;

  /// Group active signature of one slot.
  [[nodiscard]] const Signature& group_signature(Slot slot) const;

  /// Linear decay weight σ_j = 1 - j/(δ+1) (j = 0 inside the window).
  [[nodiscard]] static double weight(int outside_distance, int delta);

  [[nodiscard]] const ScheduleStats& stats() const { return stats_; }
  [[nodiscard]] int num_io_nodes() const { return num_nodes_; }
  [[nodiscard]] Slot num_slots() const { return num_slots_; }
  [[nodiscard]] const ScheduleOptions& options() const { return opts_; }

 private:
  /// Σ(M − θ) and the number of (slot, node) pairs with M > θ, where M is
  /// a node's count plus one, over the nodes of `sig` in the timeline slots
  /// of [t, t + length − 1]: θ holds iff `oversubscribed` is 0, and E_t is
  /// `excess / oversubscribed`.  A term is at most 2^16 (the counts are
  /// 16-bit), so 32 bits hold any access of fewer than 2^15 slot-node
  /// pairs.
  struct ThetaCell {
    std::int32_t excess;
    std::int32_t oversubscribed;
  };
  [[nodiscard]] ThetaCell theta_cell(const Signature& sig, int length,
                                     Slot t) const;

  [[nodiscard]] double reciprocal_distance(const AccessRecord& rec, Slot s) const;
  void ensure_process(int process);

  /// ORs `sig` into `group_[s]`; every OR into `group_` goes through here.
  /// When that sets a new bit, refreshes D at `s` for every class and marks
  /// stale the R entries whose σ window covers `s`.
  void merge_into_group(const Signature& sig, Slot s);

  /// Marks stale the Θ entries of the classes whose signature holds `node`
  /// and whose occupied slots would include `s`.
  void mark_theta_stale(int node, Slot s);

  /// Interns `accesses` into (signature, length) classes (`class_of_`) and
  /// builds each class's D row from the current `group_`, all R and Θ
  /// entries stale, and the per-node class lists.
  void build_class_tables(std::span<const AccessRecord> accesses);
  [[nodiscard]] std::uint32_t intern(const AccessRecord& rec);

  /// Stores the available candidate start slots of `rec` (class `c`) in
  /// `slots_`, ascending, and refreshes the stale R and Θ entries among
  /// them.  Returns how many it stored.
  template <bool kTheta>
  std::size_t gather_candidates(const AccessRecord& rec, std::uint32_t c);
  /// Re-sums R[c][t] from D for the `count` start slots at `ts`.
  void refresh_reuse(std::uint32_t c, const Slot* ts, std::size_t count);

  int num_nodes_;
  Slot num_slots_;
  ScheduleOptions opts_;

  /// Per-slot OR of the unit signatures of already-scheduled accesses.
  std::vector<Signature> group_;
  /// Per-slot, per-node scheduled-access counts (only kept when θ > 0).
  std::vector<std::uint16_t> node_counts_;  // [slot * num_nodes_ + node]
  /// Per-process slot occupancy.
  std::vector<std::vector<char>> occupied_;

  /// σ table: sigma_[j] = weight(j, δ) for every j a window term inside
  /// the timeline can take, j ≤ min(δ, num_slots − 1).
  std::vector<double> sigma_;
  /// 1/d table over every possible distance d ∈ [0, 2n]: 1.0 / d, and 2.0
  /// for d == 0.
  std::vector<double> inv_dist_;

  /// One (signature, length) class of the batch in `schedule_into`.  Its
  /// rows cover the slots [lo, hi] any window of its accesses can reach,
  /// at `offset` in `table_d_`, `table_r_`, `stale_`, `table_theta_` and
  /// `theta_stale_`.
  struct ReuseClass {
    /// First access of the class; points into the batch, so `classes_` is
    /// emptied when `schedule_into` returns.
    const AccessRecord* rep;
    Slot lo;
    Slot hi;
    std::size_t offset;
  };
  std::vector<ReuseClass> classes_;
  /// Open-addressed intern table of class ids (kNoClass = empty).
  std::vector<std::uint32_t> class_slots_;
  /// Class id of each access of the batch, by batch index.
  std::vector<std::uint32_t> class_of_;
  /// D[c][s] = inv_dist_[distance(sig_c, group_[s])].
  std::vector<double> table_d_;
  /// R[c][t], valid where `stale_` is 0.
  std::vector<double> table_r_;
  std::vector<std::uint8_t> stale_;
  /// Θ[c][t] = theta_cell(sig_c, l_c, t), valid where `theta_stale_` is 0
  /// (only kept when θ > 0).
  std::vector<ThetaCell> table_theta_;
  std::vector<std::uint8_t> theta_stale_;
  /// The classes whose signature holds each node (only kept when θ > 0):
  /// node v's are node_classes_[node_class_begin_[v] ..
  /// node_class_begin_[v + 1]).  All lists are empty outside a batch.
  std::vector<std::uint32_t> node_class_begin_;
  std::vector<std::uint32_t> node_classes_;

  // Reused per-access scratch (see gather_candidates): the available start
  // slots, and the stale R and Θ entries among them.
  std::vector<Slot> slots_;
  std::vector<Slot> stale_r_slots_;
  std::vector<Slot> stale_theta_slots_;
  std::vector<std::uint32_t> order_;

  ScheduleStats stats_;
};

}  // namespace dasched
