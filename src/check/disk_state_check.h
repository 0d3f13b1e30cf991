// Disk state-machine legality (invariant 2 of the audit catalog).
//
// Watches every disk state transition against the legal-transition matrix of
// the mechanical model: a request may only enter service from the idle
// (spinning) state — never while in standby or mid spin-up/down — speed
// changes must move between valid ladder points (one downward step at a time
// under the Staggered policy), and the duty-cycle cooldowns
// (`simple_cooldown` / `staggered_cooldown`) must separate a spin-up (or
// full-speed restore) from the next power-saving transition.
//
// It also re-derives the elevator's picks (OSTEP ch. 37 §37.5): from the
// submissions it rebuilds each disk's demand and background queues as
// multimaps (which iterate equal offsets in arrival order), tracks the head
// and the sweep direction, and flags any request that enters service other
// than the one a SCAN sweep over those queues picks — demand first, FIFO
// among equal offsets.
#pragma once

#include <map>
#include <unordered_map>

#include "check/audit.h"
#include "disk/disk.h"
#include "power/policies.h"
#include "util/annotations.h"

namespace dasched {

class DASCHED_OBSERVER_PASSIVE DiskStateMachineCheck final
    : public InvariantCheck,
      public DiskObserver {
 public:
  /// `policy`/`cfg` describe the power policy driving the audited disks, so
  /// the policy-specific invariants (cooldowns, Staggered adjacency) apply.
  DiskStateMachineCheck(SimAuditor& auditor, PolicyKind policy = PolicyKind::kNone,
                        PolicyConfig cfg = {})
      : InvariantCheck(auditor), policy_(policy), cfg_(cfg) {}

  [[nodiscard]] const char* name() const override {
    return "disk-state-machine";
  }

  // DiskObserver -------------------------------------------------------------
  void on_state_change(const Disk& disk, DiskState from, DiskState to) override;
  void on_service_start(const Disk& disk, const DiskRequest& req) override;
  void on_request_submitted(const Disk& disk, const DiskRequest& req) override;

  /// True when the state machine may move from `from` to `to`.
  [[nodiscard]] static bool legal_transition(DiskState from, DiskState to);

 private:
  /// A queued request as the submission showed it.
  struct Queued {
    Bytes size;
    bool is_write;
  };
  using ScanQueue = std::multimap<Bytes, Queued>;

  struct DiskTrack {
    /// Completion time of the last spin-up (kSpinningUp -> kIdle); -1 before
    /// the first one.
    SimTime last_spin_up_done = -1;
    /// Last arrival that found the disk below full speed (it restarts the
    /// Staggered cooldown clock); -1 before the first one.
    SimTime last_slow_arrival = -1;
    /// Completion time of the last speed change (kChangingSpeed -> kIdle);
    /// -1 before the first one.  A Staggered descent may cross several
    /// ladder points in one transition only when it starts at this instant
    /// (steps queued while the previous transition was in flight drain as
    /// one batch — see StaggeredMultiSpeed).
    SimTime last_speed_change_done = -1;

    // The elevator as the submissions and picks so far imply it.
    ScanQueue demand;
    ScanQueue background;
    Bytes head = 0;
    bool sweep_up = true;
  };

  void check_rpm_transition(const Disk& disk, const DiskTrack& track,
                            SimTime now);
  void check_scan_pick(const Disk& disk, DiskTrack& track,
                       const DiskRequest& req);

  PolicyKind policy_;
  PolicyConfig cfg_;
  std::unordered_map<const Disk*, DiskTrack> tracks_;
};

}  // namespace dasched
