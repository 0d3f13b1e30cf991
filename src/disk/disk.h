// Event-driven model of a (possibly multi-speed) server disk.
//
// The disk owns a SCAN/elevator request queue (Table II: "Disk-Arm
// Scheduling: Elevator"), a mechanical service model (seek + rotational
// latency + media transfer, the latter two scaled by the current rotation
// speed), and a state machine covering service, idleness, full spin-down /
// spin-up, and DRPM-style speed transitions.  Energy is integrated
// continuously from the piecewise-constant per-state power of `PowerModel`.
//
// A `PowerPolicy` (see power/) may be attached; it receives idle-begin and
// request-arrival callbacks and steers the disk through `request_spin_down`,
// `request_spin_up` and `request_rpm`.  Without a policy the disk never
// leaves its maximum speed — the paper's "Default Scheme".
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "disk/disk_params.h"
#include "disk/elevator_queue.h"
#include "disk/power_model.h"
#include "sim/simulator.h"
#include "util/annotations.h"
#include "util/histogram.h"
#include "util/observer_list.h"
#include "util/rng.h"
#include "util/units.h"

namespace dasched {

class Disk;

/// Classification of a power policy's control decisions, for telemetry.
enum class PolicyDecision : int {
  kSpinDown = 0,  // full spin-down committed
  kPreWake,       // ahead-of-time spin-up / speed restore before predicted end
  kSetRpm,        // transition to a reduced rotation speed
  kRestoreRpm,    // return to full speed on request arrival
  kStepDown,      // one staggered ladder step down
};

inline constexpr int kNumPolicyDecisions = 5;

[[nodiscard]] const char* to_string(PolicyDecision d);

/// Passive tap on a power policy's decisions, used by the telemetry
/// recorder (src/telemetry).  Policies call the protected `note_*` helpers
/// of `PowerPolicy` at each decision point; with nothing attached those
/// cost one empty list test.
class PolicyObserver {
 public:
  virtual ~PolicyObserver() = default;

  /// The policy took `decision` on `disk`.  `predicted_idle` is the idle
  /// estimate behind the decision (0 when the policy has none) and `rpm`
  /// the target rotation speed (0 when not a speed decision).
  virtual void on_policy_action(const Disk& disk, PolicyDecision decision,
                                SimTime predicted_idle, Rpm rpm) {
    (void)disk, (void)decision, (void)predicted_idle, (void)rpm;
  }

  /// An idle period the policy was watching ended: it had predicted
  /// `predicted` of idleness and observed `actual`.
  virtual void on_idle_observed(const Disk& disk, SimTime predicted,
                                SimTime actual) {
    (void)disk, (void)predicted, (void)actual;
  }
};

/// Hardware power-management hook.  Concrete policies live in src/power.
class PowerPolicy {
 public:
  virtual ~PowerPolicy() = default;

  /// Called once when the policy is installed on a disk.
  virtual void attach(Disk& disk) { disk_ = &disk; }

  /// The disk finished its last queued request and is now idle (spinning).
  virtual void on_idle_begin() {}

  /// A request arrived; fired before the disk decides how to progress, so
  /// the policy can request a speed change or spin-up first.
  virtual void on_request_arrival() {}

  /// Forgets every timer, prediction and cooldown so the policy behaves
  /// exactly like a freshly constructed instance on its next run.  Any
  /// `EventHandle` a policy holds is already inert after the owning
  /// simulator's reset, so dropping it is safe.  Must not allocate — the
  /// workspace reuses policies in place on the zero-allocation path.
  virtual void reset() {}

  [[nodiscard]] virtual std::string name() const = 0;

  /// Adds one observer (not owned; duplicates and null are ignored).
  void add_observer(PolicyObserver* observer) { observers_.add(observer); }
  /// Detaches every observer.
  void clear_observers() { observers_.clear(); }

 protected:
  void note_action(PolicyDecision decision, SimTime predicted_idle, Rpm rpm) {
    observers_.notify([&](PolicyObserver* o) {
      o->on_policy_action(*disk_, decision, predicted_idle, rpm);
    });
  }
  void note_idle_observed(SimTime predicted, SimTime actual) {
    observers_.notify([&](PolicyObserver* o) {
      o->on_idle_observed(*disk_, predicted, actual);
    });
  }

  Disk* disk_ = nullptr;
  ObserverList<PolicyObserver> observers_;
};

struct DiskRequest {
  Bytes offset = 0;
  Bytes size = 0;
  bool is_write = false;
  /// Background transfers (cache/readahead prefetch) yield to demand
  /// requests: the arm serves the demand queue first.
  bool background = false;
  /// Invoked at the simulated completion instant.  Small-buffer `EventFn`
  /// (not `std::function`), so pooled-join completions ride inline.
  EventFn on_complete;
};

enum class DiskState : int;

/// Passive tap on the disk model, used by the invariant auditor (src/check)
/// and the telemetry recorder (src/telemetry).  All callbacks default to
/// no-ops; with nothing attached each hook site costs one empty list test,
/// so the hooks stay in release builds.  Multiple observers may be attached
/// at once (audit + telemetry compose).
class DiskObserver {
 public:
  virtual ~DiskObserver() = default;

  /// Fired on every state transition, after energy for `from` was accrued.
  virtual void on_state_change(const Disk& disk, DiskState from, DiskState to) {
    (void)disk, (void)from, (void)to;
  }

  /// `joules` were booked for `dt` spent in `state` at rotation speed `rpm`.
  virtual void on_energy_accrued(const Disk& disk, DiskState state, Rpm rpm,
                                 SimTime dt, Joules joules) {
    (void)disk, (void)state, (void)rpm, (void)dt, (void)joules;
  }

  /// The arm picked `req` and is about to start the mechanical service.
  virtual void on_service_start(const Disk& disk, const DiskRequest& req) {
    (void)disk, (void)req;
  }

  /// A request entered the disk queues.
  virtual void on_request_submitted(const Disk& disk, const DiskRequest& req) {
    (void)disk, (void)req;
  }

  /// The mechanical service of the current request finished (the completion
  /// callback has not run yet).  `service_time` covers seek + rotation +
  /// transfer; the disk serves one request at a time, so this always pairs
  /// with the latest `on_service_start`.
  virtual void on_service_complete(const Disk& disk, SimTime service_time) {
    (void)disk, (void)service_time;
  }

  /// The request stream went quiet: the queues drained and the last service
  /// completed.  Pairs with the next `on_stream_idle_end`.
  virtual void on_stream_idle_begin(const Disk& disk) { (void)disk; }

  /// A request arrival ended the current request-stream idle gap after
  /// `duration`.  `counted` mirrors DiskStats::idle_periods: the quiet span
  /// before the first request of the run is reported but not counted.
  virtual void on_stream_idle_end(const Disk& disk, SimTime duration,
                                  bool counted) {
    (void)disk, (void)duration, (void)counted;
  }

  /// `finalize()` accrued the trailing energy; stats are now complete.
  virtual void on_finalized(const Disk& disk) { (void)disk; }
};

enum class DiskState : int {
  kIdle = 0,        // spinning (at current_rpm), queue empty or about to serve
  kSeeking,
  kTransferring,    // rotational latency + media transfer
  kSpinningDown,
  kStandby,
  kSpinningUp,
  kChangingSpeed,   // DRPM transition between ladder speeds
};

inline constexpr int kNumDiskStates = 7;

[[nodiscard]] const char* to_string(DiskState s);

struct DiskStats {
  Joules energy_j{};
  std::array<Joules, kNumDiskStates> energy_by_state_j{};

  std::int64_t requests = 0;
  std::int64_t reads = 0;
  std::int64_t writes = 0;
  Bytes bytes_read = 0;
  Bytes bytes_written = 0;

  std::int64_t spin_downs = 0;
  std::int64_t spin_ups = 0;
  std::int64_t rpm_changes = 0;

  /// Wall-clock (simulated) time the disk spent servicing requests.
  SimTime busy_time = 0;
  /// Time spinning below the maximum speed (idle or serving).
  SimTime time_below_max_rpm = 0;
  /// Time in standby (fully spun down).
  SimTime time_in_standby = 0;

  /// Request-stream idle gaps (end of busy period -> next arrival).  This is
  /// the quantity plotted in Fig. 12 and is policy-independent.
  DurationHistogram idle_periods;
};

class Disk {
 public:
  Disk(Simulator& sim, DiskParams params, std::uint64_t seed = 1);

  Disk(const Disk&) = delete;
  Disk& operator=(const Disk&) = delete;

  /// Installs a power policy (may be null to clear).  The disk does not own
  /// the policy.
  void set_policy(PowerPolicy* policy);

  /// Adds one observer to the multiplexing list (audit and telemetry attach
  /// side by side).  Not owned; duplicates and null are ignored.
  void add_observer(DiskObserver* observer) { observers_.add(observer); }
  /// Detaches every observer.
  void clear_observers() { observers_.clear(); }

  /// Enqueues a request.  `req.on_complete` fires when the data transfer
  /// finishes, however long power-mode recovery takes.
  DASCHED_HOT void submit(DiskRequest req);

  // --- Policy-facing control ------------------------------------------------
  /// Begins a spin-down if the disk is idle; no-op otherwise.
  void request_spin_down();
  /// Begins a spin-up from standby (or queues one behind an in-flight
  /// spin-down); no-op if already spinning.
  void request_spin_up();
  /// Sets the desired rotation speed.  Takes effect as soon as the disk is
  /// idle; requests arriving mid-transition wait for it to finish.
  void request_rpm(Rpm rpm);

  [[nodiscard]] Simulator& sim() { return sim_; }
  [[nodiscard]] const Simulator& sim() const { return sim_; }
  [[nodiscard]] const DiskParams& params() const { return params_; }
  [[nodiscard]] const PowerModel& power_model() const { return power_; }
  [[nodiscard]] DiskState state() const { return state_; }
  [[nodiscard]] Rpm current_rpm() const { return rpm_; }
  [[nodiscard]] Rpm desired_rpm() const { return desired_rpm_; }
  /// Endpoints of the in-flight speed change (valid while kChangingSpeed).
  [[nodiscard]] Rpm transition_from() const { return transition_from_; }
  [[nodiscard]] Rpm transition_to() const { return transition_to_; }
  [[nodiscard]] bool queue_empty() const {
    return queue_.empty() && background_queue_.empty();
  }
  [[nodiscard]] std::size_t queue_depth() const {
    return queue_.size() + background_queue_.size();
  }

  /// Restores the constructor postcondition for a new run — spinning idle
  /// at `params.max_rpm`, empty elevator queues, no parked callback, RNG
  /// reseeded, zeroed statistics — while keeping queue blocks, the callback
  /// slab and histogram buckets warm so reuse allocates nothing.  Must run
  /// after the owning simulator's reset (the idle/accrual clocks restart at
  /// `sim.now()`, which a reset simulator reads as 0); any `EventHandle`
  /// the disk held is already inert by then.  The attached policy and
  /// observers are left alone: the owning node re-wires both per run.
  void reset(const DiskParams& params, std::uint64_t seed);

  /// Accrues energy up to the current instant and returns the statistics.
  /// Call once at end of simulation (idempotent at a fixed time).
  const DiskStats& finalize();

  [[nodiscard]] const DiskStats& stats() const { return stats_; }

  /// Estimated service time for a request of `size` bytes at speed `rpm`,
  /// excluding queueing (expected rotational latency = half a revolution).
  [[nodiscard]] SimTime expected_service_time(Bytes size, Rpm rpm) const;

 private:
  void accrue();
  [[nodiscard]] Watts current_power_w() const;
  void enter_state(DiskState s);
  void try_progress();
  DASCHED_HOT void start_service();
  void begin_spin_up(SimTime duration);
  void abort_spin_down();
  void begin_rpm_transition();
  void end_stream_idle_if_needed();
  std::uint32_t park_callback(EventFn&& fn);
  EventFn take_callback(std::uint32_t index);

  Simulator& sim_;
  DiskParams params_;
  PowerModel power_;
  Rng rng_;
  PowerPolicy* policy_ = nullptr;
  ObserverList<DiskObserver> observers_;

  DiskState state_ = DiskState::kIdle;
  Rpm rpm_;
  Rpm desired_rpm_;
  Rpm transition_from_ = 0;
  Rpm transition_to_ = 0;
  bool spin_up_pending_ = false;  // spin-up queued behind an active spin-down
  SimTime spin_down_started_ = 0;
  EventHandle spin_down_event_;

  /// A queued request's row in the elevator index, which keys it by its
  /// offset; which queue holds it says whether it is background.
  struct QueuedRequest {
    Bytes size;
    std::uint32_t callback;  // index into callbacks_, or kNoCallback
    bool is_write;
  };
  static constexpr std::uint32_t kNoCallback = UINT32_MAX;

  // Elevator queues (demand first, background second) and the SCAN sweep
  // direction.
  ElevatorQueue<QueuedRequest> queue_;
  ElevatorQueue<QueuedRequest> background_queue_;
  bool sweep_up_ = true;
  Bytes head_pos_ = 0;
  /// Completions of queued and in-service requests, parked here so the
  /// index rows stay small; only a request with a non-empty `on_complete`
  /// takes a slot.  Vacated slots recycle through `free_callbacks_`, whose
  /// capacity tracks the slab's, so releasing never allocates.
  std::vector<EventFn> callbacks_;
  std::vector<std::uint32_t> free_callbacks_;

  bool stream_idle_ = true;
  SimTime stream_idle_since_ = 0;

  SimTime last_accrue_ = 0;
  DiskStats stats_;
};

}  // namespace dasched
