#include "disk/disk.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace dasched {

const char* to_string(PolicyDecision d) {
  switch (d) {
    case PolicyDecision::kSpinDown: return "spin-down";
    case PolicyDecision::kPreWake: return "pre-wake";
    case PolicyDecision::kSetRpm: return "set-rpm";
    case PolicyDecision::kRestoreRpm: return "restore-rpm";
    case PolicyDecision::kStepDown: return "step-down";
  }
  return "?";
}

const char* to_string(DiskState s) {
  switch (s) {
    case DiskState::kIdle: return "idle";
    case DiskState::kSeeking: return "seeking";
    case DiskState::kTransferring: return "transferring";
    case DiskState::kSpinningDown: return "spinning-down";
    case DiskState::kStandby: return "standby";
    case DiskState::kSpinningUp: return "spinning-up";
    case DiskState::kChangingSpeed: return "changing-speed";
  }
  return "?";
}

Disk::Disk(Simulator& sim, DiskParams params, std::uint64_t seed)
    : sim_(sim),
      params_(params),
      power_(params),
      rng_(seed),
      rpm_(params.max_rpm),
      desired_rpm_(params.max_rpm),
      stream_idle_since_(sim.now()),
      last_accrue_(sim.now()) {}

void Disk::reset(const DiskParams& params, std::uint64_t seed) {
  params_ = params;
  power_ = PowerModel(params);
  rng_.reseed(seed);
  state_ = DiskState::kIdle;
  rpm_ = params.max_rpm;
  desired_rpm_ = params.max_rpm;
  transition_from_ = 0;
  transition_to_ = 0;
  spin_up_pending_ = false;
  spin_down_started_ = 0;
  spin_down_event_ = EventHandle();
  queue_.clear();
  background_queue_.clear();
  sweep_up_ = true;
  head_pos_ = 0;
  in_service_complete_ = EventFn();
  stream_idle_ = true;
  stream_idle_since_ = sim_.now();
  last_accrue_ = sim_.now();
  // Zero the stats in place: everything but the histogram is scalar, and
  // the histogram keeps its bucket storage across clear().  (No DiskStats{}
  // temporary — its histogram member would allocate on every reset.)
  stats_.energy_j = Joules{};
  stats_.energy_by_state_j.fill(Joules{});
  stats_.requests = 0;
  stats_.reads = 0;
  stats_.writes = 0;
  stats_.bytes_read = 0;
  stats_.bytes_written = 0;
  stats_.spin_downs = 0;
  stats_.spin_ups = 0;
  stats_.rpm_changes = 0;
  stats_.busy_time = 0;
  stats_.time_below_max_rpm = 0;
  stats_.time_in_standby = 0;
  stats_.idle_periods.clear();
}

void Disk::set_policy(PowerPolicy* policy) {
  policy_ = policy;
  if (policy_ != nullptr) policy_->attach(*this);
}

Watts Disk::current_power_w() const {
  switch (state_) {
    case DiskState::kIdle: return power_.idle_w(rpm_);
    case DiskState::kSeeking: return power_.seek_w(rpm_);
    case DiskState::kTransferring: return power_.active_w(rpm_);
    case DiskState::kSpinningDown: return power_.spin_down_w();
    case DiskState::kStandby: return power_.standby_w();
    case DiskState::kSpinningUp: return power_.spin_up_w();
    case DiskState::kChangingSpeed:
      return power_.rpm_transition_w(transition_from_, transition_to_);
  }
  return Watts{0.0};
}

void Disk::accrue() {
  const SimTime now = sim_.now();
  const SimTime dt = now - last_accrue_;
  if (dt <= 0) {
    last_accrue_ = now;
    return;
  }
  const Joules joules = current_power_w() * dt;
  observers_.notify([&](DiskObserver* o) {
    o->on_energy_accrued(*this, state_, rpm_, dt, joules);
  });
  stats_.energy_j += joules;
  stats_.energy_by_state_j[static_cast<int>(state_)] += joules;
  if (state_ == DiskState::kStandby) stats_.time_in_standby += dt;
  const bool spinning = state_ == DiskState::kIdle ||
                        state_ == DiskState::kSeeking ||
                        state_ == DiskState::kTransferring;
  if (spinning && rpm_ < params_.max_rpm) stats_.time_below_max_rpm += dt;
  last_accrue_ = now;
}

void Disk::enter_state(DiskState s) {
  accrue();
  const DiskState from = state_;
  state_ = s;
  if (from != s) {
    observers_.notify(
        [&](DiskObserver* o) { o->on_state_change(*this, from, s); });
  }
}

void Disk::end_stream_idle_if_needed() {
  if (!stream_idle_) return;
  stream_idle_ = false;
  const SimTime duration = sim_.now() - stream_idle_since_;
  // Only gaps between busy periods count as idle periods; the quiet span
  // before the first request of the run is not one.
  const bool counted = stats_.busy_time > 0;
  if (counted) stats_.idle_periods.add(duration);
  observers_.notify(
      [&](DiskObserver* o) { o->on_stream_idle_end(*this, duration, counted); });
}

void Disk::submit(DiskRequest req) {
  end_stream_idle_if_needed();
  observers_.notify(
      [&](DiskObserver* o) { o->on_request_submitted(*this, req); });
  stats_.requests += 1;
  if (req.is_write) {
    stats_.writes += 1;
    stats_.bytes_written += req.size;
  } else {
    stats_.reads += 1;
    stats_.bytes_read += req.size;
  }
  if (req.background) {
    const Bytes off = req.offset;
    background_queue_.push(off, std::move(req));
  } else {
    const Bytes off = req.offset;
    queue_.push(off, std::move(req));
  }
  if (policy_ != nullptr) policy_->on_request_arrival();
  try_progress();
}

void Disk::request_spin_down() {
  if (state_ != DiskState::kIdle || !queue_empty()) return;
  enter_state(DiskState::kSpinningDown);
  stats_.spin_downs += 1;
  spin_down_started_ = sim_.now();
  spin_down_event_ = sim_.schedule_after(params_.spin_down_time, [this] {
    enter_state(DiskState::kStandby);
    if (spin_up_pending_) {
      spin_up_pending_ = false;
      begin_spin_up(params_.spin_up_time);
    } else {
      try_progress();
    }
  });
}

void Disk::abort_spin_down() {
  assert(state_ == DiskState::kSpinningDown);
  spin_down_event_.cancel();
  spin_up_pending_ = false;
  // The platters have been decelerating for a while; re-acceleration takes a
  // proportional share of a full spin-up.
  const SimTime elapsed = sim_.now() - spin_down_started_;
  const double fraction = std::min(
      1.0, static_cast<double>(elapsed) /
               static_cast<double>(std::max<SimTime>(params_.spin_down_time, 1)));
  const auto recovery = static_cast<SimTime>(
      fraction * static_cast<double>(params_.spin_up_time));
  begin_spin_up(std::max<SimTime>(recovery, 1));
}

void Disk::request_spin_up() {
  if (state_ == DiskState::kStandby) {
    begin_spin_up(params_.spin_up_time);
  } else if (state_ == DiskState::kSpinningDown) {
    abort_spin_down();
  }
}

void Disk::begin_spin_up(SimTime duration) {
  assert(state_ == DiskState::kStandby || state_ == DiskState::kSpinningDown);
  enter_state(DiskState::kSpinningUp);
  stats_.spin_ups += 1;
  sim_.schedule_after(duration, [this] {
    rpm_ = params_.max_rpm;
    desired_rpm_ = params_.max_rpm;
    enter_state(DiskState::kIdle);
    try_progress();
  });
}

void Disk::request_rpm(Rpm rpm) {
  // Clamp to the ladder.
  if (rpm < params_.min_rpm) rpm = params_.min_rpm;
  if (rpm > params_.max_rpm) rpm = params_.max_rpm;
  const Rpm snapped =
      params_.min_rpm +
      ((rpm - params_.min_rpm + params_.rpm_step / 2) / params_.rpm_step) *
          params_.rpm_step;
  desired_rpm_ = snapped > params_.max_rpm ? params_.max_rpm : snapped;
  if (!params_.multi_speed) desired_rpm_ = params_.max_rpm;
  if (state_ == DiskState::kIdle) try_progress();
}

void Disk::begin_rpm_transition() {
  assert(state_ == DiskState::kIdle);
  if (rpm_ == desired_rpm_) return;
  transition_from_ = rpm_;
  transition_to_ = desired_rpm_;
  enter_state(DiskState::kChangingSpeed);
  stats_.rpm_changes += 1;
  sim_.schedule_after(params_.rpm_transition_time(transition_from_, transition_to_),
                      [this] {
                        rpm_ = transition_to_;
                        enter_state(DiskState::kIdle);
                        try_progress();
                      });
}

void Disk::try_progress() {
  switch (state_) {
    case DiskState::kIdle:
      if (rpm_ != desired_rpm_) {
        begin_rpm_transition();
      } else if (!queue_empty()) {
        start_service();
      }
      return;
    case DiskState::kStandby:
      if (!queue_empty()) begin_spin_up(params_.spin_up_time);
      return;
    case DiskState::kSpinningDown:
      // A request caught the disk mid-deceleration: abort and re-accelerate.
      if (!queue_empty()) abort_spin_down();
      return;
    default:
      // A completion event for the in-flight transition or service will
      // re-invoke try_progress().
      return;
  }
}

void Disk::start_service() {
  assert(state_ == DiskState::kIdle && !queue_empty());

  // Demand requests first; background prefetches fill the remaining slots.
  auto& q = queue_.empty() ? background_queue_ : queue_;

  // Elevator (SCAN): continue in the sweep direction, reverse at the end.
  DiskRequest req = q.take_next(head_pos_, sweep_up_);
  observers_.notify([&](DiskObserver* o) { o->on_service_start(*this, req); });

  const Bytes dist = req.offset > head_pos_ ? req.offset - head_pos_
                                            : head_pos_ - req.offset;
  SimTime seek_t = 0;
  if (dist > 0) {
    const double frac =
        static_cast<double>(dist) / static_cast<double>(params_.capacity);
    seek_t = params_.seek_min +
             static_cast<SimTime>(
                 static_cast<double>(params_.seek_max - params_.seek_min) *
                 std::sqrt(frac));
  }
  const SimTime rot_t = static_cast<SimTime>(
      rng_.next_double() * static_cast<double>(params_.rotation_period(rpm_)));
  const double rate_bytes_per_sec = params_.transfer_mb_per_sec_max_rpm * 1e6 *
                                    static_cast<double>(rpm_) /
                                    static_cast<double>(params_.max_rpm);
  const SimTime xfer_t =
      params_.controller_overhead +
      static_cast<SimTime>(static_cast<double>(req.size) / rate_bytes_per_sec *
                           static_cast<double>(kUsecPerSec));
  const SimTime total = seek_t + rot_t + xfer_t;

  enter_state(DiskState::kSeeking);
  if (seek_t > 0) {
    sim_.schedule_after(seek_t, [this] {
      if (state_ == DiskState::kSeeking) enter_state(DiskState::kTransferring);
    });
  } else {
    enter_state(DiskState::kTransferring);
  }

  head_pos_ = req.offset + req.size;
  if (head_pos_ >= params_.capacity) head_pos_ = params_.capacity - 1;

  // The completion is parked in a member rather than captured: nesting an
  // EventFn inside the completion event's capture would overflow the inline
  // buffer and heap-allocate.  Safe because service is strictly one-at-a-
  // time — the member is vacant until this event fires.
  in_service_complete_ = std::move(req.on_complete);
  auto complete = [this, total] {
    stats_.busy_time += total;
    observers_.notify(
        [&](DiskObserver* o) { o->on_service_complete(*this, total); });
    EventFn cb = std::move(in_service_complete_);
    if (queue_empty()) {
      enter_state(DiskState::kIdle);
      stream_idle_ = true;
      stream_idle_since_ = sim_.now();
      observers_.notify([&](DiskObserver* o) { o->on_stream_idle_begin(*this); });
      if (cb) cb();
      // The completion callback may have synchronously submitted a new
      // request, ending the idle period before it observably began.
      if (stream_idle_ && policy_ != nullptr) policy_->on_idle_begin();
      // The policy may have initiated a transition; if not, and a lower
      // desired speed is pending, start it.
      if (state_ == DiskState::kIdle) try_progress();
    } else {
      enter_state(DiskState::kIdle);
      if (cb) cb();
      try_progress();
    }
  };
  static_assert(EventFn::fits_inline<decltype(complete)>);
  sim_.schedule_after(total, complete);
}

SimTime Disk::expected_service_time(Bytes size, Rpm rpm) const {
  const SimTime avg_seek =
      params_.seek_min +
      static_cast<SimTime>(
          static_cast<double>(params_.seek_max - params_.seek_min) *
          std::sqrt(1.0 / 3.0));
  const SimTime half_rot = params_.rotation_period(rpm) / 2;
  const double rate_bytes_per_sec = params_.transfer_mb_per_sec_max_rpm * 1e6 *
                                    static_cast<double>(rpm) /
                                    static_cast<double>(params_.max_rpm);
  const SimTime xfer =
      params_.controller_overhead +
      static_cast<SimTime>(static_cast<double>(size) / rate_bytes_per_sec *
                           static_cast<double>(kUsecPerSec));
  return avg_seek + half_rot + xfer;
}

const DiskStats& Disk::finalize() {
  accrue();
  observers_.notify([&](DiskObserver* o) { o->on_finalized(*this); });
  return stats_;
}

}  // namespace dasched
