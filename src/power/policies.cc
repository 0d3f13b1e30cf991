#include "power/policies.h"

#include <algorithm>
#include <limits>

namespace dasched {

// --------------------------------------------------------------------------
// SimpleSpinDown
// --------------------------------------------------------------------------

void SimpleSpinDown::on_idle_begin() {
  timer_.cancel();
  const SimTime now = disk_->sim().now();
  // Duty-cycle guard: a fresh spin-up opens a cooldown window during which
  // the timeout is deferred, breaking the rolling-blackout feedback loop
  // (spin-up stalls creating the very idleness that triggers the next
  // spin-down).
  const std::int64_t ups = disk_->stats().spin_ups;
  if (ups != last_spin_ups_) {
    last_spin_ups_ = ups;
    cooldown_until_ = now + cfg_.simple_cooldown;
  }
  const SimTime delay =
      std::max(cfg_.simple_timeout, cooldown_until_ - now);
  timer_ = disk_->sim().schedule_after(delay, [this] {
    if (disk_->state() == DiskState::kIdle && disk_->queue_empty()) {
      disk_->request_spin_down();
      note_action(PolicyDecision::kSpinDown, /*predicted_idle=*/0, /*rpm=*/0);
    }
  });
}

void SimpleSpinDown::on_request_arrival() { timer_.cancel(); }

// --------------------------------------------------------------------------
// PredictionSpinDown
// --------------------------------------------------------------------------

SimTime PredictionSpinDown::break_even() const {
  const DiskParams& p = disk_->params();
  const PowerModel& pm = disk_->power_model();
  const Watts idle_w = pm.idle_w(p.max_rpm);
  const Watts saved_per_sec = idle_w - pm.standby_w();
  if (saved_per_sec.value() <= 0) return std::numeric_limits<SimTime>::max();
  // Idle length L where spinning down + staying in standby + spinning back
  // up costs exactly as much as idling through:
  //   P_dn*t_dn + P_sb*(L - t_dn - t_up) + P_up*t_up = P_idle * L.
  const Joules numerator =
      pm.spin_down_w() * p.spin_down_time +
      pm.spin_up_w() * p.spin_up_time -
      pm.standby_w() * (p.spin_down_time + p.spin_up_time);
  return sec(numerator / saved_per_sec);
}

bool PredictionSpinDown::still_idle() const {
  return disk_->state() == DiskState::kIdle && disk_->queue_empty();
}

void PredictionSpinDown::commit(SimTime expected_remaining) {
  disk_->request_spin_down();
  note_action(PolicyDecision::kSpinDown, expected_remaining, /*rpm=*/0);
  const DiskParams& p = disk_->params();
  // Fig. 2: transition back to active ahead of time to hide the spin-up.
  const SimTime wake_at =
      disk_->sim().now() + expected_remaining - p.spin_up_time;
  const SimTime earliest = disk_->sim().now() + p.spin_down_time;
  wakeup_timer_.cancel();
  wakeup_timer_ = disk_->sim().schedule_at(std::max(wake_at, earliest), [this] {
    disk_->request_spin_up();
    note_action(PolicyDecision::kPreWake, last_predicted_, /*rpm=*/0);
    // Should the idle period outlive the prediction, resume watching it.
    recheck_timer_.cancel();
    recheck_timer_ = disk_->sim().schedule_after(
        disk_->params().spin_up_time + cfg_.recheck_min, [this] { recheck(); });
  });
}

void PredictionSpinDown::on_idle_begin() {
  idle_since_ = disk_->sim().now();
  const auto threshold = static_cast<SimTime>(
      cfg_.breakeven_margin * static_cast<double>(break_even()));
  const SimTime predicted = predictor_.predict();
  last_predicted_ = predicted;
  if (predictor_.consecutive_same_class() >= 2 && predicted >= threshold) {
    commit(predicted);  // "starts to spin down the disk right away"
    return;
  }
  // Otherwise re-evaluate once the period outlives typical burst gaps.
  recheck_timer_.cancel();
  recheck_timer_ = disk_->sim().schedule_after(
      std::max(2 * predicted, cfg_.recheck_min), [this] { recheck(); });
}

void PredictionSpinDown::recheck() {
  if (!still_idle() || !idle_since_.has_value()) return;
  const SimTime elapsed = disk_->sim().now() - *idle_since_;
  const auto threshold = static_cast<SimTime>(
      cfg_.breakeven_margin * static_cast<double>(break_even()));

  // An idle period that has covered a fair share of the historical phase
  // length is very likely a phase gap; estimate the remainder from history.
  const SimTime phase_avg = predictor_.long_ewma();
  SimTime remaining_est = 0;
  if (phase_avg > 0 && elapsed >= phase_avg / 16) {
    remaining_est = std::max(phase_avg - elapsed, elapsed);
  } else if (elapsed >= threshold) {
    remaining_est = elapsed;  // already enormous: bet on continuation
  }
  if (remaining_est >= threshold) {
    commit(remaining_est);
    return;
  }
  // Keep watching; checks thin out as the idle period grows.
  recheck_timer_ = disk_->sim().schedule_after(
      std::max(elapsed / 2, cfg_.recheck_min), [this] { recheck(); });
}

void PredictionSpinDown::on_request_arrival() {
  if (idle_since_.has_value()) {
    const SimTime actual = disk_->sim().now() - *idle_since_;
    predictor_.observe(actual);
    note_idle_observed(last_predicted_, actual);
    idle_since_.reset();
  }
  recheck_timer_.cancel();
  wakeup_timer_.cancel();
}

// --------------------------------------------------------------------------
// HistoryMultiSpeed
// --------------------------------------------------------------------------

Rpm HistoryMultiSpeed::choose_rpm(SimTime predicted_idle) const {
  const DiskParams& p = disk_->params();
  const PowerModel& pm = disk_->power_model();
  const Joules idle_at_max_j = pm.idle_w(p.max_rpm) * predicted_idle;

  Rpm best = p.max_rpm;
  Joules best_j = idle_at_max_j;
  p.for_each_rpm_level([&](Rpm r) {
    if (r == p.max_rpm) return;
    const SimTime down_t = p.rpm_transition_time(p.max_rpm, r);
    const SimTime up_t = p.rpm_transition_time(r, p.max_rpm);
    // Feasible only if we can reach the speed and come back within the
    // predicted idleness (the ahead-of-time return of Fig. 3a).
    if (down_t + up_t >= predicted_idle) return;
    const Joules trans_j = pm.rpm_transition_w(p.max_rpm, r) * down_t +
                           pm.rpm_transition_w(r, p.max_rpm) * up_t;
    const Joules dwell_j = pm.idle_w(r) * (predicted_idle - down_t - up_t);
    const Joules total = cfg_.breakeven_margin * (trans_j + dwell_j);
    if (total < best_j) {
      best_j = total;
      best = r;
    }
  });
  return best;
}

bool HistoryMultiSpeed::still_idle() const {
  return (disk_->state() == DiskState::kIdle ||
          disk_->state() == DiskState::kChangingSpeed) &&
         disk_->queue_empty();
}

void HistoryMultiSpeed::commit(SimTime expected_remaining) {
  const Rpm target = choose_rpm(expected_remaining);
  if (target == disk_->params().max_rpm) return;
  disk_->request_rpm(target);
  note_action(PolicyDecision::kSetRpm, expected_remaining, target);
  const SimTime up_t =
      disk_->params().rpm_transition_time(target, disk_->params().max_rpm);
  const SimTime down_t =
      disk_->params().rpm_transition_time(disk_->params().max_rpm, target);
  const SimTime wake_at = disk_->sim().now() + expected_remaining - up_t;
  restore_timer_.cancel();
  restore_timer_ = disk_->sim().schedule_at(
      std::max(wake_at, disk_->sim().now() + down_t), [this, up_t] {
        if (!disk_->queue_empty()) return;
        disk_->request_rpm(disk_->params().max_rpm);
        note_action(PolicyDecision::kPreWake, last_predicted_,
                    disk_->params().max_rpm);
        // If the idle period outlives the prediction, keep watching it; the
        // escalating re-check may slow the disk down again.
        recheck_timer_.cancel();
        recheck_timer_ = disk_->sim().schedule_after(
            up_t + cfg_.recheck_min, [this] { recheck(); });
      });
}

void HistoryMultiSpeed::on_idle_begin() {
  idle_since_ = disk_->sim().now();
  const SimTime predicted = predictor_.predict();
  last_predicted_ = predicted;
  if (predictor_.consecutive_same_class() >= 2 &&
      choose_rpm(predicted) != disk_->params().max_rpm) {
    commit(predicted);
    return;
  }
  recheck_timer_.cancel();
  recheck_timer_ = disk_->sim().schedule_after(
      std::max(2 * predicted, cfg_.recheck_min), [this] { recheck(); });
}

void HistoryMultiSpeed::recheck() {
  if (!still_idle() || !idle_since_.has_value()) return;
  const SimTime elapsed = disk_->sim().now() - *idle_since_;

  // Estimate the remainder from the best matching idle class the period has
  // grown into: phase gaps first, then per-iteration medium gaps, then the
  // period's own momentum.
  const SimTime phase_avg = predictor_.long_ewma();
  const SimTime medium_avg = predictor_.medium_ewma();
  SimTime remaining_est;
  if (phase_avg > 0 && elapsed >= phase_avg / 16) {
    remaining_est = std::max(phase_avg - elapsed, elapsed);
  } else if (medium_avg > 0 && elapsed >= medium_avg / 4) {
    remaining_est = std::max(medium_avg - elapsed, elapsed / 2);
  } else {
    remaining_est = elapsed;
  }
  if (choose_rpm(remaining_est) != disk_->params().max_rpm) {
    commit(remaining_est);
    return;
  }
  recheck_timer_ = disk_->sim().schedule_after(
      std::max(elapsed / 2, cfg_.recheck_min), [this] { recheck(); });
}

void HistoryMultiSpeed::on_request_arrival() {
  if (idle_since_.has_value()) {
    const SimTime actual = disk_->sim().now() - *idle_since_;
    predictor_.observe(actual);
    note_idle_observed(last_predicted_, actual);
    idle_since_.reset();
  }
  recheck_timer_.cancel();
  restore_timer_.cancel();
  if (disk_->desired_rpm() != disk_->params().max_rpm ||
      disk_->current_rpm() != disk_->params().max_rpm) {
    disk_->request_rpm(disk_->params().max_rpm);
    note_action(PolicyDecision::kRestoreRpm, /*predicted_idle=*/0,
                disk_->params().max_rpm);
  }
}

// --------------------------------------------------------------------------
// StaggeredMultiSpeed
// --------------------------------------------------------------------------

void StaggeredMultiSpeed::on_idle_begin() { arm_step_timer(); }

void StaggeredMultiSpeed::arm_step_timer() {
  step_timer_.cancel();
  const SimTime now = disk_->sim().now();
  const SimTime delay =
      std::max(cfg_.staggered_step, cooldown_until_ - now);
  step_timer_ =
      disk_->sim().schedule_after(delay, [this] { step_down(); });
}

void StaggeredMultiSpeed::step_down() {
  if (!disk_->queue_empty()) return;
  const DiskParams& p = disk_->params();
  const Rpm next = std::max(p.min_rpm, disk_->desired_rpm() - p.rpm_step);
  if (next == disk_->desired_rpm()) return;  // already at the floor
  disk_->request_rpm(next);
  note_action(PolicyDecision::kStepDown, /*predicted_idle=*/0, next);
  arm_step_timer();
}

void StaggeredMultiSpeed::on_request_arrival() {
  step_timer_.cancel();
  if (disk_->desired_rpm() != disk_->params().max_rpm ||
      disk_->current_rpm() != disk_->params().max_rpm) {
    disk_->request_rpm(disk_->params().max_rpm);
    note_action(PolicyDecision::kRestoreRpm, /*predicted_idle=*/0,
                disk_->params().max_rpm);
    // Full-speed dwell before the ladder walk may begin again.
    cooldown_until_ = disk_->sim().now() + cfg_.staggered_cooldown;
  }
}

// --------------------------------------------------------------------------
// Factory
// --------------------------------------------------------------------------

const char* to_string(PolicyKind k) {
  switch (k) {
    case PolicyKind::kNone: return "default";
    case PolicyKind::kSimple: return "simple";
    case PolicyKind::kPrediction: return "prediction";
    case PolicyKind::kHistory: return "history";
    case PolicyKind::kStaggered: return "staggered";
  }
  return "?";
}

std::optional<PolicyKind> parse_policy(std::string_view name) {
  if (name == "default" || name == "none") return PolicyKind::kNone;
  if (name == "simple") return PolicyKind::kSimple;
  if (name == "prediction") return PolicyKind::kPrediction;
  if (name == "history") return PolicyKind::kHistory;
  if (name == "staggered") return PolicyKind::kStaggered;
  return std::nullopt;
}

bool needs_multi_speed(PolicyKind k) {
  return k == PolicyKind::kHistory || k == PolicyKind::kStaggered;
}

std::unique_ptr<PowerPolicy> make_policy(PolicyKind kind, const PolicyConfig& cfg) {
  switch (kind) {
    case PolicyKind::kNone: return nullptr;
    case PolicyKind::kSimple: return std::make_unique<SimpleSpinDown>(cfg);
    case PolicyKind::kPrediction: return std::make_unique<PredictionSpinDown>(cfg);
    case PolicyKind::kHistory: return std::make_unique<HistoryMultiSpeed>(cfg);
    case PolicyKind::kStaggered: return std::make_unique<StaggeredMultiSpeed>(cfg);
  }
  return nullptr;
}

}  // namespace dasched
