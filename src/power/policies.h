// The paper's four disk power-saving mechanisms (Sec. II).
//
//  * SimpleSpinDown      — spin down after a fixed idleness timeout x,
//                          spin up on the next request (Fig. 2).
//  * PredictionSpinDown  — predict the next idle length; if it clears the
//                          spin-down break-even point, spin down immediately
//                          and spin back up ahead of the predicted end.  An
//                          idle period that outlives its prediction is
//                          re-evaluated against the long-class average.
//  * HistoryMultiSpeed   — predict the idle length and transition to the
//                          most appropriate RPM, returning to full speed
//                          ahead of time (Fig. 3a); same re-evaluation.
//  * StaggeredMultiSpeed — walk down the RPM ladder one step per x1 msec of
//                          continued idleness; return to full speed when the
//                          next request arrives (Fig. 3b).
//
// All four work with or without the compiler-directed scheduling framework.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "disk/disk.h"
#include "power/idle_predictor.h"

namespace dasched {

/// Tunables for the four mechanisms (paper Sec. V-A defaults).
struct PolicyConfig {
  /// Simple: idleness timeout before spinning down.
  SimTime simple_timeout = msec(50.0);
  /// Simple: minimum time the disk stays up after a spin-up before another
  /// spin-down may trigger.  Guards against the rolling-blackout failure
  /// mode of fixed-timeout policies (cf. adaptive spin-down policies,
  /// Douglis et al.); disk firmware ships equivalent duty-cycle limits.
  SimTime simple_cooldown = sec(30.0);
  /// Staggered: wait between successive downward speed steps (x1), also used
  /// as the initial wait before the first step.
  SimTime staggered_step = msec(50.0);
  /// Staggered: minimum full-speed dwell after a restore before stepping
  /// down again (same duty-cycle guard as simple_cooldown).
  SimTime staggered_cooldown = sec(30.0);
  /// EWMA smoothing for the idle-length predictors.
  double ewma_alpha = 0.5;
  /// Idle-class boundaries (see IdlePredictor): burst / medium / long.
  SimTime medium_idle_threshold = sec(1.0);
  SimTime long_idle_threshold = sec(60.0);
  /// Prediction/History: required ratio of predicted idleness over the
  /// break-even length before committing to a transition.
  double breakeven_margin = 1.1;
  /// Prediction/History: minimum delay before re-evaluating an idle period
  /// that outlived its prediction.
  SimTime recheck_min = msec(500.0);

  friend bool operator==(const PolicyConfig&, const PolicyConfig&) = default;
};

class SimpleSpinDown final : public PowerPolicy {
 public:
  explicit SimpleSpinDown(PolicyConfig cfg = {}) : cfg_(cfg) {}

  void on_idle_begin() override;
  void on_request_arrival() override;
  void reset() override {
    timer_ = EventHandle();
    last_spin_ups_ = 0;
    cooldown_until_ = 0;
  }
  [[nodiscard]] std::string name() const override { return "simple"; }

 private:
  PolicyConfig cfg_;
  EventHandle timer_;
  std::int64_t last_spin_ups_ = 0;
  SimTime cooldown_until_ = 0;
};

class PredictionSpinDown final : public PowerPolicy {
 public:
  explicit PredictionSpinDown(PolicyConfig cfg = {})
      : cfg_(cfg),
        predictor_(cfg.ewma_alpha, cfg.medium_idle_threshold,
                   cfg.long_idle_threshold) {}

  void on_idle_begin() override;
  void on_request_arrival() override;
  void reset() override {
    predictor_ = IdlePredictor(cfg_.ewma_alpha, cfg_.medium_idle_threshold,
                               cfg_.long_idle_threshold);
    idle_since_.reset();
    last_predicted_ = 0;
    recheck_timer_ = EventHandle();
    wakeup_timer_ = EventHandle();
  }
  [[nodiscard]] std::string name() const override { return "prediction"; }

  /// Idle length above which a spin-down saves energy (computed from the
  /// disk's power/time constants).
  [[nodiscard]] SimTime break_even() const;

 private:
  void commit(SimTime expected_remaining);
  void recheck();
  [[nodiscard]] bool still_idle() const;

  PolicyConfig cfg_;
  IdlePredictor predictor_;
  std::optional<SimTime> idle_since_;
  SimTime last_predicted_ = 0;  // prediction made at idle begin (telemetry)
  EventHandle recheck_timer_;
  EventHandle wakeup_timer_;
};

class HistoryMultiSpeed final : public PowerPolicy {
 public:
  explicit HistoryMultiSpeed(PolicyConfig cfg = {})
      : cfg_(cfg),
        predictor_(cfg.ewma_alpha, cfg.medium_idle_threshold,
                   cfg.long_idle_threshold) {}

  void on_idle_begin() override;
  void on_request_arrival() override;
  void reset() override {
    predictor_ = IdlePredictor(cfg_.ewma_alpha, cfg_.medium_idle_threshold,
                               cfg_.long_idle_threshold);
    idle_since_.reset();
    last_predicted_ = 0;
    recheck_timer_ = EventHandle();
    restore_timer_ = EventHandle();
  }
  [[nodiscard]] std::string name() const override { return "history"; }

  /// Chooses the energy-optimal feasible speed for a predicted idle length;
  /// returns max RPM when no reduced speed pays off.
  [[nodiscard]] Rpm choose_rpm(SimTime predicted_idle) const;

 private:
  void commit(SimTime expected_remaining);
  void recheck();
  [[nodiscard]] bool still_idle() const;

  PolicyConfig cfg_;
  IdlePredictor predictor_;
  std::optional<SimTime> idle_since_;
  SimTime last_predicted_ = 0;  // prediction made at idle begin (telemetry)
  EventHandle recheck_timer_;
  EventHandle restore_timer_;
};

class StaggeredMultiSpeed final : public PowerPolicy {
 public:
  explicit StaggeredMultiSpeed(PolicyConfig cfg = {}) : cfg_(cfg) {}

  void on_idle_begin() override;
  void on_request_arrival() override;
  void reset() override {
    step_timer_ = EventHandle();
    cooldown_until_ = 0;
  }
  [[nodiscard]] std::string name() const override { return "staggered"; }

 private:
  void arm_step_timer();
  void step_down();

  PolicyConfig cfg_;
  EventHandle step_timer_;
  SimTime cooldown_until_ = 0;
};

/// The strategies evaluated in the paper, plus the Default (no policy).
enum class PolicyKind { kNone, kSimple, kPrediction, kHistory, kStaggered };

[[nodiscard]] const char* to_string(PolicyKind k);

/// Inverse of to_string; also accepts "none" for kNone.  nullopt on any
/// other name.  Never allocates.
[[nodiscard]] std::optional<PolicyKind> parse_policy(std::string_view name);

/// True when the policy needs a multi-speed (DRPM) disk.
[[nodiscard]] bool needs_multi_speed(PolicyKind k);

/// Creates a policy instance (nullptr for kNone).
[[nodiscard]] std::unique_ptr<PowerPolicy> make_policy(PolicyKind kind,
                                                       const PolicyConfig& cfg = {});

}  // namespace dasched
