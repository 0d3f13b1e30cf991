// Idle-period length predictor.
//
// The paper's prediction-based and history-based strategies "assume that
// successive idle periods exhibit similar behavior as far as their duration
// is concerned".  Real I/O-phase/compute-phase workloads produce
// *multi-modal* idle distributions:
//   burst gaps   (< ~1 s)   — between requests inside an I/O burst,
//   medium gaps  (1–60 s)   — per-iteration compute stretches, the
//                             multi-speed sweet spot,
//   long gaps    (>= ~60 s) — whole-program phases, the only idleness that
//                             clears the spin-down break-even point.
// The predictor keeps one exponentially weighted moving average per class.
// `predict()` follows the paper's premise (the next period resembles the
// last one's class); the per-class averages let the policies re-evaluate an
// idle period that has already outlived its initial prediction (policies.cc).
#pragma once

#include <cstdint>

#include "util/units.h"

namespace dasched {

class IdlePredictor {
 public:
  explicit IdlePredictor(double alpha = 0.5, SimTime medium_threshold = sec(1.0),
                         SimTime long_threshold = sec(60.0))
      : alpha_(alpha),
        medium_threshold_(medium_threshold),
        long_threshold_(long_threshold) {}

  enum class Class { kBurst, kMedium, kLong };

  [[nodiscard]] Class classify(SimTime idle_length) const {
    if (idle_length >= long_threshold_) return Class::kLong;
    if (idle_length >= medium_threshold_) return Class::kMedium;
    return Class::kBurst;
  }

  /// Records a completed idle period.
  void observe(SimTime idle_length) {
    const double x = static_cast<double>(idle_length);
    const Class c = classify(idle_length);
    Bucket& b = bucket(c);
    b.ewma = b.count == 0 ? x : alpha_ * x + (1.0 - alpha_) * b.ewma;
    b.count += 1;
    consecutive_same_ = (count_ > 0 && c == last_class_) ? consecutive_same_ + 1 : 1;
    last_class_ = c;
    count_ += 1;
  }

  /// Predicted length of the next idle period: the average of the class the
  /// last period fell into; 0 until the first observation.
  [[nodiscard]] SimTime predict() const {
    if (count_ == 0) return 0;
    return static_cast<SimTime>(bucket(last_class_).ewma);
  }

  /// Average of previously seen medium gaps (0 when none).
  [[nodiscard]] SimTime medium_ewma() const {
    return static_cast<SimTime>(medium_.ewma);
  }
  /// Average of previously seen long (phase) gaps (0 when none).
  [[nodiscard]] SimTime long_ewma() const {
    return static_cast<SimTime>(long_.ewma);
  }

  [[nodiscard]] std::int64_t observations() const { return count_; }
  /// Length of the current run of same-class observations; policies commit
  /// at idle *begin* only when the run is >= 2, otherwise they wait for a
  /// re-check to confirm (avoids acting on one-off outliers).
  [[nodiscard]] std::int64_t consecutive_same_class() const {
    return consecutive_same_;
  }
  [[nodiscard]] SimTime medium_threshold() const { return medium_threshold_; }
  [[nodiscard]] SimTime long_threshold() const { return long_threshold_; }

 private:
  struct Bucket {
    double ewma = 0.0;
    std::int64_t count = 0;
  };

  [[nodiscard]] Bucket& bucket(Class c) {
    switch (c) {
      case Class::kBurst: return burst_;
      case Class::kMedium: return medium_;
      case Class::kLong: return long_;
    }
    return burst_;
  }
  [[nodiscard]] const Bucket& bucket(Class c) const {
    return const_cast<IdlePredictor*>(this)->bucket(c);
  }

  double alpha_;
  SimTime medium_threshold_;
  SimTime long_threshold_;
  Bucket burst_;
  Bucket medium_;
  Bucket long_;
  std::int64_t count_ = 0;
  std::int64_t consecutive_same_ = 0;
  Class last_class_ = Class::kBurst;
};

}  // namespace dasched
