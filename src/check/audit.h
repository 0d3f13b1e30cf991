// The invariant-audit subsystem (see DESIGN.md, "Verification & static
// analysis").
//
// A `SimAuditor` owns a set of pluggable `InvariantCheck`s.  Each check taps
// one or more simulation layers through the passive observer hooks the
// layers expose (`SimObserver`, `DiskObserver`, `IoNodeObserver`,
// `StorageObserver`) or validates compile-time artifacts directly, and
// reports `Violation`s back to the auditor.  The simulation itself never
// changes behaviour under audit: observers only read.
//
// The audit exists because the reproduced figures are energy/performance
// deltas from a deterministic simulator — a silent accounting bug (energy
// booked to the wrong mode, a request served by a spun-down disk, a
// double-booked scheduling slot) corrupts every figure without failing a
// functional test.  Every invariant here is a conservation or legality law
// the paper's model implies.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/units.h"

namespace dasched {

/// One detected invariant breach.
struct Violation {
  /// Name of the check that fired (e.g. "energy-conservation").
  std::string check;
  /// Human-readable description with the offending values.
  std::string detail;
  /// Simulated time of detection; 0 for compile-time artifact checks.
  SimTime time = 0;
};

class SimAuditor;

/// Base class of all invariant checks.  Concrete checks additionally derive
/// from the observer interface(s) of the layers they audit.
class InvariantCheck {
 public:
  explicit InvariantCheck(SimAuditor& auditor) : auditor_(auditor) {}
  InvariantCheck(const InvariantCheck&) = delete;
  InvariantCheck& operator=(const InvariantCheck&) = delete;
  virtual ~InvariantCheck() = default;

  [[nodiscard]] virtual const char* name() const = 0;

  /// End-of-run cross-checks; called once by `SimAuditor::finalize()`.
  virtual void at_end() {}

 protected:
  /// Records a violation against this check.
  void fail(SimTime time, std::string detail);
  /// Counts one invariant evaluation (kept cheap: a single increment).
  void evaluated();

  SimAuditor& auditor_;
};

/// Registry and violation sink for one audited run.
class SimAuditor {
 public:
  SimAuditor() = default;
  SimAuditor(const SimAuditor&) = delete;
  SimAuditor& operator=(const SimAuditor&) = delete;

  /// Constructs a check in place and registers it.  The auditor owns it.
  template <typename Check, typename... Args>
  Check& add_check(Args&&... args) {
    auto check = std::make_unique<Check>(*this, std::forward<Args>(args)...);
    Check& ref = *check;
    checks_.push_back(std::move(check));
    return ref;
  }

  /// Keeps an auxiliary wiring object (observer fan-out, etc.) alive for the
  /// auditor's lifetime.
  void adopt(std::shared_ptr<void> component) {
    components_.push_back(std::move(component));
  }

  /// Records a violation.  Storage is capped; `violations_total()` keeps the
  /// true count.
  void record(Violation v);

  /// Runs every check's end-of-run pass.  Idempotent.
  void finalize();

  [[nodiscard]] bool clean() const { return violations_total_ == 0; }
  [[nodiscard]] const std::vector<Violation>& violations() const {
    return violations_;
  }
  [[nodiscard]] std::int64_t violations_total() const {
    return violations_total_;
  }
  [[nodiscard]] std::int64_t evaluations() const { return evaluations_; }
  [[nodiscard]] std::size_t num_checks() const {
    return checks_.size();
  }

  /// Multi-line human-readable report (violations or an all-clear line).
  [[nodiscard]] std::string report() const;

 private:
  friend class InvariantCheck;

  static constexpr std::size_t kMaxStoredViolations = 256;

  std::vector<std::unique_ptr<InvariantCheck>> checks_;
  std::vector<std::shared_ptr<void>> components_;
  std::vector<Violation> violations_;
  std::int64_t violations_total_ = 0;
  std::int64_t evaluations_ = 0;
  bool finalized_ = false;
};

}  // namespace dasched
