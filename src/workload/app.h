// Workload models of the paper's six applications (Table III).
//
// The originals are parallel, I/O-intensive scientific codes with dataset
// sizes of 190-446 GB.  We reproduce each one's *structure* — loop nests,
// request sizes, stride patterns, read/write mix, phase layout and
// compute-to-I/O ratio — at a dataset and runtime scale of roughly 1/8 so a
// simulation completes in seconds of wall time.  All reported paper
// comparisons are on values normalized to the Default scheme, which is
// invariant under this uniform scaling (see DESIGN.md).
//
// Five applications are expressed in the affine loop-nest IR (the paper's
// polyhedral path); madbench2 is recorded through the profiling front end
// (TraceBuilder) to exercise the non-affine path.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "compiler/program.h"
#include "storage/striping.h"
#include "util/units.h"

namespace dasched {

struct WorkloadScale {
  int num_processes = 32;
  /// Multiplies iteration counts; 1.0 = the calibrated default, small values
  /// (e.g. 0.05) give test-sized runs.
  double factor = 1.0;

  [[nodiscard]] std::int64_t scaled(std::int64_t n, std::int64_t min = 2) const {
    const auto v = static_cast<std::int64_t>(static_cast<double>(n) * factor);
    return v < min ? min : v;
  }
};

struct App {
  std::string name;
  std::string description;
  /// Table III reference values (unscaled originals).
  double paper_exec_minutes = 0.0;
  double paper_energy_joules = 0.0;
  /// True when the app goes through the profiling (trace) front end.
  bool uses_profiling = false;
  /// Per-app compile tweaks.
  Bytes length_unit = mib(1);
  /// > 0: the workload defines its own process count (replayed traces carry
  /// theirs in the trace); callers must run it with exactly this many
  /// processes instead of scaling WorkloadScale::num_processes freely.
  int fixed_processes = 0;
  /// Registers the app's files on `striping` and returns the lowered
  /// per-process slot plans.
  std::function<CompiledProgram(StripingMap&, const WorkloadScale&)> build;
};

/// The six applications, in Table III order:
/// hf, sar, astro, apsi, madbench2, wupwise.
[[nodiscard]] const std::vector<App>& all_apps();

/// Lookup by name: the six built-ins first, then the registered-app table.
/// Throws std::out_of_range for unknown names.
[[nodiscard]] const App& app_by_name(const std::string& name);

/// Registers a dynamically built app (a replayed trace) under `app.name` and
/// returns a stable reference resolvable through `app_by_name`.  Thread-safe;
/// registration is first-wins and idempotent — re-registering an existing
/// name returns the original entry unchanged, so content-addressed names
/// (replay:<fingerprint>) make concurrent uploads of the same trace converge
/// on one shared App.  Shadowing a built-in name throws
/// std::invalid_argument.  Registered apps live for the process lifetime.
const App& register_app(App app);

}  // namespace dasched
