// Declarative experiment grids.
//
// Every figure/table in the paper is a cross product — applications × power
// policies × scheme on/off, sometimes crossed with one numeric sweep axis
// (δ, θ, #I/O nodes, cache/buffer capacity, slack bound).  `ExperimentGrid`
// states that product once; `cells()` expands it into fully derived
// `ExperimentConfig`s that `run_grid` (grid_runner.h) can execute serially
// or on a worker pool with bit-identical results.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "driver/experiment.h"

namespace dasched {

template <typename T>
struct KeyRow;
using ConfigKey = KeyRow<ExperimentConfig>;

/// One optional numeric axis over an integer config field; the key name
/// doubles as the CLI/result-sink label (e.g. "nodes=16").
struct SweepAxis {
  const ConfigKey* key = nullptr;
  std::vector<double> values;

  [[nodiscard]] bool empty() const { return values.empty(); }
  /// Writes `value` into the field through its config-key parser.
  void apply(ExperimentConfig& cfg, double value) const;
};

/// Builds the sweep axis over the config key `name` (a `sweep` row of
/// engine/config_keys.h: nodes, delta, theta, buffer_mib, cache_mib,
/// slack).  The axes are integer fields, so a value the field's parser
/// rejects (2.5, 1e20) is an error, as is an unknown name: both throw
/// ConfigError naming `sweep`.
[[nodiscard]] SweepAxis sweep_axis_by_name(const std::string& name,
                                           std::vector<double> values);

/// One fully expanded grid point.  `config` carries the derived per-cell
/// seed; the remaining fields label the cell for tables and result sinks.
struct GridCell {
  std::size_t index = 0;
  std::string app;
  PolicyKind policy = PolicyKind::kNone;
  bool scheme = false;
  bool has_sweep = false;
  std::string sweep_name;
  double sweep_value = 0.0;
  ExperimentConfig config;
};

struct ExperimentGrid {
  /// Template for every cell; app/policy/use_scheme/seed are overwritten
  /// per cell, everything else (scale, storage, compile, runtime…) is
  /// copied as-is before the sweep axis is applied.
  ExperimentConfig base;

  std::vector<std::string> apps{"sar"};
  std::vector<PolicyKind> policies{PolicyKind::kNone};
  /// Scheme axis; {false}, {true} or {false, true}.
  std::vector<bool> schemes{false};
  /// Optional numeric axis (empty = none).
  SweepAxis sweep;

  /// Per-cell seeds are derived from (base_seed, cell index) so cells are
  /// decorrelated yet independent of execution order; set
  /// `derive_seeds = false` to give every cell exactly `base_seed`.
  std::uint64_t base_seed = 1;
  bool derive_seeds = true;

  [[nodiscard]] std::size_t size() const;

  /// Expands the product in deterministic order:
  /// app-major, then policy, scheme, sweep value.
  [[nodiscard]] std::vector<GridCell> cells() const;

  /// splitmix64 of (base, index) — the per-cell seed derivation.
  [[nodiscard]] static std::uint64_t derive_seed(std::uint64_t base,
                                                 std::size_t index);
};

}  // namespace dasched
