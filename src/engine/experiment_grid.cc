#include "engine/experiment_grid.h"

#include <cstdio>
#include <stdexcept>

#include "engine/config_keys.h"
#include "util/rng.h"

namespace dasched {

namespace {

/// A sweep value in the text form the config-key parsers read.  %.17g keeps
/// integral doubles integral ("16") and everything else visibly not
/// ("2.5", "1e+20"), so the row parser accepts exactly the integer values
/// the field can hold.
std::string sweep_text(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

SweepAxis sweep_axis_by_name(const std::string& name,
                             std::vector<double> values) {
  const ConfigKey* row = find_key(config_keys(), name);
  if (row == nullptr || !row->sweep) {
    std::string known;
    for (const ConfigKey& k : config_keys()) {
      if (!k.sweep) continue;
      if (!known.empty()) known += ", ";
      known += k.key;
    }
    throw ConfigError("sweep", "unknown sweep axis '" + name + "' (known: " +
                                   known + ")");
  }
  ExperimentConfig probe;
  for (const double v : values) {
    try {
      row->set(probe, sweep_text(v));
    } catch (const ConfigError& e) {
      throw ConfigError("sweep", name + "=" + sweep_text(v) + ": " + e.what());
    }
  }
  return SweepAxis{row, std::move(values)};
}

void SweepAxis::apply(ExperimentConfig& cfg, double value) const {
  key->set(cfg, sweep_text(value));
}

std::size_t ExperimentGrid::size() const {
  const std::size_t sweep_points = sweep.empty() ? 1 : sweep.values.size();
  return apps.size() * policies.size() * schemes.size() * sweep_points;
}

std::uint64_t ExperimentGrid::derive_seed(std::uint64_t base,
                                          std::size_t index) {
  return dasched::derive_seed(base, index);
}

std::vector<GridCell> ExperimentGrid::cells() const {
  if (apps.empty() || policies.empty() || schemes.empty()) {
    throw std::invalid_argument("ExperimentGrid: every axis needs >= 1 value");
  }
  if (!sweep.empty() && sweep.key == nullptr) {
    throw std::invalid_argument("ExperimentGrid: sweep axis without a key");
  }
  std::vector<GridCell> out;
  out.reserve(size());
  const std::size_t sweep_points = sweep.empty() ? 1 : sweep.values.size();
  for (const std::string& app : apps) {
    for (const PolicyKind policy : policies) {
      for (const bool scheme : schemes) {
        for (std::size_t s = 0; s < sweep_points; ++s) {
          GridCell cell;
          cell.index = out.size();
          cell.app = app;
          cell.policy = policy;
          cell.scheme = scheme;
          cell.config = base;
          cell.config.app = app;
          cell.config.policy = policy;
          cell.config.use_scheme = scheme;
          cell.config.seed =
              derive_seeds ? derive_seed(base_seed, cell.index) : base_seed;
          if (!sweep.empty()) {
            cell.has_sweep = true;
            cell.sweep_name = sweep.key->key;
            cell.sweep_value = sweep.values[s];
            sweep.apply(cell.config, cell.sweep_value);
          }
          out.push_back(std::move(cell));
        }
      }
    }
  }
  return out;
}

}  // namespace dasched
