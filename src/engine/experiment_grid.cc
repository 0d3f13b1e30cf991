#include "engine/experiment_grid.h"

#include <cmath>
#include <stdexcept>

#include "util/rng.h"

namespace dasched {

SweepAxis sweep_axis_by_name(const std::string& name,
                             std::vector<double> values) {
  SweepAxis axis;
  axis.name = name;
  axis.values = std::move(values);
  if (name == "nodes") {
    axis.apply = [](ExperimentConfig& cfg, double v) {
      cfg.storage.num_io_nodes = static_cast<int>(v);
    };
  } else if (name == "delta") {
    axis.apply = [](ExperimentConfig& cfg, double v) {
      cfg.compile.sched.delta = static_cast<int>(v);
    };
  } else if (name == "theta") {
    axis.apply = [](ExperimentConfig& cfg, double v) {
      cfg.compile.sched.theta = static_cast<int>(v);
    };
  } else if (name == "cache_mib") {
    axis.apply = [](ExperimentConfig& cfg, double v) {
      cfg.storage.node.cache_capacity = mib(static_cast<std::int64_t>(v));
    };
  } else if (name == "buffer_mib") {
    axis.apply = [](ExperimentConfig& cfg, double v) {
      cfg.runtime.buffer_capacity = mib(static_cast<std::int64_t>(v));
    };
  } else if (name == "slack") {
    axis.apply = [](ExperimentConfig& cfg, double v) {
      cfg.max_slack = static_cast<Slot>(v);
    };
  } else {
    throw std::invalid_argument("unknown sweep axis '" + name +
                                "' (known: nodes, delta, theta, cache_mib, "
                                "buffer_mib, slack)");
  }
  return axis;
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
  if (!sweep.empty() && !sweep.apply) {
    throw std::invalid_argument("ExperimentGrid: sweep axis without apply fn");
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
            cell.sweep_name = sweep.name;
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
