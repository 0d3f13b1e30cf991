#include "driver/experiment.h"

#include <stdexcept>
#include <string>

#include "driver/workspace.h"

namespace dasched {

std::size_t default_event_reserve(const StorageConfig& storage,
                                  const WorkloadScale& scale) {
  // Concurrently *outstanding* events, not total events: each client keeps
  // a bounded in-flight chain (compute timer + one piece per node of the
  // current request + join), each node's disk a bounded set (service
  // completion, policy timer, elevator kick), plus prefetch slots per node.
  // The slack constant absorbs transient double-booking around hand-offs.
  const std::size_t clients = static_cast<std::size_t>(scale.num_processes);
  const std::size_t nodes = static_cast<std::size_t>(storage.num_io_nodes);
  const std::size_t prefetch =
      static_cast<std::size_t>(storage.node.prefetch_depth);
  return clients * (2 + nodes) + nodes * (3 + prefetch + 2) + 64;
}

void validate_experiment_topology(const ExperimentConfig& cfg) {
  if (cfg.scale.num_processes < 1) {
    throw ConfigError("scale.num_processes",
                      "experiment: num_processes must be >= 1, got " +
                          std::to_string(cfg.scale.num_processes));
  }
  if (cfg.storage.num_io_nodes < 1) {
    throw ConfigError("storage.num_io_nodes",
                      "experiment: num_io_nodes must be >= 1, got " +
                          std::to_string(cfg.storage.num_io_nodes));
  }
  if (cfg.storage.node.cache_capacity < cfg.storage.stripe_size) {
    throw ConfigError(
        "storage.node.cache_capacity",
        "experiment: cache capacity must hold at least one stripe-sized "
        "block (" +
            std::to_string(cfg.storage.stripe_size.count()) + " bytes), got " +
            std::to_string(cfg.storage.node.cache_capacity.count()));
  }
  if (cfg.runtime.buffer_capacity < 0) {
    throw ConfigError("runtime.buffer_capacity",
                      "experiment: prefetch buffer capacity must be >= 0 "
                      "(0 disables prefetching), got " +
                          std::to_string(cfg.runtime.buffer_capacity.count()));
  }
  if (cfg.compile.sched.delta < 0) {
    throw ConfigError("compile.sched.delta",
                      "experiment: delta must be >= 0, got " +
                          std::to_string(cfg.compile.sched.delta));
  }
  if (cfg.compile.sched.theta < 0) {
    throw ConfigError("compile.sched.theta",
                      "experiment: theta must be >= 0 (0 disables the cap), "
                      "got " +
                          std::to_string(cfg.compile.sched.theta));
  }
  if (cfg.shards != 0) {
    throw ConfigError("shards",
                      "experiment: shards must be 0 (the serial engine is "
                      "the only engine), got " +
                          std::to_string(cfg.shards));
  }
}

// The classic entry points build the stack fresh per call by running a
// single-use workspace: the workspace's first run constructs every component
// the same way the pre-workspace code did (and bit-identity of reuse makes
// the distinction unobservable anyway — see DESIGN.md §16).

ExperimentResult run_experiment(const ExperimentConfig& cfg) {
  ExperimentWorkspace ws;
  return ws.run(cfg);
}

}  // namespace dasched
