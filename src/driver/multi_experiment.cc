#include "driver/multi_experiment.h"

#include "driver/workspace.h"

namespace dasched {

// Thin wrappers over a single-use workspace, like run_experiment.

MultiExperimentResult run_multi_experiment(const MultiExperimentConfig& cfg) {
  ExperimentWorkspace ws;
  return ws.run(cfg);
}

}  // namespace dasched
