#include "telemetry/install.h"

namespace dasched {

void install_telemetry(TelemetryRecorder& recorder, Simulator& sim,
                       StorageSystem& storage) {
  TraceMeta& meta = recorder.meta();
  meta.num_nodes = storage.num_io_nodes();
  // The trace format keeps its per-node disk count; every node has one disk.
  meta.disks_per_node = 1;
  meta.seed = storage.config().seed;

  recorder.set_simulator(sim);
  if (recorder.level() >= TraceLevel::kFull) sim.add_observer(&recorder);
  storage.add_observer(&recorder);
  for (int n = 0; n < storage.num_io_nodes(); ++n) {
    IoNode& node = storage.node(n);
    node.add_observer(&recorder);
    recorder.register_disk(node.disk(), n);
    node.disk().add_observer(&recorder);
    if (PowerPolicy* policy = node.policy()) policy->add_observer(&recorder);
  }
}

}  // namespace dasched
