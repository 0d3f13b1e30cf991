#include "telemetry/install.h"

namespace dasched {

void install_telemetry(TelemetryRecorder& recorder, Simulator& sim,
                       StorageSystem& storage) {
  TraceMeta& meta = recorder.meta();
  meta.num_nodes = storage.num_io_nodes();
  meta.disks_per_node =
      storage.num_io_nodes() > 0 ? storage.node(0).num_disks() : 0;
  meta.seed = storage.config().seed;

  recorder.set_simulator(sim);
  if (recorder.level() >= TraceLevel::kFull) sim.add_observer(&recorder);
  storage.add_observer(&recorder);
  for (int n = 0; n < storage.num_io_nodes(); ++n) {
    IoNode& node = storage.node(n);
    node.add_observer(&recorder);
    for (int d = 0; d < node.num_disks(); ++d) {
      recorder.register_disk(node.disk(d), n, d);
      node.disk(d).add_observer(&recorder);
      if (PowerPolicy* policy = node.policy(d)) {
        policy->add_observer(&recorder);
      }
    }
  }
}

}  // namespace dasched
