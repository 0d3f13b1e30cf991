// Wiring helper: attach one recorder to every layer of a built simulation
// stack with a single call, mirroring check/install.h.
//
//   TelemetryRecorder recorder(TraceLevel::kState);
//   install_telemetry(recorder, sim, storage);
//   ... run ...
//   TelemetrySummary summary = analyze_trace(recorder.buffer(), recorder.meta());
//
// The layers keep raw observer pointers, so the recorder must outlive the
// simulation.  Attaching composes with the invariant auditor: every layer
// multiplexes its observers (util/observer_list.h).
#pragma once

#include "sim/simulator.h"
#include "storage/storage_system.h"
#include "telemetry/recorder.h"

namespace dasched {

/// Attaches `recorder` to the simulator (kFull only), the storage router,
/// every I/O node with its disk and power policy, registers the disk id
/// mapping (a disk's id is its node's) and fills the structural trace
/// metadata (node count, one disk per node, seed).  App/policy/scheme metadata is the caller's to set.
void install_telemetry(TelemetryRecorder& recorder, Simulator& sim,
                       StorageSystem& storage);

}  // namespace dasched
