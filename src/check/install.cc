#include "check/install.h"

namespace dasched {

InstalledChecks install_audit(SimAuditor& auditor, Simulator& sim,
                              StorageSystem& storage, PolicyKind policy,
                              const PolicyConfig& policy_cfg) {
  InstalledChecks out;
  out.events = &auditor.add_check<EventQueueCheck>();
  sim.add_observer(out.events);

  // Every layer multiplexes its observers natively (util/observer_list.h),
  // so the checks attach side by side with any telemetry recorder.
  out.energy = &auditor.add_check<EnergyConservationCheck>();
  out.disk_state = &auditor.add_check<DiskStateMachineCheck>(policy, policy_cfg);

  out.storage = &auditor.add_check<StorageAccountingCheck>(&storage.striping());
  storage.add_observer(out.storage);
  for (int n = 0; n < storage.num_io_nodes(); ++n) {
    IoNode& node = storage.node(n);
    node.add_observer(out.storage);
    node.disk().add_observer(out.energy);
    node.disk().add_observer(out.disk_state);
  }
  return out;
}

ScheduleConsistencyCheck& audit_compiled(SimAuditor& auditor,
                                         const Compiled& compiled,
                                         const CompileOptions& opts,
                                         const StripingMap& striping) {
  auto& check = auditor.add_check<ScheduleConsistencyCheck>();
  check.validate(compiled, opts, striping);
  return check;
}

}  // namespace dasched
