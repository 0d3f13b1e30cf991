// Unit tests of the invariant auditor: every check must fire on an injected
// violation and stay silent on a legal history.
#include "check/install.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "compiler/trace_builder.h"

namespace dasched {
namespace {

/// The pieces `for_each_piece` visits, in file order.
std::vector<StripePiece> pieces_of(const StripingMap& m, FileId f, Bytes offset,
                                   Bytes size) {
  std::vector<StripePiece> out;
  m.for_each_piece(f, offset, size,
                   [&out](const StripePiece& p) { out.push_back(p); });
  return out;
}

bool has_violation(const SimAuditor& auditor, const std::string& check,
                   const std::string& needle) {
  for (const Violation& v : auditor.violations()) {
    if (v.check == check && v.detail.find(needle) != std::string::npos) {
      return true;
    }
  }
  return false;
}

// --------------------------------------------------------------------------
// SimAuditor plumbing
// --------------------------------------------------------------------------

TEST(SimAuditor, StartsCleanAndReportsAllClear) {
  SimAuditor auditor;
  auditor.add_check<EventQueueCheck>();
  auditor.finalize();
  EXPECT_TRUE(auditor.clean());
  EXPECT_EQ(auditor.violations_total(), 0);
  EXPECT_NE(auditor.report().find("no violations"), std::string::npos);
}

TEST(SimAuditor, CapsStoredViolationsButCountsAll) {
  SimAuditor auditor;
  auto& check = auditor.add_check<EventQueueCheck>();
  for (std::uint64_t i = 0; i < 400; ++i) {
    check.on_event_fired(i, 0, /*cancelled=*/true);  // never scheduled
  }
  EXPECT_FALSE(auditor.clean());
  EXPECT_EQ(auditor.violations().size(), 256u);
  // Each injected fire breaks two invariants: cancelled-fired and no-schedule.
  EXPECT_EQ(auditor.violations_total(), 800);
  EXPECT_NE(auditor.report().find("suppressed"), std::string::npos);
}

// --------------------------------------------------------------------------
// Event-queue sanity
// --------------------------------------------------------------------------

TEST(EventQueueCheck, PastScheduledEventTrips) {
  SimAuditor auditor;
  auto& check = auditor.add_check<EventQueueCheck>();
  check.on_event_scheduled(/*seq=*/7, /*t=*/usec(5), /*now=*/usec(10));
  EXPECT_TRUE(has_violation(auditor, "event-queue", "in the past"));
}

TEST(EventQueueCheck, CancelledEventFiringTrips) {
  SimAuditor auditor;
  auto& check = auditor.add_check<EventQueueCheck>();
  check.on_event_scheduled(3, usec(10), usec(0));
  check.on_event_fired(3, usec(10), /*cancelled=*/true);
  EXPECT_TRUE(has_violation(auditor, "event-queue", "cancelled"));
}

TEST(EventQueueCheck, FireWithoutScheduleTrips) {
  SimAuditor auditor;
  auto& check = auditor.add_check<EventQueueCheck>();
  check.on_event_fired(99, usec(10), /*cancelled=*/false);
  EXPECT_TRUE(has_violation(auditor, "event-queue", "without a matching"));
}

TEST(EventQueueCheck, CleanOnRealSimulatorWithCancellation) {
  SimAuditor auditor;
  auto& check = auditor.add_check<EventQueueCheck>();
  Simulator sim;
  sim.add_observer(&check);
  int fired = 0;
  sim.schedule_at(usec(10), [&] { ++fired; });
  EventHandle cancelled = sim.schedule_at(usec(20), [&] { ++fired; });
  sim.schedule_at(usec(30), [&] { ++fired; });
  cancelled.cancel();
  sim.run();
  auditor.finalize();
  EXPECT_EQ(fired, 2);
  EXPECT_TRUE(auditor.clean()) << auditor.report();
  EXPECT_EQ(check.pending(), 0u);
}

// --------------------------------------------------------------------------
// Energy conservation
// --------------------------------------------------------------------------

TEST(EnergyConservationCheck, MisBookedEnergyTrips) {
  SimAuditor auditor;
  auto& check = auditor.add_check<EnergyConservationCheck>();
  Simulator sim;
  Disk disk(sim, DiskParams{});
  // Claim a second of idle time cost nothing — the power model disagrees.
  check.on_energy_accrued(disk, DiskState::kIdle, disk.params().max_rpm,
                          sec(1.0), /*joules=*/Joules{0.0});
  EXPECT_TRUE(has_violation(auditor, "energy-conservation", "power model"));
}

TEST(EnergyConservationCheck, CleanOnRealDiskService) {
  SimAuditor auditor;
  auto& check = auditor.add_check<EnergyConservationCheck>();
  Simulator sim;
  Disk disk(sim, DiskParams{});
  disk.add_observer(&check);
  int done = 0;
  disk.submit(DiskRequest{0, kib(256), false, false, [&] { ++done; }});
  disk.submit(DiskRequest{mib(1), kib(64), true, false, [&] { ++done; }});
  sim.run();
  disk.finalize();
  auditor.finalize();
  EXPECT_EQ(done, 2);
  EXPECT_TRUE(auditor.clean()) << auditor.report();
  EXPECT_GT(auditor.evaluations(), 0);
}

// --------------------------------------------------------------------------
// Disk state-machine legality
// --------------------------------------------------------------------------

TEST(DiskStateMachineCheck, TransitionMatrix) {
  using S = DiskState;
  EXPECT_TRUE(DiskStateMachineCheck::legal_transition(S::kIdle, S::kSeeking));
  EXPECT_TRUE(DiskStateMachineCheck::legal_transition(S::kSpinningDown, S::kStandby));
  EXPECT_TRUE(DiskStateMachineCheck::legal_transition(S::kStandby, S::kSpinningUp));
  EXPECT_FALSE(DiskStateMachineCheck::legal_transition(S::kStandby, S::kSeeking));
  EXPECT_FALSE(DiskStateMachineCheck::legal_transition(S::kStandby, S::kTransferring));
  EXPECT_FALSE(DiskStateMachineCheck::legal_transition(S::kSpinningUp, S::kStandby));
  EXPECT_FALSE(DiskStateMachineCheck::legal_transition(S::kSeeking, S::kIdle));
}

TEST(DiskStateMachineCheck, ServeWhileStandbyTrips) {
  SimAuditor auditor;
  auto& check = auditor.add_check<DiskStateMachineCheck>();
  Simulator sim;
  Disk disk(sim, DiskParams{});
  disk.request_spin_down();
  sim.run();
  ASSERT_EQ(disk.state(), DiskState::kStandby);
  // Inject the illegal event: the arm starts service while spun down.
  check.on_service_start(disk, DiskRequest{0, kib(64), false, false, {}});
  EXPECT_TRUE(has_violation(auditor, "disk-state-machine", "standby"));
}

TEST(DiskStateMachineCheck, CleanOnRealSpinCycle) {
  SimAuditor auditor;
  auto& check = auditor.add_check<DiskStateMachineCheck>();
  Simulator sim;
  Disk disk(sim, DiskParams{});
  disk.add_observer(&check);
  disk.request_spin_down();
  sim.run();
  ASSERT_EQ(disk.state(), DiskState::kStandby);
  int done = 0;
  disk.submit(DiskRequest{0, kib(64), false, false, [&] { ++done; }});
  sim.run();
  disk.finalize();
  auditor.finalize();
  EXPECT_EQ(done, 1);
  EXPECT_TRUE(auditor.clean()) << auditor.report();
}

// --------------------------------------------------------------------------
// Scheduling-table consistency
// --------------------------------------------------------------------------

AccessRecord rec_on_node(int id, int process, Slot begin, Slot end, int node) {
  AccessRecord rec;
  rec.id = id;
  rec.process = process;
  rec.begin = begin;
  rec.end = end;
  rec.original = end;
  rec.sig = Signature::from_nodes(4, {node});
  return rec;
}

TEST(ScheduleConsistencyCheck, DoubleBookedSlotTrips) {
  SimAuditor auditor;
  auto& check = auditor.add_check<ScheduleConsistencyCheck>();
  const std::vector<AccessRecord> records = {rec_on_node(0, 0, 0, 5, 0),
                                             rec_on_node(1, 0, 0, 5, 1)};
  const std::vector<ScheduledAccess> scheduled = {
      {records[0], /*slot=*/3, /*forced=*/false},
      {records[1], /*slot=*/3, /*forced=*/false},
  };
  check.check_double_booking(records, scheduled);
  EXPECT_TRUE(has_violation(auditor, "schedule-consistency", "double-booked"));
}

TEST(ScheduleConsistencyCheck, ForcedPinsMayShareSlots) {
  SimAuditor auditor;
  auto& check = auditor.add_check<ScheduleConsistencyCheck>();
  const std::vector<AccessRecord> records = {rec_on_node(0, 0, 0, 5, 0),
                                             rec_on_node(1, 0, 0, 5, 1)};
  const std::vector<ScheduledAccess> scheduled = {
      {records[0], 5, /*forced=*/true},
      {records[1], 5, /*forced=*/true},
  };
  check.check_double_booking(records, scheduled);
  check.check_placements(records, scheduled, /*num_slots=*/10);
  EXPECT_TRUE(auditor.clean()) << auditor.report();
}

TEST(ScheduleConsistencyCheck, SkippedSlackClampTrips) {
  SimAuditor auditor;
  auto& check = auditor.add_check<ScheduleConsistencyCheck>();
  AccessRecord rec = rec_on_node(0, 0, 7, 5, 0);  // begin > end
  check.check_records({rec}, /*num_slots=*/10);
  EXPECT_TRUE(has_violation(auditor, "schedule-consistency", "clamp"));
}

TEST(ScheduleConsistencyCheck, PlacementOutsideSlackTrips) {
  SimAuditor auditor;
  auto& check = auditor.add_check<ScheduleConsistencyCheck>();
  const std::vector<AccessRecord> records = {rec_on_node(0, 0, 2, 5, 0)};
  const std::vector<ScheduledAccess> scheduled = {
      {records[0], /*slot=*/7, /*forced=*/false},
  };
  check.check_placements(records, scheduled, /*num_slots=*/10);
  EXPECT_TRUE(has_violation(auditor, "schedule-consistency", "outside its slack"));
}

TEST(ScheduleConsistencyCheck, PlacementOfAnotherReadTrips) {
  // Row i must place read i: the runtime reads a placement's slack,
  // original point and writer from the read at the same row.
  SimAuditor auditor;
  auto& check = auditor.add_check<ScheduleConsistencyCheck>();
  const std::vector<AccessRecord> records = {rec_on_node(0, 0, 0, 5, 0),
                                             rec_on_node(1, 1, 0, 5, 1)};
  const std::vector<ScheduledAccess> swapped = {{records[1], 2},
                                                {records[0], 2}};
  check.check_placements(records, swapped, /*num_slots=*/10);
  EXPECT_TRUE(has_violation(auditor, "schedule-consistency",
                            "row 0 places access #1"));
}

TEST(ScheduleConsistencyCheck, PlacementCountOtherThanReadCountTrips) {
  SimAuditor auditor;
  auto& check = auditor.add_check<ScheduleConsistencyCheck>();
  Compiled compiled;
  compiled.program.reads = {rec_on_node(0, 0, 0, 5, 0),
                            rec_on_node(1, 1, 0, 5, 1)};
  compiled.program.num_slots = 10;
  compiled.scheduled = {{compiled.program.reads[0], 2}};
  compiled.table = SchedulingTable(compiled.scheduled);
  check.validate(compiled, CompileOptions{}, StripingMap(4, kib(64)));
  EXPECT_TRUE(has_violation(auditor, "schedule-consistency",
                            "1 placements for 2 reads"));
}

TEST(ScheduleConsistencyCheck, ThetaOverrunWithoutFallbackTrips) {
  SimAuditor auditor;
  auto& check = auditor.add_check<ScheduleConsistencyCheck>();
  // Two same-slot accesses on the same node with theta = 1 and a stats
  // block claiming no fallback happened.
  const std::vector<AccessRecord> records = {rec_on_node(0, 0, 0, 5, 2),
                                             rec_on_node(1, 1, 0, 5, 2)};
  const std::vector<ScheduledAccess> scheduled = {
      {records[0], 4, false},
      {records[1], 4, false},
  };
  ScheduleOptions opts;
  opts.theta = 1;
  check.check_theta(records, scheduled, opts, ScheduleStats{});
  EXPECT_TRUE(has_violation(auditor, "schedule-consistency", "theta cap"));
}

TEST(ScheduleConsistencyCheck, ForcedFlagsDisagreeingWithStatsTrip) {
  SimAuditor auditor;
  auto& check = auditor.add_check<ScheduleConsistencyCheck>();
  const std::vector<ScheduledAccess> scheduled = {
      {rec_on_node(0, 0, 0, 5, 0), 5, /*forced=*/true},
      {rec_on_node(1, 1, 0, 5, 1), 2, /*forced=*/false},
  };
  ScheduleStats stats;
  stats.forced = 1;
  check.check_flags(scheduled, stats);
  EXPECT_TRUE(auditor.clean()) << auditor.report();
  stats.forced = 2;  // a pin the schedule does not flag
  check.check_flags(scheduled, stats);
  EXPECT_TRUE(has_violation(auditor, "schedule-consistency", "flagged forced"));
}

TEST(ScheduleConsistencyCheck, ThetaFallbackFlagsDisagreeingWithStatsTrip) {
  SimAuditor auditor;
  auto& check = auditor.add_check<ScheduleConsistencyCheck>();
  std::vector<ScheduledAccess> scheduled = {
      {rec_on_node(0, 0, 0, 5, 2), 4},
      {rec_on_node(1, 1, 0, 5, 2), 4},
  };
  for (ScheduledAccess& s : scheduled) s.theta_fallback = true;
  ScheduleStats stats;
  stats.theta_fallbacks = 2;
  check.check_flags(scheduled, stats);
  EXPECT_TRUE(auditor.clean()) << auditor.report();
  stats.theta_fallbacks = 1;  // one flagged fallback the stats never counted
  check.check_flags(scheduled, stats);
  EXPECT_TRUE(
      has_violation(auditor, "schedule-consistency", "flagged theta_fallback"));
}

TEST(ScheduleConsistencyCheck, TableDisagreeingWithScheduleTrips) {
  SimAuditor auditor;
  auto& check = auditor.add_check<ScheduleConsistencyCheck>();
  std::vector<ScheduledAccess> scheduled = {
      {rec_on_node(0, 0, 0, 5, 0), 2, false},
      {rec_on_node(1, 0, 0, 5, 0), 4, false},
  };
  const SchedulingTable table(scheduled);
  check.check_table(table, scheduled);
  EXPECT_TRUE(auditor.clean()) << auditor.report();

  scheduled[0].slot = 5;  // the runtime would follow a stale table
  check.check_table(table, scheduled);
  EXPECT_TRUE(has_violation(auditor, "schedule-consistency",
                            "out of (slot, id) order"));
}

TEST(ScheduleConsistencyCheck, TableOfAnotherScheduleTrips) {
  // A table indexes the rows of the vector it was built from; against a
  // different schedule its rows land under the wrong process, or it misses
  // rows.
  SimAuditor auditor;
  auto& check = auditor.add_check<ScheduleConsistencyCheck>();
  std::vector<ScheduledAccess> scheduled = {
      {rec_on_node(0, 0, 0, 5, 0), 2, false},
      {rec_on_node(1, 1, 0, 5, 0), 4, false},
  };
  const SchedulingTable table(scheduled);
  std::swap(scheduled[0], scheduled[1]);
  check.check_table(table, scheduled);
  EXPECT_TRUE(has_violation(auditor, "schedule-consistency", "filed under"));

  SimAuditor short_auditor;
  auto& short_check = short_auditor.add_check<ScheduleConsistencyCheck>();
  scheduled.pop_back();
  short_check.check_table(table, scheduled);
  EXPECT_TRUE(has_violation(short_auditor, "schedule-consistency",
                            "table holds 2 entries for 1"));
}

TEST(ScheduleConsistencyCheck, CleanOnRealSchedulerOutput) {
  SimAuditor auditor;
  auto& check = auditor.add_check<ScheduleConsistencyCheck>();
  std::vector<AccessRecord> records;
  for (int i = 0; i < 24; ++i) {
    records.push_back(
        rec_on_node(i, i % 3, (i / 3) * 4, (i / 3) * 4 + 3, i % 4));
  }
  AccessScheduler scheduler(4, /*num_slots=*/40);
  const std::vector<ScheduledAccess> scheduled = scheduler.schedule(records);
  Compiled compiled;
  compiled.program.reads = records;
  compiled.program.num_slots = 40;
  compiled.scheduled = scheduled;
  compiled.table = SchedulingTable(scheduled);
  compiled.sched_stats = scheduler.stats();
  CompileOptions copts;
  copts.sched = scheduler.options();
  check.validate(compiled, copts, StripingMap(4, kib(64)));
  EXPECT_TRUE(auditor.clean()) << auditor.report();
  EXPECT_GT(auditor.evaluations(), 0);
}

TEST(ScheduleConsistencyCheck, SchemeOffAuditChecksTheSlacksOfItsPlan) {
  // A scheme-off compile keeps no slack records; its audit analyzes the
  // plan itself and checks exactly the records `analyze_slacks` yields.
  StripingMap striping(4, kib(64));
  const FileId f = striping.create_file("data", mib(4));
  TraceBuilder tb(3);
  for (int step = 0; step < 6; ++step) {
    for (int p = 0; p < 3; ++p) {
      const Bytes own = kib(64) * (p + 3 * step);
      tb.write(p, f, own, kib(64));
      tb.end_slot(p);
      tb.read(p, f, own, kib(64));
      tb.read(p, f, kib(64) * ((p + 1) % 3 + 3 * step), kib(128));
      tb.compute(p, 500);
      tb.end_slot(p);
    }
  }
  const CompiledProgram program = tb.build();
  CompileOptions copts;
  copts.enable_scheduling = false;
  copts.slack.max_slack = 4;
  const Compiled compiled = compile_trace(program, striping, copts);
  ASSERT_TRUE(compiled.program.reads.empty());

  SimAuditor audited;
  audit_compiled(audited, compiled, copts, striping);
  EXPECT_TRUE(audited.clean()) << audited.report();

  CompiledProgram analyzed = program;
  analyze_slacks(analyzed, striping, copts.slack);
  ASSERT_EQ(analyzed.reads.size(), 36u);
  SimAuditor direct;
  direct.add_check<ScheduleConsistencyCheck>().check_records(
      analyzed.reads, analyzed.num_slots);
  EXPECT_EQ(audited.evaluations(), direct.evaluations());
}

// --------------------------------------------------------------------------
// Cache/striping accounting
// --------------------------------------------------------------------------

TEST(StorageAccountingCheck, MisroutedStripeTrips) {
  SimAuditor auditor;
  StripingMap striping(4, kib(64));
  const FileId f = striping.create_file("data", mib(1));
  auto& check = auditor.add_check<StorageAccountingCheck>(&striping);
  std::vector<StripePiece> pieces = pieces_of(striping, f, 0, kib(128));
  ASSERT_EQ(pieces.size(), 2u);
  pieces[1].io_node = (pieces[1].io_node + 1) % 4;  // corrupt the routing
  check.on_request_routed(f, 0, kib(128), false, pieces);
  EXPECT_TRUE(has_violation(auditor, "storage-accounting", "round-robin"));
}

TEST(StorageAccountingCheck, IncompleteCoverageTrips) {
  SimAuditor auditor;
  StripingMap striping(4, kib(64));
  const FileId f = striping.create_file("data", mib(1));
  auto& check = auditor.add_check<StorageAccountingCheck>(&striping);
  std::vector<StripePiece> pieces = pieces_of(striping, f, 0, kib(128));
  pieces.pop_back();  // lose a piece
  check.on_request_routed(f, 0, kib(128), false, pieces);
  EXPECT_TRUE(has_violation(auditor, "storage-accounting", "pieces cover"));
}

TEST(StorageAccountingCheck, CacheLedgerMismatchTrips) {
  SimAuditor auditor;
  auto& check = auditor.add_check<StorageAccountingCheck>();
  Simulator sim;
  IoNode node(sim, IoNodeConfig{}, /*node_id=*/0, /*seed=*/1);
  IoNodeStats stats;
  stats.cache.hits = 5;  // claims hits the check never observed
  stats.requests = 5;
  check.on_finalized(node, stats);
  EXPECT_TRUE(has_violation(auditor, "storage-accounting", "demand lookups"));
}

TEST(StorageAccountingCheck, CleanOnRealStorageSystem) {
  SimAuditor auditor;
  Simulator sim;
  StorageConfig cfg;
  cfg.num_io_nodes = 4;
  cfg.node.cache_capacity = kib(512);
  StorageSystem storage(sim, cfg);
  auto& check =
      auditor.add_check<StorageAccountingCheck>(&storage.striping());
  storage.add_observer(&check);
  for (int n = 0; n < storage.num_io_nodes(); ++n) {
    storage.node(n).add_observer(&check);
  }
  const FileId f = storage.create_file("data", mib(8));
  int done = 0;
  for (int i = 0; i < 16; ++i) {
    storage.read(f, (i) * kib(96), kib(96), [&] { ++done; });
  }
  storage.write(f, 0, kib(256), [&] { ++done; });
  sim.run();
  storage.finalize();
  auditor.finalize();
  EXPECT_EQ(done, 17);
  EXPECT_TRUE(auditor.clean()) << auditor.report();
}

// --------------------------------------------------------------------------
// install_audit wiring
// --------------------------------------------------------------------------

TEST(InstallAudit, RegistersTheFullRuntimeCatalog) {
  SimAuditor auditor;
  Simulator sim;
  StorageConfig cfg;
  cfg.num_io_nodes = 2;
  StorageSystem storage(sim, cfg);
  const InstalledChecks checks =
      install_audit(auditor, sim, storage, PolicyKind::kNone, PolicyConfig{});
  EXPECT_EQ(auditor.num_checks(), 4u);
  EXPECT_NE(checks.events, nullptr);
  EXPECT_NE(checks.energy, nullptr);
  EXPECT_NE(checks.disk_state, nullptr);
  EXPECT_NE(checks.storage, nullptr);

  const FileId f = storage.create_file("data", mib(1));
  int done = 0;
  storage.read(f, 0, kib(128), [&] { ++done; });
  sim.run();
  storage.finalize();
  auditor.finalize();
  EXPECT_EQ(done, 1);
  EXPECT_TRUE(auditor.clean()) << auditor.report();
  EXPECT_GT(auditor.evaluations(), 0);
}

}  // namespace
}  // namespace dasched
