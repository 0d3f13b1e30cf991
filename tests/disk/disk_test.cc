#include "disk/disk.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace dasched {
namespace {

DiskRequest read_at(Bytes offset, Bytes size, EventFn cb = {}) {
  return DiskRequest{offset, size, /*is_write=*/false, /*background=*/false,
                     std::move(cb)};
}

TEST(Disk, ServesASingleRequest) {
  Simulator sim;
  Disk disk(sim, DiskParams::paper_defaults());
  bool done = false;
  SimTime completion = 0;
  disk.submit(read_at(mib(1), kib(64), [&] {
    done = true;
    completion = sim.now();
  }));
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_GT(completion, 0);
  // 64 KiB at 80 MB/s is ~0.8 ms; with seek + rotation the service stays
  // well under 30 ms.
  EXPECT_LT(completion, msec(30.0));
  EXPECT_EQ(disk.stats().requests, 1);
  EXPECT_EQ(disk.stats().reads, 1);
  EXPECT_EQ(disk.stats().bytes_read, kib(64));
}

TEST(Disk, AccountsEnergyWhileIdle) {
  Simulator sim;
  Disk disk(sim, DiskParams::paper_defaults());
  sim.schedule_at(sec(10.0), [] {});
  sim.run();
  const DiskStats& s = disk.finalize();
  // 10 s at 17.1 W idle.
  EXPECT_NEAR(s.energy_j.value(), 171.0, 0.5);
}

TEST(Disk, ElevatorServesInScanOrder) {
  Simulator sim;
  DiskParams p = DiskParams::paper_defaults();
  Simulator::Callback noop;
  Disk disk(sim, p);
  std::vector<int> order;
  // Submit out-of-order offsets while the disk is busy with the first one so
  // the queue builds up; SCAN should then sweep upward.
  disk.submit(read_at(0, kib(64), [&] { order.push_back(0); }));
  disk.submit(read_at(gib(50), kib(64), [&] { order.push_back(3); }));
  disk.submit(read_at(gib(10), kib(64), [&] { order.push_back(1); }));
  disk.submit(read_at(gib(30), kib(64), [&] { order.push_back(2); }));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Disk, SpinDownReachesStandbyAndSavesPower) {
  Simulator sim;
  Disk disk(sim, DiskParams::paper_defaults());
  disk.submit(read_at(0, kib(64)));
  sim.schedule_at(sec(1.0), [&] { disk.request_spin_down(); });
  sim.schedule_at(sec(100.0), [] {});
  sim.run();
  EXPECT_EQ(disk.state(), DiskState::kStandby);
  const DiskStats& s = disk.finalize();
  EXPECT_EQ(s.spin_downs, 1);
  // Energy must be far below 100 s of pure idle.
  EXPECT_LT(s.energy_j.value(), 100.0 * 17.1 * 0.8);
  EXPECT_GT(s.time_in_standby, sec(80.0));
}

TEST(Disk, RequestDuringStandbyTriggersSpinUp) {
  Simulator sim;
  Disk disk(sim, DiskParams::paper_defaults());
  disk.submit(read_at(0, kib(64)));
  sim.schedule_at(sec(1.0), [&] { disk.request_spin_down(); });
  SimTime completion = 0;
  sim.schedule_at(sec(60.0), [&] {
    disk.submit(read_at(kib(64), kib(64), [&] { completion = sim.now(); }));
  });
  sim.run();
  EXPECT_EQ(disk.stats().spin_ups, 1);
  // The request waits the full 16 s spin-up.
  EXPECT_GE(completion, sec(76.0));
  EXPECT_LT(completion, sec(76.5));
}

TEST(Disk, RequestDuringSpinDownAbortsWithPartialRecovery) {
  Simulator sim;
  Disk disk(sim, DiskParams::paper_defaults());
  disk.submit(read_at(0, kib(64)));
  sim.schedule_at(sec(1.0), [&] { disk.request_spin_down(); });
  SimTime completion = 0;
  // 2 s into the 10 s spin-down: recovery should be ~20% of a full spin-up.
  sim.schedule_at(sec(3.0), [&] {
    disk.submit(read_at(kib(64), kib(64), [&] { completion = sim.now(); }));
  });
  sim.run();
  EXPECT_EQ(disk.stats().spin_ups, 1);
  EXPECT_GE(completion, sec(3.0) + sec(16.0 * 0.19));
  EXPECT_LE(completion, sec(3.0) + sec(16.0 * 0.25));
}

TEST(Disk, ProactiveSpinUpDuringSpinDownChainsCorrectly) {
  Simulator sim;
  Disk disk(sim, DiskParams::paper_defaults());
  disk.submit(read_at(0, kib(64)));
  sim.schedule_at(sec(1.0), [&] { disk.request_spin_down(); });
  sim.schedule_at(sec(5.0), [&] { disk.request_spin_up(); });
  sim.run();
  EXPECT_EQ(disk.state(), DiskState::kIdle);
  EXPECT_EQ(disk.stats().spin_ups, 1);
  EXPECT_EQ(disk.current_rpm(), disk.params().max_rpm);
}

TEST(Disk, RpmTransitionReachesTargetSpeed) {
  Simulator sim;
  Disk disk(sim, DiskParams::paper_multispeed());
  disk.submit(read_at(0, kib(64)));
  sim.schedule_at(sec(1.0), [&] { disk.request_rpm(3'600); });
  sim.schedule_at(sec(30.0), [] {});
  sim.run();
  EXPECT_EQ(disk.current_rpm(), 3'600);
  const DiskStats& s = disk.finalize();
  EXPECT_EQ(s.rpm_changes, 1);
  EXPECT_GT(s.time_below_max_rpm, sec(20.0));
}

TEST(Disk, RpmRequestSnapsToLadder) {
  Simulator sim;
  Disk disk(sim, DiskParams::paper_multispeed());
  disk.request_rpm(5'000);  // nearest ladder point is 4800
  sim.run();
  EXPECT_EQ(disk.current_rpm(), 4'800);
}

TEST(Disk, SingleSpeedDiskIgnoresRpmRequests) {
  Simulator sim;
  Disk disk(sim, DiskParams::paper_defaults());
  disk.request_rpm(3'600);
  sim.run();
  EXPECT_EQ(disk.current_rpm(), 12'000);
  EXPECT_EQ(disk.stats().rpm_changes, 0);
}

TEST(Disk, ServiceAtLowSpeedIsSlower) {
  auto run_one = [](Rpm rpm) {
    Simulator sim;
    Disk disk(sim, DiskParams::paper_multispeed());
    disk.request_rpm(rpm);
    sim.run();
    SimTime completion = 0;
    disk.submit(read_at(mib(10), mib(4), [&] { completion = sim.now(); }));
    const SimTime start = sim.now();
    sim.run();
    return completion - start;
  };
  const SimTime fast = run_one(12'000);
  const SimTime slow = run_one(3'600);
  EXPECT_GT(slow, 2 * fast);
}

TEST(Disk, RequestDuringTransitionWaitsThenServes) {
  Simulator sim;
  Disk disk(sim, DiskParams::paper_multispeed());
  disk.submit(read_at(0, kib(64)));
  sim.schedule_at(sec(1.0), [&] { disk.request_rpm(3'600); });
  bool done = false;
  // Arrives mid-transition (7 steps x 400 ms = 2.8 s).
  sim.schedule_at(sec(2.0), [&] {
    disk.submit(read_at(kib(64), kib(64), [&] { done = true; }));
    // The policy would normally request max speed here.
    disk.request_rpm(12'000);
  });
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(disk.current_rpm(), 12'000);
  EXPECT_GE(disk.stats().rpm_changes, 2);
}

TEST(Disk, IdlePeriodsRecordGapsBetweenBusyPeriods) {
  Simulator sim;
  Disk disk(sim, DiskParams::paper_defaults());
  disk.submit(read_at(0, kib(64)));
  sim.schedule_at(sec(2.0), [&] { disk.submit(read_at(kib(64), kib(64))); });
  sim.schedule_at(sec(7.0), [&] { disk.submit(read_at(kib(128), kib(64))); });
  sim.run();
  const DiskStats& s = disk.finalize();
  // Two recorded gaps: ~2 s and ~5 s; the pre-first-request span is not one.
  EXPECT_EQ(s.idle_periods.count(), 2);
  EXPECT_NEAR(s.idle_periods.total_msec(), 7'000.0, 100.0);
}

TEST(Disk, DemandRequestsPreemptBackgroundQueue) {
  Simulator sim;
  Disk disk(sim, DiskParams::paper_defaults());
  std::vector<char> order;
  // Saturate with background requests, then add one demand request; the
  // demand one must be served before the remaining background ones.
  for (int i = 0; i < 8; ++i) {
    disk.submit(DiskRequest{i * kib(64), kib(64), false, /*background=*/true,
                            [&order] { order.push_back('b'); }});
  }
  disk.submit(DiskRequest{mib(1), kib(64), false, /*background=*/false,
                          [&order] { order.push_back('D'); }});
  sim.run();
  ASSERT_EQ(order.size(), 9u);
  // The first request was already in service; the demand request must come
  // no later than second.
  EXPECT_EQ(order[1], 'D');
}

/// Logs submissions and service starts in one sequence, and counts
/// completions, for callbacks and the test body to compare against.
class ServiceLog final : public DiskObserver {
 public:
  struct Event {
    bool start;  // a service start; else a submission
    Bytes offset;
    Bytes size;
    bool background;
  };

  void on_request_submitted(const Disk& disk, const DiskRequest& req) override {
    (void)disk;
    events.push_back(Event{false, req.offset, req.size, req.background});
  }
  void on_service_start(const Disk& disk, const DiskRequest& req) override {
    (void)disk;
    events.push_back(Event{true, req.offset, req.size, req.background});
    last_started_size = req.size;
    ++started;
  }
  void on_service_complete(const Disk& disk, SimTime service_time) override {
    (void)disk;
    (void)service_time;
    ++completed;
  }

  std::vector<Event> events;
  Bytes last_started_size = 0;
  int started = 0;
  int completed = 0;
};

TEST(Disk, CallbacksFireOnceAtTheirOwnCompletionInFifoOrder) {
  Simulator sim;
  const DiskParams params = DiskParams::paper_defaults();
  Disk disk(sim, params);
  ServiceLog log;
  disk.add_observer(&log);
  Rng rng(5);

  // Each request's size encodes its id, so a logged size names its request.
  constexpr int kRequests = 900;
  const auto size_of = [](int id) { return kib(4) + Bytes{512} * id; };
  const auto id_of = [](Bytes size) {
    return static_cast<int>((size - kib(4)) / Bytes{512});
  };
  std::vector<bool> has_callback;
  std::vector<int> fired(kRequests, 0);
  int next_id = 0;
  // Submits the next request.  Its callback checks that the service that
  // just completed is its own; every fifth submits a follow-up from inside
  // the completion, right after its own slot was released.
  std::function<void()> submit_next = [&] {
    const int id = next_id++;
    // Twenty offsets shared by both queues: runs of equal offsets form in
    // each, and the sweep meets the same offsets in both.
    const Bytes offset = kib(64) * rng.next_int(0, 19);
    const bool background = rng.next_bool(0.6);
    has_callback.push_back(rng.next_bool(0.4));
    EventFn cb;
    if (has_callback.back()) {
      cb = EventFn([&, id] {
        ++fired[id];
        EXPECT_EQ(log.last_started_size, size_of(id));
        EXPECT_EQ(log.completed, log.started);
        if (id % 5 == 0 && next_id < kRequests) submit_next();
      });
    }
    disk.submit(DiskRequest{offset, size_of(id), rng.next_bool(0.2),
                            background, std::move(cb)});
  };
  // A deep backlog first, then arrivals while it drains.
  while (next_id < 600) submit_next();
  for (int i = 0; i < 40 && next_id < kRequests; ++i) {
    sim.run(sim.now() + msec(20.0));
    for (int j = 0; j < 5 && next_id < kRequests; ++j) submit_next();
  }
  sim.run();
  ASSERT_GT(next_id, 700);
  EXPECT_EQ(log.started, next_id);
  EXPECT_EQ(log.completed, next_id);
  EXPECT_TRUE(disk.queue_empty());

  int with_callback = 0;
  for (int id = 0; id < next_id; ++id) {
    EXPECT_EQ(fired[id], has_callback[id] ? 1 : 0) << "request " << id;
    if (has_callback[id]) ++with_callback;
  }
  EXPECT_GT(with_callback, 200);
  EXPECT_LT(with_callback, next_id - 200);

  // Each queue indexes equal offsets in arrival order.  The arm reaching an
  // offset at or above the head takes the oldest request queued there; a
  // downward sweep walks the index backwards and takes the newest.
  std::map<std::pair<Bytes, bool>, std::set<int>> queued;
  Bytes head = 0;
  for (const ServiceLog::Event& e : log.events) {
    const int id = id_of(e.size);
    std::set<int>& ids = queued[{e.offset, e.background}];
    if (!e.start) {
      ids.insert(id);
      continue;
    }
    ASSERT_FALSE(ids.empty()) << "request " << id << " was never queued";
    const int want = e.offset >= head ? *ids.begin() : *ids.rbegin();
    EXPECT_EQ(id, want) << "offset " << e.offset << ", head " << head;
    ids.erase(id);
    head = std::min(e.offset + e.size, params.capacity - 1);
  }
}

TEST(Disk, ResetMidBacklogLeavesNoCallbackBehind) {
  Simulator sim;
  const DiskParams params = DiskParams::paper_defaults();
  Disk disk(sim, params);
  // Every callback holds a reference to `token`; a parked callback that
  // survives the reset keeps the count above one.
  const auto token = std::make_shared<int>(0);
  int old_fired = 0;
  for (int i = 0; i < 300; ++i) {
    EventFn cb;
    if (i % 2 == 0) cb = EventFn([token, &old_fired] { ++old_fired; });
    disk.submit(DiskRequest{kib(64) * (i % 37), kib(64), false,
                            /*background=*/i % 3 != 0, std::move(cb)});
  }
  sim.run(msec(200.0));
  ASSERT_GT(old_fired, 0);
  ASSERT_FALSE(disk.queue_empty());
  const int fired_before_reset = old_fired;

  sim.reset();
  disk.reset(params, 1);
  EXPECT_EQ(token.use_count(), 1) << "a parked callback outlived the reset";
  EXPECT_TRUE(disk.queue_empty());

  // The reset disk serves new requests, and only their callbacks fire.
  int new_fired = 0;
  for (int i = 0; i < 50; ++i) {
    disk.submit(DiskRequest{kib(64) * i, kib(64), false, i % 2 == 0,
                            [&new_fired] { ++new_fired; }});
  }
  sim.run();
  EXPECT_EQ(new_fired, 50);
  EXPECT_EQ(old_fired, fired_before_reset);
}

TEST(Disk, WriteUpdatesWriteCounters) {
  Simulator sim;
  Disk disk(sim, DiskParams::paper_defaults());
  disk.submit(DiskRequest{0, kib(128), /*is_write=*/true, false, {}});
  sim.run();
  EXPECT_EQ(disk.stats().writes, 1);
  EXPECT_EQ(disk.stats().bytes_written, kib(128));
}

TEST(Disk, EnergyByStateSumsToTotal) {
  Simulator sim;
  Disk disk(sim, DiskParams::paper_defaults());
  disk.submit(read_at(0, mib(1)));
  sim.schedule_at(sec(1.0), [&] { disk.request_spin_down(); });
  sim.schedule_at(sec(40.0), [&] { disk.submit(read_at(mib(2), kib(64))); });
  sim.run();
  const DiskStats& s = disk.finalize();
  double sum = 0.0;
  for (Joules e : s.energy_by_state_j) sum += e.value();
  EXPECT_NEAR(sum, s.energy_j.value(), 1e-6);
  EXPECT_GT(s.energy_by_state_j[static_cast<int>(DiskState::kStandby)].value(), 0.0);
  EXPECT_GT(s.energy_by_state_j[static_cast<int>(DiskState::kSpinningUp)].value(), 0.0);
}

}  // namespace
}  // namespace dasched
