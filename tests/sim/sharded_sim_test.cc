// Unit tests for the sharded event engine (DESIGN.md §14).
//
// These exercise the protocol directly — mailbox ordering, lookahead
// windows, deadlock detection, stop stamping, worker-count invariance —
// with tiny hand-built lane programs.  End-to-end bit-identity against the
// serial engine lives in tests/driver/shard_differential_test.cc.
#include "sim/sharded_sim.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <utility>
#include <vector>

namespace dasched {
namespace {

ShardedSimConfig make_cfg(int streams, int shards, SimTime lookahead = 10) {
  ShardedSimConfig cfg;
  cfg.num_streams = streams;
  cfg.shards = shards;
  cfg.lookahead = lookahead;
  return cfg;
}

/// One (time, tag) log per lane.  Each lane's log is only ever touched by
/// the worker that owns the lane, and the run() join publishes it to the
/// test thread, so no extra synchronization is needed.
using LaneLog = std::vector<std::pair<SimTime, int>>;

TEST(ShardedSim, PingPongCrossesLanesAndStops) {
  ShardedSimulator sim(make_cfg(/*streams=*/2, /*shards=*/1));
  LaneLog client_log;
  LaneLog node_log;
  int rounds = 0;
  constexpr int kRounds = 5;

  // Client ping at t -> node echo at t+10 -> client ack at t+20 -> next
  // ping.  Every hop is exactly one lookahead, the tightest legal send.
  std::function<void(SimTime)> ping = [&](SimTime t) {
    sim.post(0, 1, t, [&, t] {
      node_log.emplace_back(sim.lane(1).now(), 0);
      sim.post(1, 0, t + 10, [&] {
        client_log.emplace_back(sim.lane(0).now(), 0);
        if (++rounds < kRounds) ping(sim.lane(0).now() + 10);
      });
    });
  };
  ping(10);
  sim.run([&] { return rounds >= kRounds; });

  ASSERT_EQ(node_log.size(), static_cast<std::size_t>(kRounds));
  ASSERT_EQ(client_log.size(), static_cast<std::size_t>(kRounds));
  for (int i = 0; i < kRounds; ++i) {
    EXPECT_EQ(node_log[static_cast<std::size_t>(i)].first, 10 + 20 * i);
    EXPECT_EQ(client_log[static_cast<std::size_t>(i)].first, 20 + 20 * i);
  }
  EXPECT_FALSE(sim.deadlocked());
  EXPECT_EQ(sim.events_executed(), 2 * kRounds);
}

TEST(ShardedSim, MailboxTiesFireInSendOrder) {
  ShardedSimulator sim(make_cfg(2, 1));
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    sim.post(0, 1, 50, [&order, i] { order.push_back(i); });
  }
  int fired = 0;
  sim.lane(1).schedule_at(0, [&] { fired = 1; });  // keeps the queue alive
  sim.run([&] { return order.size() == 4; });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(fired, 1);
}

TEST(ShardedSim, ClientSendsOrderBeforeNodeLocalEventsOnTies) {
  // At equal times the key (time, stream, local_seq) decides: an event sent
  // by the client (stream 0) precedes the receiving node's own events
  // (stream 1+i), regardless of injection order or worker count.
  ShardedSimulator sim(make_cfg(2, 1));
  std::vector<int> order;
  sim.lane(1).schedule_at(40, [&] { order.push_back(1); });
  sim.post(0, 1, 40, [&] { order.push_back(0); });
  sim.run([&] { return order.size() == 2; });
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(ShardedSim, WindowsSkipIdleGaps) {
  // Two events a million ticks apart must take two windows, not 10^5: the
  // planner jumps each window to the global minimum pending time.
  ShardedSimulator sim(make_cfg(2, 1));
  int fired = 0;
  sim.lane(0).schedule_at(5, [&] { ++fired; });
  sim.lane(1).schedule_at(1'000'000, [&] { ++fired; });
  sim.run([&] { return fired == 2; });
  EXPECT_EQ(fired, 2);
  EXPECT_LE(sim.windows_run(), 3);
}

TEST(ShardedSim, DrainedMailRunsInThePlannedWindow) {
  // A first-ever send to an idle node is the global minimum the planner
  // keyed the window on (window_end = mail time + lookahead), so the
  // drained event must run inside that same window — not slip one window
  // because the receiving lane's cached next-event time was stale at the
  // gate.  Node lane 1 sits on worker 1 at shards=2 (the uniform-cost LPT
  // map sends the first node lane to the empty worker), forcing the mailbox
  // drain path.
  for (int shards : {1, 2}) {
    ShardedSimulator sim(make_cfg(/*streams=*/3, shards));
    SimTime fired_at = 0;
    bool done = false;
    sim.post(0, 1, 10, [&] {
      fired_at = sim.lane(1).now();
      done = true;
    });
    const SimTime end = sim.run([&] { return done; });
    EXPECT_EQ(fired_at, 10) << "shards=" << shards;
    EXPECT_EQ(sim.windows_run(), 1) << "shards=" << shards;
    EXPECT_EQ(end, 20) << "shards=" << shards;
  }
}

TEST(ShardedSim, WindowSequenceIsWorkerCountInvariant) {
  // Tightest-legal ping-pong across a true cross-worker mailbox: every hop
  // lands exactly at the next window's keying minimum, so any stale-cache
  // skip doubles the window count.  The documented invariant is the *exact*
  // window sequence for every worker count, which windows_run() witnesses.
  const auto run_chain = [](int shards) {
    ShardedSimulator sim(make_cfg(/*streams=*/3, shards));
    int rounds = 0;
    constexpr int kRounds = 4;
    std::function<void(SimTime)> ping = [&](SimTime t) {
      sim.post(0, 1, t, [&, t] {
        sim.post(1, 0, t + 10, [&] {
          if (++rounds < kRounds) ping(sim.lane(0).now() + 10);
        });
      });
    };
    ping(10);
    const SimTime end = sim.run([&] { return rounds >= kRounds; });
    return std::pair<SimTime, std::int64_t>(end, sim.windows_run());
  };
  const auto serial = run_chain(1);
  const auto threaded = run_chain(2);
  EXPECT_EQ(serial.first, threaded.first);
  EXPECT_EQ(serial.second, threaded.second);
  EXPECT_EQ(serial.second, 8);  // two windows per round, no slipped drains
}

TEST(ShardedSim, RerunAfterEarlyStopDeliversLeftoverMail) {
  // An early stop returns from the barrier with posted mail still sitting
  // in the pending parity; a second run() on the same instance must
  // re-account that mail from the buffers and deliver it.
  for (int shards : {1, 2}) {
    ShardedSimulator sim(make_cfg(/*streams=*/3, shards));
    bool posted = false;
    bool delivered = false;
    sim.lane(0).schedule_at(5, [&] {
      posted = true;
      sim.post(0, 1, 30, [&] { delivered = true; });
    });
    sim.run([&] { return posted; });
    EXPECT_FALSE(delivered) << "shards=" << shards;
    const SimTime end = sim.run([&] { return delivered; });
    EXPECT_TRUE(delivered) << "shards=" << shards;
    EXPECT_EQ(end, 40) << "shards=" << shards;  // window keyed on t=30
    EXPECT_EQ(sim.lane(1).now(), sim.lane(0).now());
  }
}

TEST(ShardedSim, DrainingWithoutStopIsDeadlock) {
  ShardedSimulator sim(make_cfg(2, 1));
  sim.lane(0).schedule_at(5, [] {});
  sim.run([] { return false; });
  EXPECT_TRUE(sim.deadlocked());
}

TEST(ShardedSim, StopStampsEveryLaneToTheWindowEnd) {
  ShardedSimulator sim(make_cfg(3, 1));
  bool done = false;
  sim.lane(2).schedule_at(25, [&] { done = true; });
  sim.lane(1).schedule_at(3, [] {});
  const SimTime end = sim.run([&] { return done; });
  // All lanes share the final clock, so trailing idle accrual (finalize)
  // is identical whichever lane a disk happens to live on.
  EXPECT_EQ(sim.lane(0).now(), end);
  EXPECT_EQ(sim.lane(1).now(), end);
  EXPECT_EQ(sim.lane(2).now(), end);
  EXPECT_GT(end, 25);
}

TEST(ShardedSim, WorkerExceptionPropagatesToRun) {
  ShardedSimulator sim(make_cfg(2, 2));
  sim.lane(1).schedule_at(5, [] { throw std::runtime_error("lane blew up"); });
  EXPECT_THROW(sim.run([] { return false; }), std::runtime_error);
}

/// Runs the same three-lane scatter/gather program and returns the per-lane
/// logs; the sharded engine promises these are worker-count invariant.
std::vector<LaneLog> run_scatter(int shards) {
  ShardedSimulator sim(make_cfg(3, shards));
  std::vector<LaneLog> logs(3);
  int acks = 0;
  constexpr int kPings = 8;
  for (int i = 0; i < kPings; ++i) {
    const int node = 1 + i % 2;
    sim.post(0, node, 10 + 5 * i, [&, i, node] {
      logs[static_cast<std::size_t>(node)].emplace_back(
          sim.lane(node).now(), i);
      sim.post(node, 0, sim.lane(node).now() + 10, [&, i] {
        logs[0].emplace_back(sim.lane(0).now(), i);
        ++acks;
      });
    });
  }
  sim.run([&] { return acks >= kPings; });
  return logs;
}

TEST(ShardedSim, LaneSequencesAreWorkerCountInvariant) {
  const std::vector<LaneLog> one = run_scatter(1);
  const std::vector<LaneLog> two = run_scatter(2);
  ASSERT_EQ(one.size(), two.size());
  for (std::size_t lane = 0; lane < one.size(); ++lane) {
    EXPECT_EQ(one[lane], two[lane]) << "lane " << lane;
  }
  EXPECT_EQ(one[0].size(), 8u);
  EXPECT_EQ(one[1].size(), 4u);
  EXPECT_EQ(one[2].size(), 4u);
}

// --- lane→worker assignment (DESIGN.md §15.3) ------------------------------

/// Flattens an assignment into lane -> worker for easy comparison.
std::vector<int> lane_to_worker(const std::vector<std::vector<int>>& owned,
                                int num_streams) {
  std::vector<int> map(static_cast<std::size_t>(num_streams), -1);
  for (std::size_t w = 0; w < owned.size(); ++w) {
    for (int lane : owned[w]) {
      EXPECT_EQ(map[static_cast<std::size_t>(lane)], -1)
          << "lane " << lane << " assigned twice";
      map[static_cast<std::size_t>(lane)] = static_cast<int>(w);
    }
  }
  for (std::size_t s = 0; s < map.size(); ++s) {
    EXPECT_NE(map[s], -1) << "lane " << s << " unassigned";
  }
  return map;
}

TEST(LaneAssignment, BalancedPutsHeaviestLanesFirst) {
  // Node lane 1 dominates: LPT sends it to the emptiest worker (not worker
  // 0, which already carries the pinned client lane) and routes the light
  // lanes around it.
  const std::vector<double> costs = {1.0, 8.0, 1.0, 1.0, 1.0, 1.0};
  const auto owned = assign_lanes(6, 2, costs);
  const std::vector<int> map = lane_to_worker(owned, 6);
  EXPECT_EQ(map[0], 0);
  EXPECT_EQ(map[1], 1);
  for (int s = 2; s < 6; ++s) EXPECT_EQ(map[s], 0) << "lane " << s;
}

TEST(LaneAssignment, BalancedUniformCostsSpreadEvenly) {
  for (int shards : {1, 2, 3, 4}) {
    const auto owned = assign_lanes(9, shards, {});
    ASSERT_EQ(owned.size(), static_cast<std::size_t>(shards));
    const std::vector<int> map = lane_to_worker(owned, 9);
    EXPECT_EQ(map[0], 0);
    std::size_t min_lanes = 9;
    std::size_t max_lanes = 0;
    for (const auto& lanes : owned) {
      min_lanes = std::min(min_lanes, lanes.size());
      max_lanes = std::max(max_lanes, lanes.size());
      // Deterministic per-worker order: ascending stream id.
      EXPECT_TRUE(std::is_sorted(lanes.begin(), lanes.end()));
    }
    EXPECT_LE(max_lanes - min_lanes, 1u) << "shards=" << shards;
  }
}

TEST(LaneAssignment, IsDeterministic) {
  const std::vector<double> costs = {2.0, 3.0, 3.0, 1.0, 5.0, 1.0, 3.0};
  const auto a = assign_lanes(7, 3, costs);
  const auto b = assign_lanes(7, 3, costs);
  EXPECT_EQ(a, b);
}

TEST(ShardedSim, LaneWorkerReflectsTheConfiguredAssignment) {
  ShardedSimConfig cfg = make_cfg(5, 2);
  cfg.lane_costs = {1.0, 6.0, 1.0, 1.0, 1.0};
  ShardedSimulator sim(cfg);
  EXPECT_EQ(sim.lane_worker(0), 0);
  EXPECT_EQ(sim.lane_worker(1), 1);  // the heavy lane got the empty worker
  const auto owned = assign_lanes(5, 2, cfg.lane_costs);
  for (std::size_t w = 0; w < owned.size(); ++w) {
    for (int lane : owned[w]) {
      EXPECT_EQ(sim.lane_worker(lane), static_cast<int>(w));
    }
  }
}

TEST(ShardedSim, ScatterResultsAreAssignmentInvariant) {
  // Same program, skewed lane costs (a different lane→worker map than the
  // uniform reference), multiple worker counts: the per-lane logs must be
  // identical — placement is wall-clock only.
  const std::vector<LaneLog> ref = run_scatter(1);
  for (int shards : {1, 2}) {
    ShardedSimConfig cfg = make_cfg(3, shards);
    cfg.lane_costs = {4.0, 1.0, 2.0};
    ShardedSimulator sim(cfg);
    std::vector<LaneLog> logs(3);
    int acks = 0;
    constexpr int kPings = 8;
    for (int i = 0; i < kPings; ++i) {
      const int node = 1 + i % 2;
      sim.post(0, node, 10 + 5 * i, [&, i, node] {
        logs[static_cast<std::size_t>(node)].emplace_back(
            sim.lane(node).now(), i);
        sim.post(node, 0, sim.lane(node).now() + 10, [&, i] {
          logs[0].emplace_back(sim.lane(0).now(), i);
          ++acks;
        });
      });
    }
    sim.run([&] { return acks >= kPings; });
    for (std::size_t lane = 0; lane < logs.size(); ++lane) {
      EXPECT_EQ(logs[lane], ref[lane])
          << "lane " << lane << " shards=" << shards;
    }
  }
}

}  // namespace
}  // namespace dasched
