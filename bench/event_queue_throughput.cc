// Throughput harness for the simulator's event queue (the radix queue,
// sim/radix_queue.h).
//
// Runs the event-core workload shapes from bench/microbench_scheduler.cc —
// self-rescheduling timer chains (the engine's dominant pattern), a
// schedule/cancel mix, and a bimodal near/far horizon mix that spreads
// entries over the high buckets — with several repetitions, and reports
// the median thread-CPU seconds and events/second per workload as JSON on
// stdout.  It times whichever queue `Simulator` holds; the committed
// BENCH_event_queue.json pairs this queue against the one it replaced.
//
// Knobs (strictly parsed): DASCHED_BENCH_REPS (default 5),
// DASCHED_BENCH_EVENTS (events per repetition, default 2'000'000).
#include <time.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "engine/env_knobs.h"
#include "sim/simulator.h"

using namespace dasched;

namespace {

/// N self-rescheduling timer chains; mirrors BM_EventCoreTimerChains.
void run_timer_chains(Simulator& sim, int chains, std::int64_t total_events) {
  std::int64_t remaining = total_events;
  struct Chain {
    Simulator* sim;
    std::int64_t* remaining;
    SimTime period;
    void operator()() const {
      if (--*remaining <= 0) return;
      Chain next = *this;
      sim->schedule_after(period, next);
    }
  };
  for (int c = 0; c < chains; ++c) {
    Chain chain{&sim, &remaining, usec(10 + c)};
    sim.schedule_after(usec(c), chain);
  }
  while (sim.step()) {
  }
}

/// Half the scheduled events cancel before firing; mirrors
/// BM_EventCoreCancelMix.
void run_cancel_mix(Simulator& sim, int /*chains*/, std::int64_t total_events) {
  constexpr int kBatch = 1'024;
  std::vector<EventHandle> handles;
  handles.reserve(kBatch);
  for (std::int64_t done = 0; done < total_events; done += kBatch) {
    for (int i = 0; i < kBatch; ++i) {
      handles.push_back(sim.schedule_after(usec(100 + i), [] {}));
    }
    for (int i = 0; i < kBatch; i += 2) {
      handles[static_cast<std::size_t>(i)].cancel();
    }
    while (sim.step()) {
    }
    handles.clear();
  }
}

/// 7:2:1 near/mid/far horizons from a deterministic LCG: pushes land in low
/// and high buckets alike.
void run_bimodal(Simulator& sim, int chains, std::int64_t total_events) {
  std::int64_t remaining = total_events;
  struct Chain {
    Simulator* sim;
    std::int64_t* remaining;
    std::uint64_t rng;
    void operator()() {
      if (--*remaining <= 0) return;
      rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
      const std::uint64_t r = rng >> 33;
      const std::int64_t horizon =
          r % 10 < 7
              ? 1 + static_cast<std::int64_t>(r % 97)
              : (r % 10 < 9
                     ? 1'000 + static_cast<std::int64_t>(r % 9'001)
                     : 500'000 + static_cast<std::int64_t>(r % 1'000'000));
      Chain next = *this;
      sim->schedule_after(SimTime{horizon}, next);
    }
  };
  for (int c = 0; c < chains; ++c) {
    Chain chain{&sim, &remaining, static_cast<std::uint64_t>(c) * 977 + 1};
    sim.schedule_after(usec(c), chain);
  }
  while (sim.step()) {
  }
}

struct Workload {
  const char* name;
  void (*run)(Simulator&, int, std::int64_t);
  int chains;
};

/// Thread CPU time: the benchmark is single-threaded and deterministic, so
/// CPU seconds are the signal; wall-clock would fold in whatever else the
/// host is running (CI machines are rarely quiet).
double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double time_one(const Workload& w, std::int64_t events) {
  Simulator sim;
  sim.reserve_events(8'192);
  const double t0 = cpu_now();
  w.run(sim, w.chains, events);
  return cpu_now() - t0;
}

}  // namespace

int main() {
  const int reps = env_int("DASCHED_BENCH_REPS", 5);
  const auto events = static_cast<std::int64_t>(
      env_int("DASCHED_BENCH_EVENTS", 2'000'000));
  const std::vector<Workload> workloads = {
      {"timer_chains/1", &run_timer_chains, 1},
      {"timer_chains/64", &run_timer_chains, 64},
      {"cancel_mix", &run_cancel_mix, 1},
      {"bimodal_horizons/64", &run_bimodal, 64},
  };

  bench::ThroughputJsonWriter json(
      "event_queue",
      "\"events_per_rep\": " + std::to_string(static_cast<long long>(events)),
      reps, "workloads");
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    const Workload& w = workloads[i];
    std::vector<double> seconds;
    for (int rep = 0; rep < reps; ++rep) {
      seconds.push_back(time_one(w, events));
    }
    const double med = bench::median_seconds(seconds);
    std::fprintf(stderr, "[%s] %.3fs (%.0f ev/s)\n", w.name, med,
                 static_cast<double>(events) / med);
    char fields[160];
    std::snprintf(fields, sizeof(fields),
                  "\"workload\": \"%s\", \"median_seconds\": %.4f, "
                  "\"events_per_sec\": %.0f",
                  w.name, med, static_cast<double>(events) / med);
    json.row(fields, i + 1 == workloads.size());
  }
  json.finish();
  return 0;
}
