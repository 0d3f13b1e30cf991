// Google-benchmark microbenchmarks of the compile-time machinery, the
// discrete-event core and the grid engine.
//
// Sec. V-A reports the longest compilation taking ~1.4 s, roughly 40% more
// than without the scheme; these benches measure the cost of our slack
// analysis and scheduling passes so that claim can be checked against this
// implementation (see EXPERIMENTS.md).  The event-core and grid benches
// track the engine work: events/sec of the pooled small-buffer event loop
// and wall-clock scaling of the parallel grid runner.
#include <benchmark/benchmark.h>

#include "compiler/compile.h"
#include "core/scheduler.h"
#include "driver/experiment.h"
#include "engine/grid_runner.h"
#include "sim/simulator.h"
#include "storage/storage_system.h"
#include "util/rng.h"
#include "workload/app.h"

namespace dasched {
namespace {

void BM_SignatureDistance(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  Rng rng(1);
  Signature a(n);
  Signature b(n);
  for (int i = 0; i < n / 4 + 1; ++i) {
    a.set(static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n))));
    b.set(static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n))));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(distance(a, b));
  }
}
BENCHMARK(BM_SignatureDistance)->Arg(8)->Arg(32)->Arg(256);

std::vector<AccessRecord> random_accesses(int count, int nodes, Slot slots,
                                          std::uint64_t seed) {
  Rng rng(seed);
  std::vector<AccessRecord> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    AccessRecord rec;
    rec.id = i;
    rec.process = i % 32;
    rec.end = static_cast<Slot>(rng.next_below(static_cast<std::uint64_t>(slots)));
    rec.begin = rec.end - static_cast<Slot>(rng.next_below(
                              static_cast<std::uint64_t>(rec.end) + 1));
    rec.original = rec.end;
    rec.sig = Signature(nodes);
    rec.sig.set(static_cast<int>(rng.next_below(static_cast<std::uint64_t>(nodes))));
    rec.sig.set(static_cast<int>(rng.next_below(static_cast<std::uint64_t>(nodes))));
    out.push_back(std::move(rec));
  }
  return out;
}

void BM_BasicScheduling(benchmark::State& state) {
  const int count = static_cast<int>(state.range(0));
  const Slot slots = 4'096;
  auto accesses = random_accesses(count, 8, slots, 42);
  for (auto _ : state) {
    AccessScheduler sched(8, slots, ScheduleOptions{});
    benchmark::DoNotOptimize(sched.schedule(accesses));
  }
  state.SetItemsProcessed(state.iterations() * count);
}
BENCHMARK(BM_BasicScheduling)->Arg(1'000)->Arg(10'000)->Unit(benchmark::kMillisecond);

void BM_ThetaConstrainedScheduling(benchmark::State& state) {
  const int count = static_cast<int>(state.range(0));
  const Slot slots = 4'096;
  auto accesses = random_accesses(count, 8, slots, 7);
  ScheduleOptions opts;
  opts.theta = 4;
  for (auto _ : state) {
    AccessScheduler sched(8, slots, opts);
    benchmark::DoNotOptimize(sched.schedule(accesses));
  }
  state.SetItemsProcessed(state.iterations() * count);
}
BENCHMARK(BM_ThetaConstrainedScheduling)->Arg(1'000)->Arg(10'000)
    ->Unit(benchmark::kMillisecond);

/// Full compiler pipeline (slack analysis, scheduling, table) on `app`'s
/// trace at `procs` processes and scale `factor`, over `nodes` I/O nodes.
void compile_pipeline(benchmark::State& state, const char* app, int nodes,
                      bool scheduling, int procs = 32, double factor = 0.25) {
  WorkloadScale scale;
  scale.num_processes = procs;
  scale.factor = factor;
  for (auto _ : state) {
    state.PauseTiming();
    StripingMap striping(nodes, kib(64));
    CompiledProgram trace = app_by_name(app).build(striping, scale);
    state.ResumeTiming();
    CompileOptions opts;
    opts.enable_scheduling = scheduling;
    opts.slack.max_slack = 600;
    benchmark::DoNotOptimize(compile_trace(std::move(trace), striping, opts));
  }
}

/// The paper's "compilation time" figure: sar on 8 I/O nodes.  Run once
/// per iteration at the test scale.
void BM_CompilePipeline(benchmark::State& state) {
  compile_pipeline(state, "sar", 8, state.range(0) != 0);
}
BENCHMARK(BM_CompilePipeline)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->ArgNames({"scheduling"});

/// The class-heavy case of the scheduler's reuse tables: hf on 64 I/O
/// nodes has 64 (signature, length) classes, sar on 8 nodes 11.
void BM_CompilePipelineHf64Nodes(benchmark::State& state) {
  compile_pipeline(state, "hf", 64, true);
}
BENCHMARK(BM_CompilePipelineHf64Nodes)->Unit(benchmark::kMillisecond);

/// The wide compile: sar on 64 I/O nodes x 512 processes at scale 0.05
/// (the perfbench `wide-sar` cell), 80 classes over 1,306 slots.  About 40%
/// of its accesses take the θ fallback, so this is the E_t-heavy case.
void BM_CompilePipelineSar64Nodes(benchmark::State& state) {
  compile_pipeline(state, "sar", 64, true, 512, 0.05);
}
BENCHMARK(BM_CompilePipelineSar64Nodes)->Unit(benchmark::kMillisecond);

/// Event-core throughput: N self-rescheduling timer chains, the simulator's
/// dominant workload shape (disk timers, client ticks).  Reports events/sec;
/// this is the number the allocation-lean core (pooled records + small-
/// buffer callbacks) lifts over the old std::function/shared_ptr design.
void BM_EventCoreTimerChains(benchmark::State& state) {
  const int chains = static_cast<int>(state.range(0));
  constexpr std::int64_t kEventsPerIter = 200'000;
  std::int64_t events = 0;
  for (auto _ : state) {
    Simulator sim;
    std::int64_t remaining = kEventsPerIter;
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
    events += kEventsPerIter;
  }
  state.SetItemsProcessed(events);
}
BENCHMARK(BM_EventCoreTimerChains)->Arg(1)->Arg(64)->Unit(benchmark::kMillisecond);

/// Event-core schedule/cancel mix: half the scheduled events are cancelled
/// before firing, exercising handle bookkeeping (the pooled-slot fast path).
void BM_EventCoreCancelMix(benchmark::State& state) {
  constexpr int kBatch = 1'024;
  std::int64_t scheduled = 0;
  for (auto _ : state) {
    Simulator sim;
    std::vector<EventHandle> handles;
    handles.reserve(kBatch);
    for (int round = 0; round < 64; ++round) {
      for (int i = 0; i < kBatch; ++i) {
        handles.push_back(sim.schedule_after(usec(100 + i), [] {}));
      }
      for (int i = 0; i < kBatch; i += 2) handles[static_cast<std::size_t>(i)].cancel();
      while (sim.step()) {
      }
      handles.clear();
      scheduled += kBatch;
    }
  }
  state.SetItemsProcessed(scheduled);
}
BENCHMARK(BM_EventCoreCancelMix)->Unit(benchmark::kMillisecond);

/// Grid-runner scaling: one tiny real grid (8 cells), executed serially and
/// on a worker pool.  items/sec = cells/sec; the ratio of the Arg(8) to the
/// Arg(1) run is the grid wall-clock speedup on this machine (bounded by
/// hardware_concurrency — see BENCH_engine.json for recorded numbers).
void BM_GridRunner(benchmark::State& state) {
  ExperimentGrid grid;
  grid.base.scale.num_processes = 4;
  grid.base.scale.factor = 0.05;
  grid.apps = {"sar", "madbench2"};
  grid.policies = {PolicyKind::kNone, PolicyKind::kHistory};
  grid.schemes = {false, true};
  GridRunOptions opts;
  opts.threads = static_cast<int>(state.range(0));
  std::int64_t cells = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_grid(grid, opts));
    cells += static_cast<std::int64_t>(grid.size());
  }
  state.SetItemsProcessed(cells);
}
BENCHMARK(BM_GridRunner)
    ->Arg(1)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->ArgNames({"threads"})
    ->MeasureProcessCPUTime()
    ->UseRealTime();

// --------------------------------------------------------------------------
// Storage data path (StorageSystem::route -> IoNode -> Disk).
// These benches pin the per-request cost of the storage fast path; the
// recorded A/B numbers live in BENCH_storage_path.json.
// --------------------------------------------------------------------------

/// Steady-state cached reads: every block is resident after warm-up, so each
/// request costs route + network events + cache lookup + join, no disk.
void BM_StoragePathCachedRead(benchmark::State& state) {
  Simulator sim;
  StorageSystem storage(sim, StorageConfig{});  // Table II defaults
  constexpr int kBlocks = 512;                  // 32 MiB working set, fits
  const FileId f = storage.create_file("hot", kib(64) * kBlocks);
  std::int64_t completed = 0;
  for (int i = 0; i < kBlocks; ++i) {           // warm the node caches
    storage.read(f, (i) * kib(64), kib(64),
                 [&completed] { ++completed; });
  }
  sim.run();
  constexpr int kReadsPerIter = 1'024;
  for (auto _ : state) {
    for (int i = 0; i < kReadsPerIter; ++i) {
      storage.read(f, (i % kBlocks) * kib(64), kib(64),
                   [&completed] { ++completed; });
    }
    sim.run();
  }
  benchmark::DoNotOptimize(completed);
  state.SetItemsProcessed(state.iterations() * kReadsPerIter);
}
BENCHMARK(BM_StoragePathCachedRead)->Unit(benchmark::kMillisecond);

/// Cache-miss stream: tiny node caches + a file far larger than they hold,
/// so nearly every read walks the full miss path (LRU eviction, block split,
/// elevator queue, disk service, sequential prefetch).
void BM_StoragePathDiskMiss(benchmark::State& state) {
  Simulator sim;
  StorageConfig cfg;
  cfg.node.cache_capacity = mib(1);  // 16 blocks per node
  StorageSystem storage(sim, cfg);
  constexpr int kBlocks = 8'192;     // 512 MiB file
  const FileId f = storage.create_file("cold", kib(64) * kBlocks);
  std::int64_t completed = 0;
  std::int64_t pos = 0;
  constexpr int kReadsPerIter = 512;
  for (auto _ : state) {
    for (int i = 0; i < kReadsPerIter; ++i) {
      storage.read(f, (pos % kBlocks) * kib(64), kib(64),
                   [&completed] { ++completed; });
      pos += 1;
    }
    sim.run();
  }
  benchmark::DoNotOptimize(completed);
  state.SetItemsProcessed(state.iterations() * kReadsPerIter);
}
BENCHMARK(BM_StoragePathDiskMiss)->Unit(benchmark::kMillisecond);

/// Ack-early write bursts over random offsets: the cache absorbs the writes
/// while the per-disk elevator queues sort and drain the background flushes.
void BM_StoragePathWriteBurst(benchmark::State& state) {
  Simulator sim;
  StorageConfig cfg;
  cfg.node.cache_capacity = mib(4);
  StorageSystem storage(sim, cfg);
  constexpr int kBlocks = 4'096;
  const FileId f = storage.create_file("wb", kib(64) * kBlocks);
  Rng rng(99);
  std::vector<Bytes> offsets(2'048);
  for (Bytes& o : offsets) {
    o = (rng.next_below(kBlocks)) * kib(64);
  }
  std::int64_t completed = 0;
  for (auto _ : state) {
    for (const Bytes o : offsets) {
      storage.write(f, o, kib(64), [&completed] { ++completed; });
    }
    sim.run();
  }
  benchmark::DoNotOptimize(completed);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(offsets.size()));
}
BENCHMARK(BM_StoragePathWriteBurst)->Unit(benchmark::kMillisecond);

/// End-to-end default-config grid cell (the BM_GridRunner cell shape): one
/// full experiment — workload build, compile, simulate — per iteration.
/// items/sec = cells/sec; this is the number the storage-path rewrite lifts.
void BM_StoragePathGridCell(benchmark::State& state) {
  ExperimentConfig cfg;
  cfg.app = state.range(0) == 0 ? "sar" : "madbench2";
  cfg.scale.num_processes = 8;
  cfg.scale.factor = 0.2;
  cfg.policy = PolicyKind::kHistory;
  cfg.use_scheme = state.range(1) != 0;
  std::int64_t cells = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_experiment(cfg));
    cells += 1;
  }
  state.SetItemsProcessed(cells);
}
BENCHMARK(BM_StoragePathGridCell)
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1})
    ->Unit(benchmark::kMillisecond)
    ->ArgNames({"madbench2", "scheme"});

// --------------------------------------------------------------------------
// Scheduling-compiler fast path (AccessScheduler::schedule + slack analysis).
// These benches pin the cost of the scheme-on compile pipeline; recorded A/B
// numbers live in BENCH_scheduler.json.
// --------------------------------------------------------------------------

/// Pure scheduling pass over a realistic mixed-length workload with the
/// Table II defaults (δ = 20, θ = 4, max_candidates = 128).  items/sec =
/// accesses/sec through AccessScheduler::schedule.
void BM_SchedulerSchedule(benchmark::State& state) {
  const int count = static_cast<int>(state.range(0));
  const Slot slots = 4'096;
  auto accesses = random_accesses(count, 8, slots, 42);
  Rng rng(17);
  for (auto& rec : accesses) {  // mixed lengths, as the extended algorithm sees
    const int len = 1 + static_cast<int>(rng.next_below(4));
    rec.length = std::min<int>(len, static_cast<int>(rec.end - rec.begin + 1));
  }
  for (auto _ : state) {
    AccessScheduler sched(8, slots, ScheduleOptions{});
    benchmark::DoNotOptimize(sched.schedule(accesses));
  }
  state.SetItemsProcessed(state.iterations() * count);
}
BENCHMARK(BM_SchedulerSchedule)->Arg(1'000)->Arg(10'000)
    ->Unit(benchmark::kMillisecond);

/// Slack analysis (LastWriteMap interval store + signature assignment) on a
/// real application trace.  items/sec = read accesses analyzed per second.
void BM_SchedulerSlackAnalysis(benchmark::State& state) {
  StripingMap striping(8, kib(64));
  WorkloadScale scale;
  scale.num_processes = 32;
  scale.factor = 0.25;
  CompiledProgram trace = app_by_name("sar").build(striping, scale);
  SlackOptions opts;
  opts.max_slack = 600;
  std::int64_t reads = 0;
  for (auto _ : state) {
    analyze_slacks(trace, striping, opts);
    benchmark::DoNotOptimize(trace.reads.data());
    reads += static_cast<std::int64_t>(trace.reads.size());
  }
  state.SetItemsProcessed(reads);
}
BENCHMARK(BM_SchedulerSlackAnalysis)->Unit(benchmark::kMillisecond);

/// End-to-end scheme-on grid cell (the BM_StoragePathGridCell shape with the
/// scheme forced on): workload build + compile + schedule + simulate.  This
/// is the cell the scheduling-compiler fast path must lift ≥1.5x.
void BM_SchedulerGridCellSchemeOn(benchmark::State& state) {
  ExperimentConfig cfg;
  cfg.app = state.range(0) == 0 ? "sar" : "madbench2";
  cfg.scale.num_processes = 8;
  cfg.scale.factor = 0.2;
  cfg.policy = PolicyKind::kHistory;
  cfg.use_scheme = true;
  std::int64_t cells = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_experiment(cfg));
    cells += 1;
  }
  state.SetItemsProcessed(cells);
}
BENCHMARK(BM_SchedulerGridCellSchemeOn)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->ArgNames({"app"});  // 0 = sar, 1 = madbench2

void BM_ReuseFactor(benchmark::State& state) {
  AccessScheduler sched(8, 1'000, ScheduleOptions{.delta = 20});
  auto accesses = random_accesses(200, 8, 1'000, 3);
  for (const auto& a : accesses) sched.place(a, a.end);
  AccessRecord probe = accesses.front();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched.reuse_factor(probe, 500));
  }
}
BENCHMARK(BM_ReuseFactor);

}  // namespace
}  // namespace dasched

BENCHMARK_MAIN();
