// Google-benchmark microbenchmarks of the telemetry subsystem.
//
// The recorder sits on the simulation hot path (one virtual call + a 32-byte
// store per hooked event), so its cost must stay in single-digit
// nanoseconds per record and a fully traced run must stay within a few
// percent of an untraced one.  BM_TelemetryRecord measures the raw append;
// BM_TelemetryGridCell measures the end-to-end on/off delta on the same
// grid cell the storage and scheduler microbenches use.
#include <benchmark/benchmark.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "driver/experiment.h"
#include "telemetry/analytics.h"
#include "telemetry/recorder.h"

namespace dasched {
namespace {

/// Raw recording cost: bounds check + 32-byte store into a pooled chunk.
void BM_TelemetryRecord(benchmark::State& state) {
  TraceBuffer buf;
  // Warm-up: grow the chunk pool once; clear() recycles it for the loop.
  for (int k = 0; k < (1 << 20); ++k) buf.append(TraceEvent{});
  buf.clear();
  std::uint64_t i = 0;
  for (auto _ : state) {
    buf.append(TraceEvent{static_cast<SimTime>(i),
                          static_cast<std::uint16_t>(TraceEventKind::kQueueDepth),
                          static_cast<std::uint16_t>(i & 0xffu),
                          static_cast<std::uint32_t>(i), i, i});
    i += 1;
    if (buf.size() == (1 << 20)) buf.clear();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(i));
}
BENCHMARK(BM_TelemetryRecord);

/// Trace-analysis throughput: events/sec through the analytics fold.
void BM_TelemetryAnalyze(benchmark::State& state) {
  ExperimentConfig cfg;
  cfg.app = "sar";
  cfg.scale.num_processes = 8;
  cfg.scale.factor = 0.2;
  cfg.policy = PolicyKind::kPrediction;
  cfg.telemetry.level = TraceLevel::kFull;
  const ExperimentResult r = run_experiment(cfg);
  std::vector<TraceEvent> events;
  events.reserve(r.telemetry->trace_events);
  // Rebuild a flat event stream at the recorded size for a stable input.
  for (std::uint64_t i = 0; i < r.telemetry->trace_events; ++i) {
    events.push_back(TraceEvent{
        static_cast<SimTime>(i),
        static_cast<std::uint16_t>(TraceEventKind::kEnergyAccrued),
        static_cast<std::uint16_t>(i % 8), 0,
        std::bit_cast<std::uint64_t>(0.001), 1000});
  }
  std::int64_t total = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(analyze_trace(events, TraceMeta{}));
    total += static_cast<std::int64_t>(events.size());
  }
  state.SetItemsProcessed(total);
}
BENCHMARK(BM_TelemetryAnalyze)->Unit(benchmark::kMillisecond);

/// End-to-end overhead: the same grid cell untraced (arg 0), traced at
/// state level (arg 1) and traced at full level (arg 2).
void BM_TelemetryGridCell(benchmark::State& state) {
  ExperimentConfig cfg;
  cfg.app = "sar";
  cfg.scale.num_processes = 8;
  cfg.scale.factor = 0.2;
  cfg.policy = PolicyKind::kHistory;
  cfg.use_scheme = true;
  switch (state.range(0)) {
    case 0: cfg.telemetry.level = TraceLevel::kOff; break;
    case 1: cfg.telemetry.level = TraceLevel::kState; break;
    default: cfg.telemetry.level = TraceLevel::kFull; break;
  }
  std::int64_t cells = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_experiment(cfg));
    cells += 1;
  }
  state.SetItemsProcessed(cells);
}
BENCHMARK(BM_TelemetryGridCell)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond)
    ->ArgNames({"level"});  // 0 = off, 1 = state, 2 = full

}  // namespace
}  // namespace dasched

BENCHMARK_MAIN();
