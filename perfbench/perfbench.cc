// The dasched benchmark: four workloads, end-to-end metrics measured with
// tracing off, and a separate traced run that times each layer's public
// entry points from the outside.  README.md in this directory names the
// workloads, the metrics, the layer each per-layer metric belongs to, and
// the rules for comparing two commits.  run.py builds this binary and
// forwards its output.
//
//   dasched_perfbench --workload paper-hf --seed 1 --seconds 10 --trace 0
//       [--spans FILE]
//
// The last line on stdout is one JSON object: {"correct", "attempted",
// "failed", "metrics"}.  Progress and the per-layer self-time table go to
// stderr; with --spans the traced run also writes every span it recorded,
// one JSON object per line.
//
// Every operation's output is checked: timed repetitions against the
// workload's first, the traced pipeline against the untraced
// run_experiment, and every daemon reply against the in-process result for
// the same config.  A mismatch or an exception counts as a failed
// operation.
//
// Every reported time is a wall time scaled to a reference host speed by a
// probe run around it (HostSpeed below); stderr shows both.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "compiler/compile.h"
#include "core/scheduler.h"
#include "core/scheduling_table.h"
#include "driver/experiment.h"
#include "driver/workspace.h"
#include "io/cluster.h"
#include "serve/client.h"
#include "serve/server.h"
#include "sim/simulator.h"
#include "storage/storage_system.h"
#include "util/rng.h"
#include "workload/app.h"

using namespace dasched;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile `q` (0 < q <= 1) of `v`, which is sorted.
double nearest_rank(const std::vector<double>& v, double q) {
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[rank == 0 ? 0 : rank - 1];
}

/// The tail latency: p95 (nearest rank) when at least ten samples lie above
/// it, otherwise p75.  The run workloads time a few experiments a run, and
/// the slowest of a few is the sample a burst of load on the host hits.
double tail(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(0.95 * static_cast<double>(v.size())));
  return v.size() - rank >= 10 ? v[rank - 1] : nearest_rank(v, 0.75);
}

double geomean(const std::vector<double>& v) {
  double log_sum = 0.0;
  for (double x : v) log_sum += std::log(x);
  return v.empty() ? 0.0 : std::exp(log_sum / static_cast<double>(v.size()));
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --- Results and their checks ---------------------------------------------

/// What must repeat bit-for-bit between two runs of one config.
struct Fingerprint {
  double energy_j = 0.0;
  std::int64_t exec_us = 0;
  std::int64_t events = 0;

  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;

  [[nodiscard]] std::string str() const {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "energy=%a exec=%lld events=%lld",
                  energy_j, static_cast<long long>(exec_us),
                  static_cast<long long>(events));
    return buf;
  }
};

Fingerprint fingerprint_of(const ExperimentResult& r) {
  return {r.energy_j.value(), r.exec_time.count(), r.events};
}

/// Counts operations and failures, collects metrics, prints the result line.
class Report {
 public:
  void attempt(long long n = 1) { attempted_ += n; }

  void fail(const std::string& what) {
    ++failed_;
    std::fprintf(stderr, "perfbench: FAILED: %s\n", what.c_str());
  }

  /// One attempted operation whose output must equal `want`.
  void check(const std::string& what, const Fingerprint& got,
             const Fingerprint& want) {
    attempt();
    if (!(got == want)) {
      fail(what + ": got " + got.str() + ", want " + want.str());
    }
  }

  void metric(const std::string& name, double value, const char* unit) {
    metrics_.emplace_back(name, std::make_pair(value, unit));
  }

  void print() const {
    for (const auto& [name, m] : metrics_) {
      std::fprintf(stderr, "  %-26s %18.6f %s\n", name.c_str(), m.first,
                   m.second);
    }
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": {",
                failed_ == 0 && attempted_ > 0 ? "true" : "false",
                attempted_, failed_);
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const auto& [name, m] = metrics_[i];
      const double v = std::isfinite(m.first) ? m.first : 0.0;
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", name.c_str(), v, m.second);
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  long long attempted_ = 0;
  long long failed_ = 0;
  std::vector<std::pair<std::string, std::pair<double, const char*>>> metrics_;
};

// --- Spans -----------------------------------------------------------------

/// In-memory span log for the traced run: name, parent, start and end
/// relative to the tracer's origin, and the request the span belongs to.
/// Nothing is written until the run has ended.
class Tracer {
 public:
  struct Span {
    const char* name;
    int parent;
    int request;
    double start_s;
    double end_s = 0.0;
  };

  int open(const char* name, int parent, int request) {
    spans_.push_back(Span{name, parent, request, seconds_since(origin_)});
    return static_cast<int>(spans_.size()) - 1;
  }

  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end_s = seconds_since(origin_);
  }

  /// Runs `f` inside a span and returns its result.
  template <typename F>
  auto span(const char* name, int parent, int request, F&& f) {
    const int id = open(name, parent, request);
    if constexpr (std::is_void_v<std::invoke_result_t<F>>) {
      f();
      close(id);
    } else {
      auto out = f();
      close(id);
      return out;
    }
  }

  /// Total duration of the spans named `name` among spans [first, last).
  [[nodiscard]] double total(const char* name, std::size_t first,
                             std::size_t last) const {
    double sum = 0.0;
    for (std::size_t i = first; i < last; ++i) {
      const Span& s = spans_[i];
      if (std::string_view(s.name) == name) sum += s.end_s - s.start_s;
    }
    return sum;
  }

  [[nodiscard]] std::size_t size() const { return spans_.size(); }

  /// Self time per span name: duration minus the part its children cover.
  void print_self_times() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child[static_cast<std::size_t>(s.parent)] += s.end_s - s.start_s;
      }
    }
    std::map<std::string, std::pair<double, double>> by_name;  // total, self
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const double d = spans_[i].end_s - spans_[i].start_s;
      auto& [total, self] = by_name[spans_[i].name];
      total += d;
      self += d - child[i];
    }
    std::fprintf(stderr, "  %-22s %12s %12s\n", "span", "total_s", "self_s");
    for (const auto& [name, ts] : by_name) {
      std::fprintf(stderr, "  %-22s %12.6f %12.6f\n", name.c_str(), ts.first,
                   ts.second);
    }
  }

  bool write(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
                   "\"request\": %d, \"start_s\": %.9f, \"end_s\": %.9f}\n",
                   i, s.name, s.parent, s.request, s.start_s, s.end_s);
    }
    return std::fclose(f) == 0;
  }

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

/// The experiment pipeline assembled from each layer's public entry points,
/// in the order ExperimentWorkspace runs them for the classic engine, with
/// one span per layer call.  Returns the same result as run_experiment(cfg).
ExperimentResult traced_pipeline(const ExperimentConfig& cfg, Tracer& tr,
                                 int request, std::int64_t& reads) {
  const int root = tr.open("pipeline", -1, request);
  ExperimentResult result;
  {
    Simulator sim;
    sim.reserve_events(default_event_reserve(cfg.storage, cfg.scale));
    StorageConfig storage_cfg = cfg.storage;
    storage_cfg.node.policy = cfg.policy;
    storage_cfg.node.policy_cfg = cfg.policy_cfg;
    storage_cfg.seed = cfg.seed;
    std::optional<StorageSystem> storage;
    tr.span("storage.setup", root, request,
            [&] { storage.emplace(sim, storage_cfg); });

    const App& app = app_by_name(cfg.app);
    CompiledProgram program = tr.span("workload.build", root, request, [&] {
      return app.build(storage->striping(), cfg.scale);
    });

    CompileOptions copts = cfg.compile;
    copts.enable_scheduling = cfg.use_scheme;
    copts.slack.length_unit = app.length_unit;
    copts.slack.max_slack = cfg.max_slack;
    tr.span("compiler.slack", root, request, [&] {
      analyze_slacks(program, storage->striping(), copts.slack);
    });
    reads = static_cast<std::int64_t>(program.reads.size());

    Compiled compiled;
    tr.span("core.schedule", root, request, [&] {
      if (copts.enable_scheduling && !program.reads.empty()) {
        AccessScheduler scheduler(storage->striping().num_io_nodes(),
                                  std::max<Slot>(program.num_slots, 1),
                                  copts.sched);
        compiled.scheduled = scheduler.schedule(program.reads);
        compiled.sched_stats = scheduler.stats();
      } else {
        compiled.scheduled.reserve(program.reads.size());
        for (const AccessRecord& rec : program.reads) {
          compiled.scheduled.push_back(ScheduledAccess{rec, rec.original, false});
        }
        compiled.sched_stats.scheduled =
            static_cast<std::int64_t>(compiled.scheduled.size());
      }
    });
    tr.span("core.table", root, request,
            [&] { compiled.table = SchedulingTable(compiled.scheduled); });
    compiled.program = std::move(program);

    RuntimeConfig rt = cfg.runtime;
    rt.use_runtime_scheduler = cfg.use_scheme;
    std::optional<Cluster> cluster;
    tr.span("io.cluster_setup", root, request,
            [&] { cluster.emplace(sim, *storage, compiled, rt); });
    tr.span("sim.run", root, request, [&] {
      cluster->run_to_completion();
      storage->finalize_into(result.storage);
    });
    if (!cluster->all_finished()) {
      throw std::runtime_error("traced pipeline: clients are stuck");
    }

    result.app = cfg.app;
    result.policy = cfg.policy;
    result.scheme = cfg.use_scheme;
    result.exec_time = cluster->exec_time();
    result.energy_j = result.storage.energy_j;
    result.runtime = cluster->stats();
    result.sched = compiled.sched_stats;
    result.events = sim.events_executed();
  }  // the stack's teardown stays inside the root span, as in run_experiment
  tr.close(root);
  return result;
}

/// Sums of the per-layer counts over the configs of one traced pass.
struct LayerCounts {
  std::int64_t reads = 0;
  std::int64_t theta_fallbacks = 0;
  std::int64_t forced = 0;
  std::int64_t prefetches = 0;
  std::int64_t buffer_hits = 0;
  std::int64_t direct_reads = 0;
  std::int64_t full_rejections = 0;
  std::int64_t reservations = 0;
  std::int64_t events = 0;
  std::int64_t storage_requests = 0;
  std::int64_t disk_requests = 0;
  std::int64_t spin_downs = 0;
  std::int64_t rpm_changes = 0;
  double cache_hit_rate_sum = 0.0;
  int runs = 0;
  std::int64_t workload_builds = 0;
  std::int64_t compile_misses = 0;

  void add(const ExperimentResult& r, std::int64_t nreads) {
    reads += nreads;
    theta_fallbacks += r.sched.theta_fallbacks;
    forced += r.sched.forced;
    prefetches += r.runtime.prefetches;
    buffer_hits += r.runtime.buffer_hits;
    direct_reads += r.runtime.direct_reads;
    full_rejections += r.runtime.buffer.full_rejections;
    reservations += r.runtime.buffer.reservations;
    events += r.events;
    storage_requests += r.storage.requests;
    disk_requests += r.storage.disk_requests;
    spin_downs += r.storage.spin_downs;
    rpm_changes += r.storage.rpm_changes;
    cache_hit_rate_sum += r.storage.cache_hit_rate;
    ++runs;
  }

  friend bool operator==(const LayerCounts&, const LayerCounts&) = default;
};

// --- Workloads ---------------------------------------------------------------

constexpr std::array<PolicyKind, 5> kPolicies = {
    PolicyKind::kNone, PolicyKind::kSimple, PolicyKind::kPrediction,
    PolicyKind::kHistory, PolicyKind::kStaggered};

/// Serve-mix request size: the paper's 8 I/O nodes with 8 client processes
/// at a small scale, so one request takes milliseconds (wupwise, the
/// largest, about 0.1 s) while a sweep still rebuilds the workload at every
/// app switch.
constexpr int kServeProcs = 8;
constexpr double kServeScale = 0.01;

ExperimentConfig base_config(std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.seed = seed;
  cfg.shards = 0;
  cfg.audit = false;
  return cfg;
}

/// The three single-experiment workloads; nullopt for any other name.
std::optional<ExperimentConfig> run_workload(const std::string& name,
                                             std::uint64_t seed) {
  ExperimentConfig cfg = base_config(seed);
  cfg.policy = PolicyKind::kHistory;
  if (name == "paper-hf") {
    cfg.app = "hf";
    cfg.storage.num_io_nodes = 8;
    cfg.scale.num_processes = 32;
    cfg.scale.factor = 0.5;
    cfg.use_scheme = true;
    return cfg;
  }
  if (name == "wide-sar" || name == "wide-sar-off") {
    cfg.app = "sar";
    cfg.storage.num_io_nodes = 64;
    cfg.scale.num_processes = 512;
    cfg.scale.factor = 0.05;
    cfg.use_scheme = name == "wide-sar";
    return cfg;
  }
  return std::nullopt;
}

/// The Default-scheme cell (no power policy, scheme off) of the same app
/// and topology: the base of sim_energy_norm and sim_slowdown.
ExperimentConfig default_cell(ExperimentConfig cfg) {
  cfg.policy = PolicyKind::kNone;
  cfg.use_scheme = false;
  return cfg;
}

/// Every serve-mix config: app-major, then policy, then scheme off/on.
std::vector<ExperimentConfig> mix_cells(std::uint64_t seed) {
  std::vector<ExperimentConfig> cells;
  for (const App& app : all_apps()) {
    for (PolicyKind policy : kPolicies) {
      for (bool scheme : {false, true}) {
        ExperimentConfig cfg = base_config(seed);
        cfg.app = app.name;
        cfg.storage.num_io_nodes = 8;
        cfg.scale.num_processes = kServeProcs;
        cfg.scale.factor = kServeScale;
        cfg.policy = policy;
        cfg.use_scheme = scheme;
        cells.push_back(cfg);
      }
    }
  }
  return cells;
}

constexpr std::size_t kCellsPerApp = kPolicies.size() * 2;

/// The tenant's sweep: every app's policy sweep, apps in a seeded order.
std::vector<std::size_t> mix_sequence(std::uint64_t seed) {
  std::vector<std::size_t> apps(all_apps().size());
  for (std::size_t i = 0; i < apps.size(); ++i) apps[i] = i;
  Rng rng(derive_seed(seed, 1));
  for (std::size_t i = apps.size(); i > 1; --i) {
    std::swap(apps[i - 1], apps[rng.next_below(i)]);
  }
  std::vector<std::size_t> seq;
  for (std::size_t a : apps) {
    for (std::size_t c = 0; c < kCellsPerApp; ++c) {
      seq.push_back(a * kCellsPerApp + c);
    }
  }
  return seq;
}

/// Geometric means over the scheme-on cells of energy and exec time, each
/// relative to the Default-scheme cell of the same app.
std::pair<double, double> mix_norms(const std::vector<ExperimentResult>& refs) {
  std::vector<double> energy, slowdown;
  for (std::size_t i = 0; i < refs.size(); ++i) {
    if (!refs[i].scheme) continue;
    const ExperimentResult& base = refs[i - i % kCellsPerApp];
    energy.push_back(normalized_energy(refs[i], base));
    slowdown.push_back(ratio(static_cast<double>(refs[i].exec_time),
                             static_cast<double>(base.exec_time)));
  }
  return {geomean(energy), geomean(slowdown)};
}

constexpr int kSetups = 5;
constexpr int kMinTimedRuns = 3;

/// True when one more operation costing `last_s`, started now, still ends
/// within `seconds` of `start`: timed loops stop short of the budget rather
/// than overrun it by most of an operation.
bool another_fits(Clock::time_point start, double seconds, double last_s) {
  return seconds_since(start) + last_s <= seconds;
}

// --- Host speed ------------------------------------------------------------

/// A shared host's speed can drift by tens of percent within minutes, with
/// CPU time equal to wall time: other machines' load slows the memory system
/// and the cores the simulator runs on.  HostSpeed probes the host around every
/// timed operation with a fixed piece of work of its own, and scales the
/// operation's wall time to the speed at which the probe takes kProbeRefS.
/// The probe models the simulator's two costs: a chase of dependent loads
/// through a 32 MiB table (memory latency), then pop-and-push rounds on a
/// binary heap of random keys (the branchy core of a discrete-event loop).
/// A warm pass over the table precedes each chase, so what the operation
/// before it left in the caches does not change the probe's time.  No
/// library code runs in the probe, so a change to the library moves the
/// scaled times as much as the wall times.
class HostSpeed {
 public:
  HostSpeed() : next_(kTableEntries) {
    // Sattolo's shuffle: a single cycle through every entry.
    for (std::uint32_t i = 0; i < kTableEntries; ++i) next_[i] = i;
    Rng rng(kProbeSeed);
    for (std::size_t i = kTableEntries - 1; i > 0; --i) {
      std::swap(next_[i], next_[rng.next_below(i)]);
    }
    heap_.reserve(kHeapSize);
    last_ = probe();
  }

  /// The factor that scales wall times measured since the previous call (or
  /// construction) to the reference speed: kProbeRefS over the mean of the
  /// probes before and after them.  Probes again.
  double factor() {
    const double now = probe();
    const double f = kProbeRefS / (0.5 * (last_ + now));
    last_ = now;
    return f;
  }

 private:
  static constexpr std::uint32_t kTableEntries = 8u << 20;  // 32 MiB
  static constexpr int kChaseSteps = 1 << 20;
  static constexpr std::size_t kHeapSize = 1 << 16;
  static constexpr int kHeapRounds = 600000;
  static constexpr std::uint64_t kProbeSeed = 0x5eed;
  /// The probe's median time on the 4-core VM of baseline.json.
  static constexpr double kProbeRefS = 0.21;

  double probe() {
    std::uint32_t p = 0;
    for (std::uint32_t v : next_) p ^= v & 1u;  // warm pass; p is 0 or 1
    const auto t0 = Clock::now();
    for (int i = 0; i < kChaseSteps; ++i) p = next_[p];
    heap_.clear();
    Rng rng(kProbeSeed + p);  // p is the same every time; it orders the work
    for (std::size_t i = 0; i < kHeapSize; ++i) {
      heap_.push_back(rng.next_below(1u << 30));
      std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
    }
    for (int i = 0; i < kHeapRounds; ++i) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
      heap_.back() += rng.next_below(1u << 20);
      std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
    }
    std::uint64_t top = heap_.front();
    asm volatile("" : "+r"(top) : : "memory");  // the work ends before the clock is read
    return seconds_since(t0);
  }

  std::vector<std::uint32_t> next_;
  std::vector<std::uint64_t> heap_;
  double last_ = 0.0;
};

// --- Untraced runs (--trace 0) ---------------------------------------------

void measure_run(const ExperimentConfig& cfg, double seconds, Report& rep) {
  HostSpeed speed;

  // Set-up: the Default-scheme reference cell the modelled metrics divide
  // by, run cold like every timed experiment, several times for a median.
  std::vector<double> setup_s;
  ExperimentResult base;
  for (int i = 0; i < kSetups; ++i) {
    const auto t0 = Clock::now();
    ExperimentResult r = run_experiment(default_cell(cfg));
    setup_s.push_back(seconds_since(t0) * speed.factor());
    if (i == 0) {
      base = std::move(r);
      rep.attempt();
    } else {
      rep.check("setup reference " + std::to_string(i), fingerprint_of(r),
                fingerprint_of(base));
    }
  }

  std::vector<double> run_s;
  std::optional<Fingerprint> first;
  ExperimentResult last;
  double step_s = 0.0;  // wall time of the last experiment with its probe
  const auto start = Clock::now();
  while (static_cast<int>(run_s.size()) < kMinTimedRuns ||
         another_fits(start, seconds, step_s)) {
    const auto t0 = Clock::now();
    try {
      last = run_experiment(cfg);
    } catch (const std::exception& e) {
      rep.attempt();
      rep.fail(std::string("timed run threw: ") + e.what());
      break;
    }
    const double wall = seconds_since(t0);
    run_s.push_back(wall * speed.factor());
    step_s = seconds_since(t0);
    std::fprintf(stderr, "perfbench: cold run %zu: %.3f s wall, %.3f s scaled\n",
                 run_s.size(), wall, run_s.back());
    if (!first) {
      first = fingerprint_of(last);
      rep.attempt();
    } else {
      rep.check("timed run " + std::to_string(run_s.size()),
                fingerprint_of(last), *first);
    }
  }
  double total_s = 0.0;
  for (double s : run_s) total_s += s;

  rep.metric("run_s", median(run_s), "s");
  rep.metric("req_per_s", ratio(static_cast<double>(run_s.size()), total_s),
             "1/s");
  rep.metric("req_p50_ms", 1e3 * median(run_s), "ms");
  rep.metric("req_p95_ms", 1e3 * tail(run_s), "ms");
  rep.metric("setup_s", median(setup_s), "s");
  rep.metric("peak_rss_mb", peak_rss_mib(), "MiB");
  rep.metric("sim_energy_norm", normalized_energy(last, base), "ratio");
  rep.metric("sim_slowdown",
             ratio(static_cast<double>(last.exec_time),
                   static_cast<double>(base.exec_time)),
             "ratio");
}

/// In-process results for every serve-mix cell, from one workspace.
std::vector<ExperimentResult> mix_references(
    const std::vector<ExperimentConfig>& cells) {
  ExperimentWorkspace ws;
  std::vector<ExperimentResult> refs;
  refs.reserve(cells.size());
  for (const ExperimentConfig& cfg : cells) refs.push_back(ws.run(cfg));
  return refs;
}

/// serve-mix drives one tenant.  With two concurrent tenants every
/// request's time depended on which request ran beside it, which the seeded
/// orders changed from run to run.
void measure_mix(std::uint64_t seed, double seconds, Report& rep) {
  const std::vector<ExperimentConfig> cells = mix_cells(seed);
  const std::vector<std::size_t> seq = mix_sequence(seed);

  HostSpeed speed;

  // Set-up: start the daemon, connect the tenant, and compute the
  // in-process reference results the replies are checked against.
  std::vector<double> setup_s;
  std::unique_ptr<serve::ServeServer> server;
  std::optional<serve::ServeClient> client;
  std::vector<ExperimentResult> refs;
  for (int i = 0; i < kSetups; ++i) {
    client.reset();
    if (server != nullptr) {
      server->request_shutdown();
      server->wait();
    }
    const auto t0 = Clock::now();
    serve::ServeOptions opts;
    opts.address = "tcp:0";
    opts.max_tenants = 1;
    server = std::make_unique<serve::ServeServer>(opts);
    server->start();
    client.emplace(serve::ServeClient::connect(server->address()));
    std::vector<ExperimentResult> r = mix_references(cells);
    setup_s.push_back(seconds_since(t0) * speed.factor());
    for (std::size_t c = 0; c < r.size() && i > 0; ++c) {
      rep.check("setup reference cell " + std::to_string(c),
                fingerprint_of(r[c]), fingerprint_of(refs[c]));
    }
    if (i == 0) {
      refs = std::move(r);
      rep.attempt();
    }
  }

  // Closed loop over whole sweeps, so every run times the same request mix.
  // Each sweep's times are scaled by the host speed probed around it.
  std::vector<double> latency, sweeps, sweep_latency;
  serve::ServeClient::Reply reply;
  bool broken = false;
  double step_s = 0.0;  // wall time of the last sweep with its probe
  const auto start = Clock::now();
  do {
    sweep_latency.clear();
    const auto sweep_t0 = Clock::now();
    for (std::size_t idx : seq) {
      const auto t0 = Clock::now();
      try {
        client->run(cells[idx], false, reply);
      } catch (const std::exception& e) {
        // The connection state is unknown after a failed round trip.
        rep.attempt();
        rep.fail(std::string("request threw: ") + e.what());
        broken = true;
        break;
      }
      sweep_latency.push_back(seconds_since(t0));
      rep.check("reply for cell " + std::to_string(idx),
                fingerprint_of(reply.result), fingerprint_of(refs[idx]));
    }
    const double wall = seconds_since(sweep_t0);
    const double f = speed.factor();
    step_s = seconds_since(sweep_t0);
    for (double l : sweep_latency) latency.push_back(l * f);
    if (!broken) sweeps.push_back(wall * f);
    std::fprintf(stderr, "perfbench: sweep %zu: %.3f s wall, %.3f s scaled\n",
                 sweeps.size(), wall, wall * f);
  } while (!broken && another_fits(start, seconds, step_s));
  client.reset();
  server->request_shutdown();
  server->wait();
  double total_s = 0.0;
  for (double l : latency) total_s += l;
  std::fprintf(stderr, "perfbench: %zu requests, %zu sweeps in %.3f s\n",
               latency.size(), sweeps.size(), seconds_since(start));

  const auto [energy_norm, slowdown] = mix_norms(refs);
  rep.metric("run_s", median(sweeps), "s");
  rep.metric("req_per_s", ratio(static_cast<double>(latency.size()), total_s),
             "1/s");
  rep.metric("req_p50_ms", 1e3 * median(latency), "ms");
  rep.metric("req_p95_ms", 1e3 * tail(latency), "ms");
  rep.metric("setup_s", median(setup_s), "s");
  rep.metric("peak_rss_mb", peak_rss_mib(), "MiB");
  rep.metric("sim_energy_norm", energy_norm, "ratio");
  rep.metric("sim_slowdown", slowdown, "ratio");
}

// --- Traced run (--trace 1) -----------------------------------------------

/// The outcome of one traced pass over a workload's configs.
struct TracedPass {
  LayerCounts counts;
  double untraced_s = 0.0;
  double driver_prepare_s = 0.0;
  std::vector<double> driver_run_s;
  std::vector<double> serve_rtt_s;
  std::size_t first_span = 0;
  double scale = 1.0;  // HostSpeed factor for the pass's wall times
};

/// Checks `got` against the reference result of config `idx`; the first
/// result seen for a config becomes its reference.
void check_against(std::vector<std::optional<Fingerprint>>& want,
                   std::size_t idx, const Fingerprint& got, const char* route,
                   Report& rep) {
  if (!want[idx]) {
    want[idx] = got;
    rep.attempt();
  } else {
    rep.check(std::string(route) + ", config " + std::to_string(idx), got,
              *want[idx]);
  }
}

/// One pass: `sequence` (indices into `configs`) through one
/// ExperimentWorkspace and through a daemon tenant, then each of the first
/// `traced` configs untraced (run_experiment) and through the traced
/// pipeline.  The workspace and daemon routes go first so the process's
/// first-run costs (heap growth) land on neither side of the
/// traced/untraced comparison.  Every result is checked against `want`.
TracedPass traced_pass(const std::vector<ExperimentConfig>& configs,
                       std::size_t traced,
                       const std::vector<std::size_t>& sequence,
                       std::vector<std::optional<Fingerprint>>& want,
                       Tracer& tr, Report& rep) {
  TracedPass pass;
  ExperimentWorkspace ws;
  for (std::size_t idx : sequence) {
    const auto t0 = Clock::now();
    ws.prepare(configs[idx]);
    pass.driver_prepare_s += seconds_since(t0);
    const auto t1 = Clock::now();
    const Fingerprint got = fingerprint_of(ws.run(configs[idx]));
    pass.driver_run_s.push_back(seconds_since(t1));
    check_against(want, idx, got, "workspace run", rep);
  }
  pass.counts.workload_builds = static_cast<std::int64_t>(ws.workload_builds());
  pass.counts.compile_misses = static_cast<std::int64_t>(ws.compile_misses());

  serve::ServeOptions opts;
  opts.address = "tcp:0";
  opts.max_tenants = 1;
  serve::ServeServer server(opts);
  server.start();
  {
    serve::ServeClient client = serve::ServeClient::connect(server.address());
    serve::ServeClient::Reply reply;
    for (std::size_t idx : sequence) {
      const auto t0 = Clock::now();
      client.run(configs[idx], false, reply);
      pass.serve_rtt_s.push_back(seconds_since(t0));
      check_against(want, idx, fingerprint_of(reply.result), "daemon reply",
                    rep);
    }
  }
  server.request_shutdown();
  server.wait();

  pass.first_span = tr.size();
  for (std::size_t i = 0; i < traced; ++i) {
    const auto t0 = Clock::now();
    const ExperimentResult untraced = run_experiment(configs[i]);
    pass.untraced_s += seconds_since(t0);
    check_against(want, i, fingerprint_of(untraced), "untraced run", rep);

    std::int64_t reads = 0;
    const ExperimentResult traced_result =
        traced_pipeline(configs[i], tr, static_cast<int>(i), reads);
    check_against(want, i, fingerprint_of(traced_result), "traced pipeline",
                  rep);
    pass.counts.add(traced_result, reads);
  }
  return pass;
}

void measure_traced(const std::vector<ExperimentConfig>& configs,
                    std::size_t traced,
                    const std::vector<std::size_t>& sequence, double seconds,
                    const std::string& spans_path, Report& rep) {
  std::vector<std::optional<Fingerprint>> want(configs.size());
  Tracer tr;
  std::vector<TracedPass> passes;
  HostSpeed speed;
  const auto start = Clock::now();
  double pass_s = 0.0;
  do {
    const auto pass_t0 = Clock::now();
    try {
      passes.push_back(traced_pass(configs, traced, sequence, want, tr, rep));
      passes.back().scale = speed.factor();
      pass_s = seconds_since(pass_t0);
    } catch (const std::exception& e) {
      rep.attempt();
      rep.fail(std::string("traced pass threw: ") + e.what());
      break;
    }
    if (passes.size() > 1 && !(passes.back().counts == passes.front().counts)) {
      rep.fail("per-layer counts differ between traced passes");
    }
  } while (another_fits(start, seconds, pass_s));
  if (passes.empty()) return;
  std::fprintf(stderr, "perfbench: %zu traced passes in %.3f s\n",
               passes.size(), seconds_since(start));

  // Times: the median over passes of each pass's total, scaled by the host
  // speed probed around the pass like the end-to-end times.
  auto per_pass = [&](auto&& f) {
    std::vector<double> v;
    for (std::size_t p = 0; p < passes.size(); ++p) {
      v.push_back(f(p) * passes[p].scale);
    }
    return median(v);
  };
  auto span_total = [&](const char* name) {
    return per_pass([&](std::size_t p) {
      const std::size_t last =
          p + 1 < passes.size() ? passes[p + 1].first_span : tr.size();
      return tr.total(name, passes[p].first_span, last);
    });
  };
  const LayerCounts& c = passes.front().counts;
  const double schedule_s = span_total("core.schedule");
  const double sim_s = span_total("sim.run");
  const double traced_s = span_total("pipeline");
  const double untraced_s =
      per_pass([&](std::size_t p) { return passes[p].untraced_s; });
  const auto count = [](std::int64_t v) { return static_cast<double>(v); };

  rep.metric("workload.build_s", span_total("workload.build"), "s");
  rep.metric("compiler.slack_s", span_total("compiler.slack"), "s");
  rep.metric("compiler.reads", count(c.reads), "count");
  rep.metric("core.schedule_s", schedule_s, "s");
  rep.metric("core.table_s", span_total("core.table"), "s");
  rep.metric("core.us_per_access", 1e6 * ratio(schedule_s, count(c.reads)),
             "us");
  rep.metric("core.theta_fallbacks", count(c.theta_fallbacks), "count");
  rep.metric("core.forced", count(c.forced), "count");
  rep.metric("storage.setup_s", span_total("storage.setup"), "s");
  rep.metric("io.cluster_setup_s", span_total("io.cluster_setup"), "s");
  rep.metric("io.prefetches", count(c.prefetches), "count");
  rep.metric("io.buffer_hits", count(c.buffer_hits), "count");
  rep.metric("io.direct_reads", count(c.direct_reads), "count");
  rep.metric("io.full_rejections", count(c.full_rejections), "count");
  rep.metric("io.reserve_attempts", count(c.reservations + c.full_rejections),
             "count");
  rep.metric("io.reserve_success_ratio",
             ratio(count(c.reservations),
                   count(c.reservations + c.full_rejections)),
             "ratio");
  rep.metric("io.prefetch_hit_ratio",
             ratio(count(c.buffer_hits), count(c.prefetches)), "ratio");
  rep.metric("sim.run_s", sim_s, "s");
  rep.metric("sim.events", count(c.events), "count");
  rep.metric("sim.ns_per_event", 1e9 * ratio(sim_s, count(c.events)), "ns");
  rep.metric("storage.requests", count(c.storage_requests), "count");
  rep.metric("storage.disk_requests", count(c.disk_requests), "count");
  rep.metric("storage.cache_hit_rate",
             ratio(c.cache_hit_rate_sum, static_cast<double>(c.runs)),
             "ratio");
  rep.metric("power.spin_downs", count(c.spin_downs), "count");
  rep.metric("power.rpm_changes", count(c.rpm_changes), "count");
  rep.metric("driver.prepare_s",
             per_pass([&](std::size_t p) { return passes[p].driver_prepare_s; }),
             "s");
  rep.metric("driver.run_p50_ms", 1e3 * per_pass([&](std::size_t p) {
               return median(passes[p].driver_run_s);
             }),
             "ms");
  rep.metric("driver.workload_builds", count(c.workload_builds), "count");
  rep.metric("driver.compile_misses", count(c.compile_misses), "count");
  rep.metric("serve.rtt_p50_ms", 1e3 * per_pass([&](std::size_t p) {
               return median(passes[p].serve_rtt_s);
             }),
             "ms");
  rep.metric("trace.untraced_s", untraced_s, "s");
  rep.metric("trace.traced_s", traced_s, "s");
  rep.metric("trace.overhead_s", traced_s - untraced_s, "s");

  tr.print_self_times();
  if (!spans_path.empty() && !tr.write(spans_path)) {
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                 spans_path.c_str());
  }
}

// --- Command line -----------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload paper-hf|wide-sar|wide-sar-off|serve-mix"
               " --seed N --seconds S --trace 0|1 [--spans FILE]\n",
               argv0);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(argv[0]);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      o.workload = value;
    } else if (key == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
      if (!(o.seconds > 0.0)) usage(argv[0]);
    } else if (key == "--trace") {
      if (value != "0" && value != "1") usage(argv[0]);
      o.trace = value == "1";
    } else if (key == "--spans") {
      o.spans = value;
    } else {
      usage(argv[0]);
    }
    if (end != nullptr && *end != '\0') usage(argv[0]);
  }
  return o;
}

/// Keeps the process, and every thread it starts later, on the CPU it runs
/// on now.  The serve routes hand each request between a client and a
/// daemon thread; on one CPU a hand-off is a context switch, not the wake-up
/// of an idle virtual CPU, whose latency on a shared host varies by
/// milliseconds.  Best effort: on failure the affinity stays as it was.
void pin_to_current_cpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  pin_to_current_cpu();
  const std::optional<ExperimentConfig> cfg = run_workload(o.workload, o.seed);
  if (!cfg && o.workload != "serve-mix") usage(argv[0]);

  Report rep;
  try {
    if (!o.trace) {
      if (cfg) {
        measure_run(*cfg, o.seconds, rep);
      } else {
        measure_mix(o.seed, o.seconds, rep);
      }
    } else if (cfg) {
      // Driver and daemon see a user's sequence: the Default reference cell,
      // then the workload cell cold (compile miss) and warm (compile hit).
      measure_traced({*cfg, default_cell(*cfg)}, 1, {1, 0, 0}, o.seconds,
                     o.spans, rep);
    } else {
      const std::vector<ExperimentConfig> cells = mix_cells(o.seed);
      measure_traced(cells, cells.size(), mix_sequence(o.seed), o.seconds,
                     o.spans, rep);
    }
  } catch (const std::exception& e) {
    rep.attempt();
    rep.fail(o.workload + ": " + e.what());
    rep.print();
    return 1;
  }
  rep.print();
  return 0;
}
