// Zero-allocation proof for workspace reuse.
//
// Global operator new/delete are replaced with counting versions gated by a
// flag (same interposer as tests/storage/alloc_count_test.cc).  The first
// run through an ExperimentWorkspace builds the whole stack and grows every
// pool to its high-water mark; the second run re-touches every warm path
// (compile-cache hit included).  The third, counted run must then perform
// ZERO heap allocations end to end — engine reset, storage reset, workload
// key check, compile lookup, cluster reset, the full simulation, and the
// finalize_into result fill.  A new allocation anywhere on the reuse path
// fails here, not as a silent grid-throughput regression.
//
// Scope: plain runs (no audit, no telemetry — those install per-run
// observer objects by design).  Two tests bound a compile miss on a built
// lane instead of forbidding allocation: a scheme-on miss shares the plan
// (allocation count), and a scheme-off miss builds no slack records
// (allocated bytes).  One more bounds lowering itself: a plan's layout
// allocates per process, not per slot.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "core/access.h"
#include "driver/workspace.h"
#include "storage/striping.h"
#include "workload/app.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_allocated_bytes{0};

void note_allocation(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    g_allocated_bytes.fetch_add(n, std::memory_order_relaxed);
  }
}

void* counted_alloc(std::size_t n) {
  note_allocation(n);
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* counted_alloc_aligned(std::size_t n, std::size_t align) {
  note_allocation(n);
  if (align < sizeof(void*)) align = sizeof(void*);
  void* p = nullptr;
  if (posix_memalign(&p, align, n == 0 ? align : n) != 0) throw std::bad_alloc();
  return p;
}

}  // namespace

// Replaceable global allocation functions — every variant the runtime may
// pick, so no allocation slips past the counter.
void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc_aligned(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc_aligned(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  note_allocation(n);
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  note_allocation(n);
  return std::malloc(n == 0 ? 1 : n);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace dasched {
namespace {

ExperimentConfig small_cell() {
  ExperimentConfig cfg;
  cfg.app = "sar";
  cfg.scale.num_processes = 4;
  cfg.scale.factor = 0.1;
  cfg.policy = PolicyKind::kHistory;
  cfg.use_scheme = true;
  // A plain run: DASCHED_AUDIT=ON builds audit by default, and the count
  // must not include the auditor's own allocations.
  cfg.audit = false;
  return cfg;
}

void expect_zero_alloc_reuse(const ExperimentConfig& cfg) {
  ExperimentWorkspace ws;
  // Warm-up: the first run builds and grows everything, the second re-runs
  // the exact steady-state path of the counted run (compile-cache hit,
  // recycled pools at their high-water marks).
  const SimTime t1 = ws.run(cfg).exec_time;
  const SimTime t2 = ws.run(cfg).exec_time;
  ASSERT_EQ(t1.count(), t2.count());

  g_allocations.store(0);
  g_counting.store(true);
  const ExperimentResult& r = ws.run(cfg);
  g_counting.store(false);

  EXPECT_EQ(r.exec_time.count(), t1.count());
  EXPECT_EQ(g_allocations.load(), 0u)
      << "workspace reuse hit the heap on run " << ws.runs_completed();
  // Sanity: the counted run did real work and reused the warm stack.
  EXPECT_GT(r.events, 0);
  EXPECT_EQ(ws.engine_rebuilds(), 1u);
  EXPECT_EQ(ws.workload_builds(), 1u);
  EXPECT_EQ(ws.compile_misses(), 1u);
}

TEST(WorkspaceAlloc, ClassicEngineReuseAllocatesNothing) {
  expect_zero_alloc_reuse(small_cell());
}

TEST(WorkspaceAlloc, ScaleGrowthReallocatesOnceThenNothing) {
  // Capacity high-water-mark policy: scaling the workload up is a workload
  // change, so the first bigger run rebuilds the trace and grows every pool
  // to the new high-water mark — and after that single growth run, repeat
  // runs at the bigger size are as allocation-free as the small ones were.
  ExperimentConfig small = small_cell();
  ExperimentConfig big = small;
  big.scale.num_processes = 8;

  ExperimentWorkspace ws;
  (void)ws.run(small);
  (void)ws.run(small);
  (void)ws.run(big);  // grows once: workload rebuild + pool growth
  (void)ws.run(big);  // re-touches the steady-state path at the new size

  g_allocations.store(0);
  g_counting.store(true);
  const ExperimentResult& r = ws.run(big);
  g_counting.store(false);
  EXPECT_EQ(g_allocations.load(), 0u)
      << "warm runs at the grown size still hit the heap";
  EXPECT_GT(r.events, 0);
  // The growth was absorbed in place: same engine, one workload rebuild for
  // the scale change, one compile per workload epoch.
  EXPECT_EQ(ws.engine_rebuilds(), 1u);
  EXPECT_EQ(ws.workload_builds(), 2u);
}

TEST(WorkspaceAlloc, EveryAppPolicyAndSchemeReusesWithoutAllocating) {
  // The whole catalog through one workspace at the daemon's request shape
  // (the paper's 8 I/O nodes, 8 processes, scale 0.01): every app and power
  // policy path, with the scheme off and on.  Each cell is warmed twice and
  // its third run must not allocate, so an event callback that outgrows
  // EventFn's inline buffer on any path fails here.
  constexpr PolicyKind kPolicies[] = {
      PolicyKind::kNone, PolicyKind::kSimple, PolicyKind::kPrediction,
      PolicyKind::kHistory, PolicyKind::kStaggered};
  ExperimentWorkspace ws;
  for (const App& app : all_apps()) {
    for (const PolicyKind policy : kPolicies) {
      for (const bool scheme : {false, true}) {
        ExperimentConfig cfg;
        cfg.app = app.name;
        cfg.storage.num_io_nodes = 8;
        cfg.scale.num_processes = 8;
        cfg.scale.factor = 0.01;
        cfg.policy = policy;
        cfg.use_scheme = scheme;
        cfg.audit = false;
        (void)ws.run(cfg);
        (void)ws.run(cfg);

        g_allocations.store(0);
        g_counting.store(true);
        const ExperimentResult& r = ws.run(cfg);
        g_counting.store(false);
        EXPECT_EQ(g_allocations.load(), 0u)
            << app.name << " / " << to_string(policy) << " / scheme "
            << (scheme ? "on" : "off");
        EXPECT_GT(r.events, 0) << app.name;
      }
    }
  }
}

TEST(WorkspaceAlloc, SchemeOnCompileMissSharesThePlan) {
  // The scheme-on run after a scheme-off run of the same cell is a compile
  // miss on a built lane.  Its compile shares the lane's frozen slot plans,
  // so the run allocates less than once per non-empty slot; copying the
  // plans alone would allocate at least once per non-empty slot.
  ExperimentConfig off = small_cell();
  off.use_scheme = false;
  const ExperimentConfig on = small_cell();

  StripingMap striping(on.storage.num_io_nodes, on.storage.stripe_size);
  const CompiledProgram program = app_by_name(on.app).build(striping, on.scale);
  std::uint64_t non_empty_slots = 0;
  for (const ProcessPlan& proc : *program.plan) {
    for (Slot s = 0; s < proc.num_slots(); ++s) {
      if (!proc.ops(s).empty()) ++non_empty_slots;
    }
  }

  ExperimentWorkspace ws;
  (void)ws.run(off);

  g_allocations.store(0);
  g_counting.store(true);
  const ExperimentResult& r = ws.run(on);
  g_counting.store(false);

  EXPECT_LT(g_allocations.load(), non_empty_slots)
      << g_allocations.load() << " allocations for " << non_empty_slots
      << " non-empty slots: the scheme-on compile copied the slot plans";
  EXPECT_GT(r.events, 0);
  EXPECT_EQ(ws.workload_builds(), 1u);
  EXPECT_EQ(ws.compile_misses(), 2u);
}

TEST(PlanAlloc, LoweringAllocatesPerProcessNotPerSlot) {
  // The interpreter records each process into one reused buffer and hands
  // `freeze_program` exact-size op, offset and compute arrays, which it
  // coarsens, pads and numbers in place.  So lowering hf at ten times the
  // slots allocates about as often: one op vector per slot would allocate
  // at least once more per non-empty slot.
  struct Build {
    Slot slots = 0;
    std::uint64_t allocations = 0;
  };
  const auto build = [](double factor) {
    WorkloadScale scale;
    scale.num_processes = 8;
    scale.factor = factor;
    StripingMap striping(8, kib(64));
    g_allocations.store(0);
    g_counting.store(true);
    const CompiledProgram program = app_by_name("hf").build(striping, scale);
    g_counting.store(false);
    return Build{program.num_slots, g_allocations.load()};
  };
  const Build small = build(0.05);
  const Build large = build(0.5);
  ASSERT_GE(large.slots, 8 * small.slots);
  // The reused buffer's three arrays double a few more times (about
  // log2(10) each); nothing else depends on the slot count.
  EXPECT_LE(large.allocations, small.allocations + 16)
      << small.allocations << " allocations for " << small.slots << " slots, "
      << large.allocations << " for " << large.slots;
}

TEST(WorkspaceAlloc, SchemeOffCompileMissAnalyzesNoSlacks) {
  // The scheme-off run after a scheme-on run of the same cell is a compile
  // miss on a built lane.  With the scheme off nothing reads slack records,
  // so the compile builds none: the run allocates less than one record per
  // read, where analyzing the slacks would reserve a record for every read.
  const ExperimentConfig on = small_cell();
  ExperimentConfig off = on;
  off.use_scheme = false;

  StripingMap striping(on.storage.num_io_nodes, on.storage.stripe_size);
  const CompiledProgram program = app_by_name(on.app).build(striping, on.scale);
  const std::uint64_t record_bytes =
      static_cast<std::uint64_t>(program.num_reads) * sizeof(AccessRecord);
  ASSERT_GT(program.num_reads, 0);

  ExperimentWorkspace ws;
  (void)ws.run(on);

  g_allocated_bytes.store(0);
  g_counting.store(true);
  const ExperimentResult& r = ws.run(off);
  g_counting.store(false);

  EXPECT_LT(g_allocated_bytes.load(), record_bytes)
      << g_allocated_bytes.load() << " bytes allocated for "
      << program.num_reads << " reads: the scheme-off compile built records";
  EXPECT_GT(r.events, 0);
  EXPECT_EQ(r.sched.scheduled, program.num_reads);
  EXPECT_EQ(ws.workload_builds(), 1u);
  EXPECT_EQ(ws.compile_misses(), 2u);
}

}  // namespace
}  // namespace dasched
