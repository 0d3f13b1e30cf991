#include "io/cluster.h"

#include <gtest/gtest.h>

#include <initializer_list>
#include <vector>

#include "compiler/compile.h"
#include "compiler/trace_builder.h"
#include "workload/app.h"

namespace dasched {
namespace {

using AE = AffineExpr;

StorageConfig small_storage() {
  StorageConfig cfg;
  cfg.num_io_nodes = 4;
  cfg.node.cache_capacity = mib(1).count();
  cfg.node.prefetch_depth = 0;
  return cfg;
}

/// Builds, compiles and runs a program; returns (exec_time, stats).
struct RunResult {
  SimTime exec = 0;
  RuntimeStats stats;
};

RunResult run_program(const LoopProgram& prog, int nproc, bool scheme,
                      RuntimeConfig rt = {}) {
  Simulator sim;
  StorageSystem storage(sim, small_storage());
  // Files must exist before compiling; the caller made them on a separate
  // striping map, so rebuild here via a callback-free approach: programs in
  // this test file only use file id 0, created below.
  (void)storage.create_file("data", mib(64).count());
  CompileOptions copts;
  copts.enable_scheduling = scheme;
  const Compiled compiled =
      compile_trace(lower(prog, nproc), storage.striping(), copts);
  rt.use_runtime_scheduler = scheme;
  Cluster cluster(sim, storage, compiled, rt);
  cluster.run_to_completion();
  EXPECT_TRUE(cluster.all_finished());
  return RunResult{cluster.exec_time(), cluster.stats()};
}

LoopProgram read_loop(int iters) {
  // One read slot followed by compute-only pad slots per iteration, so the
  // scheduler has free slots to hoist into.
  LoopProgram prog;
  prog.body.push_back(make_loop(
      "i", 0, AE(iters - 1),
      {
          make_loop("_io", 0, 0,
                    {make_read(0, AE::var("p") * mib(8).count() + AE::var("i") * kib(64).count(),
                               kib(64).count()),
                     make_compute(AE(2'000))},
                    /*slot_loop=*/true),
          make_loop("_pad", 0, 2, {make_compute(AE(700))},
                    /*slot_loop=*/true),
      },
      /*slot_loop=*/false));
  return prog;
}

TEST(Cluster, DefaultRunCompletesAllReads) {
  const RunResult r = run_program(read_loop(20), 2, /*scheme=*/false);
  EXPECT_EQ(r.stats.direct_reads, 40);
  EXPECT_EQ(r.stats.buffer_hits, 0);
  EXPECT_EQ(r.stats.prefetches, 0);
  EXPECT_GT(r.exec, 0);
}

TEST(Cluster, SchemeRunPrefetchesAndHits) {
  const RunResult r = run_program(read_loop(20), 2, /*scheme=*/true);
  EXPECT_GT(r.stats.prefetches, 0);
  EXPECT_GT(r.stats.buffer_hits + r.stats.in_flight_hits, 0);
  EXPECT_EQ(r.stats.buffer_hits + r.stats.in_flight_hits + r.stats.direct_reads,
            40);
}

TEST(Cluster, EveryPrefetchIsConsumedOrWasted) {
  const RunResult r = run_program(read_loop(30), 2, /*scheme=*/true);
  EXPECT_EQ(r.stats.prefetches,
            r.stats.buffer.consumed + r.stats.buffer.wasted);
}

TEST(Cluster, TinyBufferDegradesToDirectReads) {
  RuntimeConfig rt;
  rt.buffer_capacity = kib(64).count();  // one entry
  const RunResult r = run_program(read_loop(20), 2, /*scheme=*/true, rt);
  EXPECT_EQ(r.stats.buffer_hits + r.stats.in_flight_hits + r.stats.direct_reads,
            40);
  EXPECT_GT(r.stats.direct_reads, 0);
}

TEST(Cluster, ProducerConsumerAcrossProcessesIsCorrect) {
  // Process 0 writes block i at iteration i; process 1 reads block i at
  // iteration i+5.  The local-time protocol must hold prefetches until the
  // writer passes the write.
  TraceBuilder tb(2);
  for (int i = 0; i < 20; ++i) {
    tb.write(0, 0, (i) * kib(64).count(), kib(64).count());
    tb.compute(0, 3'000);
    if (i >= 5) {
      tb.read(1, 0, (i - 5) * kib(64).count(), kib(64).count());
    }
    tb.compute(1, 3'000);
    tb.end_iteration();
  }

  Simulator sim;
  StorageSystem storage(sim, small_storage());
  (void)storage.create_file("data", mib(64).count());
  const Compiled compiled = compile_trace(tb.build(), storage.striping());
  // Slacks must reflect the cross-process dependence.
  for (const AccessRecord& rec : compiled.program.reads) {
    EXPECT_EQ(rec.writer_process, 0);
    EXPECT_EQ(rec.begin, rec.writer_slot + 1);
  }
  Cluster cluster(sim, storage, compiled, RuntimeConfig{});
  cluster.run_to_completion();
  EXPECT_TRUE(cluster.all_finished());
  const RuntimeStats stats = cluster.stats();
  EXPECT_EQ(stats.buffer_hits + stats.in_flight_hits + stats.direct_reads, 15);
}

TEST(Cluster, LocalTimeAdvancesMonotonically) {
  Simulator sim;
  StorageSystem storage(sim, small_storage());
  (void)storage.create_file("data", mib(64).count());
  const Compiled compiled =
      compile_trace(lower(read_loop(10), 2), storage.striping());
  Cluster cluster(sim, storage, compiled, RuntimeConfig{});
  cluster.start();
  std::vector<Slot> last(2, 0);
  while (!cluster.all_finished() && sim.step()) {
    for (int p = 0; p < 2; ++p) {
      const Slot now = cluster.client(p).local_time();
      EXPECT_GE(now, last[static_cast<std::size_t>(p)]) << "process " << p;
      last[static_cast<std::size_t>(p)] = now;
    }
  }
  EXPECT_TRUE(cluster.all_finished());
  EXPECT_EQ(last[0], compiled.program.num_slots);
}

/// Moves every table entry to slot 0, so each read's prefetch is due from
/// the start.
Compiled hoisted(CompiledProgram program, StorageSystem& storage) {
  Compiled compiled = compile_trace(std::move(program), storage.striping());
  for (ScheduledAccess& s : compiled.scheduled) s.slot = 0;
  compiled.table = SchedulingTable(compiled.scheduled);
  return compiled;
}

/// Each process p computes through slots 0..last-1 and reads its own
/// 64 KiB block in slot `last`.
CompiledProgram one_late_read(int nproc, int last) {
  TraceBuilder tb(nproc);
  for (int t = 0; t <= last; ++t) {
    for (int p = 0; p < nproc; ++p) {
      if (t < last) tb.compute(p, 10);
      if (t == last) tb.read(p, 0, p * kib(64).count(), kib(64).count());
    }
    tb.end_iteration();
  }
  return tb.build();
}

int read_id(const Compiled& compiled, int process, Slot slot) {
  return compiled.program.process(process).ops(slot)[0].access_id;
}

TEST(Cluster, PausedSchedulersResumeInPauseOrder) {
  Simulator sim;
  StorageSystem storage(sim, small_storage());
  (void)storage.create_file("data", mib(64).count());
  const Compiled compiled = hoisted(one_late_read(3, 5), storage);
  RuntimeConfig rt;
  rt.buffer_capacity = kib(64).count();  // one entry
  Cluster cluster(sim, storage, compiled, rt);
  GlobalBuffer& buffer = cluster.buffer();
  const int id0 = read_id(compiled, 0, 5);
  const int id1 = read_id(compiled, 1, 5);
  const int id2 = read_id(compiled, 2, 5);

  // Pause order 2, 1, 0; pausing 2 again keeps its place.
  cluster.pause_for_space(2);
  cluster.pause_for_space(1);
  cluster.pause_for_space(2);
  cluster.pause_for_space(0);

  // The release resumes 2 first: it takes the one free entry, and 1 and 0
  // find the buffer full and pause again, in that order, once each.
  cluster.space_freed();
  EXPECT_EQ(buffer.state(id2), BufferEntryState::kInFlight);
  EXPECT_EQ(buffer.state(id1), BufferEntryState::kAbsent);
  EXPECT_EQ(buffer.state(id0), BufferEntryState::kAbsent);
  EXPECT_EQ(buffer.stats().full_rejections, 2);

  // Thread 2's prefetch lands and is consumed: the next release resumes 1
  // before 0, although 0 has the lower id.  Thread 1's fetch then fills
  // the buffer again, so 0 re-pauses without being resumed.
  while (buffer.state(id2) != BufferEntryState::kReady && sim.step()) {
  }
  buffer.consume(id2);
  cluster.space_freed();
  EXPECT_EQ(buffer.state(id1), BufferEntryState::kInFlight);
  EXPECT_EQ(buffer.state(id0), BufferEntryState::kAbsent);
  EXPECT_EQ(buffer.stats().full_rejections, 2);
}

/// One read per (process, slot, size), each process computing 10 us in
/// every slot; process p's reads sit in its own 1 MiB region.
struct LateRead {
  int process;
  Slot slot;
  Bytes size;
};
CompiledProgram late_reads(int nproc, Slot slots,
                           std::initializer_list<LateRead> reads) {
  TraceBuilder tb(nproc);
  std::vector<Bytes> next(static_cast<std::size_t>(nproc), 0);
  for (Slot t = 0; t < slots; ++t) {
    for (int p = 0; p < nproc; ++p) tb.compute(p, 10);
    for (const LateRead& r : reads) {
      if (r.slot != t) continue;
      Bytes& off = next[static_cast<std::size_t>(r.process)];
      tb.read(r.process, 0, r.process * mib(1).count() + off, r.size);
      off += r.size;
    }
    tb.end_iteration();
  }
  return tb.build();
}

/// Steps the simulation until every listed prefetch has landed.
void land(Simulator& sim, const GlobalBuffer& buffer,
          std::initializer_list<int> ids) {
  const auto pending = [&] {
    for (const int id : ids) {
      if (buffer.state(id) != BufferEntryState::kReady) return true;
    }
    return false;
  };
  while (pending() && sim.step()) {
  }
  ASSERT_FALSE(pending());
}

TEST(Cluster, ReleaseTooSmallForPausedEntriesKicksNoOne) {
  Simulator sim;
  StorageSystem storage(sim, small_storage());
  (void)storage.create_file("data", mib(64).count());
  const Compiled compiled = hoisted(
      late_reads(4, 6,
                 {{0, 5, kib(64)}, {1, 5, kib(64)}, {2, 5, kib(64)},
                  {3, 5, kib(32)}}),
      storage);
  RuntimeConfig rt;
  rt.buffer_capacity = kib(96);
  Cluster cluster(sim, storage, compiled, rt);
  GlobalBuffer& buffer = cluster.buffer();
  const int id0 = read_id(compiled, 0, 5);
  const int id1 = read_id(compiled, 1, 5);
  const int id2 = read_id(compiled, 2, 5);
  const int id3 = read_id(compiled, 3, 5);

  // Threads 0 and 3 fill the buffer; 2 and 1 find it full and pause, in
  // that order.
  cluster.resume(0);
  cluster.resume(3);
  cluster.resume(2);
  cluster.resume(1);
  ASSERT_EQ(buffer.used(), kib(96));
  EXPECT_EQ(buffer.stats().full_rejections, 2);

  // Freeing 32 KiB leaves too little for either 64 KiB entry: neither
  // thread is resumed, so no reservation fails.
  land(sim, buffer, {id3});
  buffer.consume(id3);
  cluster.space_freed();
  EXPECT_EQ(buffer.state(id1), BufferEntryState::kAbsent);
  EXPECT_EQ(buffer.state(id2), BufferEntryState::kAbsent);
  EXPECT_EQ(buffer.stats().full_rejections, 2);

  // Room for one: 2 still goes first, although 1 has the lower id, and 1
  // stays paused without being resumed.
  land(sim, buffer, {id0});
  buffer.consume(id0);
  cluster.space_freed();
  EXPECT_EQ(buffer.state(id2), BufferEntryState::kInFlight);
  EXPECT_EQ(buffer.state(id1), BufferEntryState::kAbsent);
  EXPECT_EQ(buffer.stats().full_rejections, 2);

  land(sim, buffer, {id2});
  buffer.consume(id2);
  cluster.space_freed();
  EXPECT_EQ(buffer.state(id1), BufferEntryState::kInFlight);
  EXPECT_EQ(buffer.stats().full_rejections, 2);
}

TEST(Cluster, PausedThreadWhoseEntryWasReadDirectlyMovesOn) {
  // Thread 1 pauses on B (64 KiB) while thread 0 holds the whole buffer.
  // Process 1 reads B itself at 20 us, then computes in B's slot until
  // about 6 s.  At 5 s process 0's first hit frees 32 KiB: too little for
  // B, but enough for C, which thread 1 must prefetch before process 1
  // reads it at about 8 s.
  constexpr SimTime kSec = 1'000'000;
  TraceBuilder tb(2);
  for (int t = 0; t < 8; ++t) {
    if (t < 5) tb.compute(0, kSec);
    if (t == 5) {
      tb.read(0, 0, 0, kib(32).count());
      tb.compute(0, 10 * kSec);
    }
    if (t == 6) tb.read(0, 0, kib(32).count(), kib(32).count());
    if (t == 7) tb.compute(0, 10);
    if (t == 2) {
      tb.read(1, 0, mib(1).count(), kib(64).count());
      tb.compute(1, 6 * kSec);
    } else {
      tb.compute(1, t >= 3 && t <= 6 ? kSec / 2 : SimTime{10});
    }
    if (t == 7) tb.read(1, 0, mib(1).count() + kib(64).count(), kib(32).count());
    tb.end_iteration();
  }
  Simulator sim;
  StorageSystem storage(sim, small_storage());
  (void)storage.create_file("data", mib(64).count());
  const Compiled compiled = hoisted(tb.build(), storage);
  RuntimeConfig rt;
  rt.buffer_capacity = kib(64);
  Cluster cluster(sim, storage, compiled, rt);
  cluster.run_to_completion();
  ASSERT_TRUE(cluster.all_finished());
  const RuntimeStats st = cluster.stats();
  EXPECT_EQ(st.buffer.full_rejections, 1);  // B, once, at start
  EXPECT_EQ(st.direct_reads, 1);            // B
  EXPECT_EQ(st.prefetches, 3);              // both of process 0's, and C
  EXPECT_EQ(st.buffer_hits, 3);
}

TEST(Cluster, PausedThreadAtFetchDepthLeavesTheFifo) {
  Simulator sim;
  StorageSystem storage(sim, small_storage());
  (void)storage.create_file("data", mib(64).count());
  const Compiled compiled = hoisted(
      late_reads(3, 7,
                 {{0, 5, kib(32)},
                  {1, 2, kib(32)},
                  {1, 3, kib(96)},
                  {1, 4, kib(32)},
                  {1, 5, kib(32)},
                  {1, 6, kib(96)},
                  {2, 5, kib(96)}}),
      storage);
  RuntimeConfig rt;
  rt.buffer_capacity = kib(128);
  rt.scheduler_fetch_depth = 2;
  Cluster cluster(sim, storage, compiled, rt);
  GlobalBuffer& buffer = cluster.buffer();
  const int a = read_id(compiled, 0, 5);
  const int p = read_id(compiled, 1, 2);
  const int e = read_id(compiled, 1, 3);
  const int f = read_id(compiled, 1, 4);
  const int g = read_id(compiled, 1, 5);
  const int i = read_id(compiled, 1, 6);
  const int h = read_id(compiled, 2, 5);

  // Thread 1 fetches P and pauses on E; thread 2 pauses on H behind it.
  cluster.resume(0);
  cluster.resume(1);
  cluster.resume(2);
  ASSERT_EQ(buffer.state(p), BufferEntryState::kInFlight);
  ASSERT_EQ(buffer.stats().full_rejections, 2);

  // Process 1 reads E itself.  P's landing then lets thread 1 skip E and
  // fetch F and G, which brings it to fetch depth while it is still paused.
  buffer.mark_done(e);
  land(sim, buffer, {p});
  ASSERT_EQ(buffer.state(f), BufferEntryState::kInFlight);
  ASSERT_EQ(buffer.state(g), BufferEntryState::kInFlight);

  // The next release resumes thread 1, which stops at once and leaves the
  // FIFO; thread 2 still cannot fit H and stays.
  buffer.consume(p);
  cluster.space_freed();
  EXPECT_EQ(buffer.stats().full_rejections, 2);

  // F's landing lets thread 1 try I: it pauses again, now behind thread 2,
  // so the release that makes room for one 96 KiB entry goes to H.
  land(sim, buffer, {a, f, g});
  EXPECT_GT(buffer.stats().full_rejections, 2);
  buffer.consume(a);
  buffer.consume(f);
  buffer.consume(g);
  cluster.space_freed();
  EXPECT_EQ(buffer.state(h), BufferEntryState::kInFlight);
  EXPECT_EQ(buffer.state(i), BufferEntryState::kAbsent);
}

TEST(Cluster, FullRejectionsAreBoundedByWakeSources) {
  // A thread is kicked once at start, once per space release (consume or
  // wasted landing), once per landed prefetch and at most once per finished
  // slot of its process, and each kick is rejected at most once — provided
  // a failed kick never adds a second space wait for the same thread.
  constexpr int kReads = 40;
  TraceBuilder tb(1);
  for (int i = 0; i < kReads; ++i) {
    tb.read(0, 0, i * kib(64).count(), kib(64).count());
    tb.compute(0, 20'000);  // long enough for the next prefetch to land
    tb.end_iteration();
  }
  Simulator sim;
  StorageSystem storage(sim, small_storage());
  (void)storage.create_file("data", mib(64).count());
  const Compiled compiled = hoisted(tb.build(), storage);
  RuntimeConfig rt;
  rt.buffer_capacity = kib(64).count();  // one entry
  Cluster cluster(sim, storage, compiled, rt);
  cluster.run_to_completion();
  ASSERT_TRUE(cluster.all_finished());
  const RuntimeStats st = cluster.stats();
  EXPECT_GT(st.buffer.full_rejections, 0);
  EXPECT_LE(st.buffer.full_rejections,
            st.buffer.consumed + st.buffer.wasted + st.prefetches +
                compiled.program.num_slots + 1);
}

TEST(Cluster, ReadParkedOnInFlightPrefetchResumesOnLanding) {
  Simulator sim;
  StorageSystem storage(sim, small_storage());
  (void)storage.create_file("data", mib(64).count());
  // The prefetch is issued at time 0; the read comes 20 us later, long
  // before a disk read can finish, and it is the process's last op.
  const Compiled compiled = hoisted(one_late_read(1, 2), storage);
  const RuntimeConfig rt;
  Cluster cluster(sim, storage, compiled, rt);
  const int id = read_id(compiled, 0, 2);
  cluster.start();
  ASSERT_EQ(cluster.buffer().state(id), BufferEntryState::kInFlight);
  SimTime landed = -1;
  while (!cluster.all_finished() && sim.step()) {
    if (landed < 0 &&
        cluster.buffer().state(id) != BufferEntryState::kInFlight) {
      landed = sim.now();
    }
  }
  ASSERT_TRUE(cluster.all_finished());
  const RuntimeStats st = cluster.stats();
  EXPECT_EQ(st.in_flight_hits, 1);
  EXPECT_EQ(st.buffer_hits + st.direct_reads, 0);
  EXPECT_EQ(st.buffer.consumed_in_flight, st.in_flight_hits);
  EXPECT_EQ(cluster.buffer().state(id), BufferEntryState::kDone);
  // The read resumed in the landing event itself: it finished one hit
  // latency later.
  EXPECT_GT(landed, 20);
  EXPECT_EQ(cluster.client(0).finish_time(), landed + rt.buffer_hit_latency);
}

TEST(Cluster, WideSlotReadsCarryTheirOwnAccessIds) {
  // 8,200 reads share slot 0: op 8192 of slot 0 and op 0 of slot 2 must
  // keep distinct ids even though slot * 4096 ^ op would merge them.
  constexpr int kWide = 8'200;
  TraceBuilder tb(1);
  for (int i = 0; i < kWide; ++i) tb.read(0, 0, i * kib(4).count(), kib(4).count());
  tb.end_iteration();
  tb.compute(0, 10);
  tb.end_iteration();
  tb.read(0, 0, kWide * kib(4).count(), kib(4).count());
  tb.end_iteration();

  Simulator sim;
  StorageSystem storage(sim, small_storage());
  (void)storage.create_file("data", mib(64).count());
  const Compiled compiled = compile_trace(tb.build(), storage.striping());
  const CompiledProgram& prog = compiled.program;
  ASSERT_EQ(prog.reads.size(), static_cast<std::size_t>(kWide + 1));
  const ProcessPlan& plan = prog.process(0);
  for (Slot t = 0; t < prog.num_slots; ++t) {
    const auto ops = plan.ops(t);
    for (std::size_t oi = 0; oi < ops.size(); ++oi) {
      const int id = ops[oi].access_id;
      ASSERT_GE(id, 0);
      const AccessRecord& rec = prog.reads[static_cast<std::size_t>(id)];
      EXPECT_EQ(rec.process, 0);
      EXPECT_EQ(rec.original, t);
      EXPECT_EQ(rec.op_index, static_cast<int>(plan.first_op(t) + oi));
    }
  }

  Cluster cluster(sim, storage, compiled, RuntimeConfig{});
  for (const AccessRecord& rec : prog.reads) {
    EXPECT_EQ(cluster.op_for(rec).access_id, rec.id);
  }
  cluster.run_to_completion();
  ASSERT_TRUE(cluster.all_finished());
  const RuntimeStats st = cluster.stats();
  EXPECT_EQ(st.buffer_hits + st.in_flight_hits + st.direct_reads, kWide + 1);
}

TEST(Cluster, EveryAppReadFindsItsOpThroughItsRecord) {
  // Both front ends: madbench2 is recorded through TraceBuilder, the other
  // five are lowered by the interpreter.
  WorkloadScale scale;
  scale.num_processes = 4;
  scale.factor = 0.05;
  for (const App& app : all_apps()) {
    Simulator sim;
    StorageSystem storage(sim, small_storage());
    const Compiled compiled =
        compile_trace(app.build(storage.striping(), scale), storage.striping());
    const CompiledProgram& prog = compiled.program;
    ASSERT_EQ(prog.reads.size(), static_cast<std::size_t>(prog.num_reads))
        << app.name;
    ASSERT_GT(prog.num_reads, 0) << app.name;
    Cluster cluster(sim, storage, compiled, RuntimeConfig{});
    for (const AccessRecord& rec : prog.reads) {
      const IoOp& op = cluster.op_for(rec);
      ASSERT_FALSE(op.is_write) << app.name << " read " << rec.id;
      ASSERT_EQ(op.access_id, rec.id) << app.name;
    }
  }
}

TEST(Cluster, SchemeDoesNotSlowExecutionMuch) {
  const RunResult base = run_program(read_loop(50), 4, /*scheme=*/false);
  const RunResult with = run_program(read_loop(50), 4, /*scheme=*/true);
  // Buffer hits should make the scheme run at least as fast (generous 10%
  // tolerance for queueing noise).
  EXPECT_LT(static_cast<double>(with.exec),
            static_cast<double>(base.exec) * 1.10);
}

}  // namespace
}  // namespace dasched
