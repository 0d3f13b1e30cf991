#include "io/cluster.h"

#include <gtest/gtest.h>

#include "compiler/compile.h"
#include "compiler/trace_builder.h"

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

CompileOptions no_scheduling() {
  CompileOptions copts;
  copts.enable_scheduling = false;
  return copts;
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
      compile_trace(lower(read_loop(10), 1), storage.striping(),
                    no_scheduling());
  Cluster cluster(sim, storage, compiled,
                  RuntimeConfig{.use_runtime_scheduler = false});
  cluster.start();
  Slot last = 0;
  bool monotone = true;
  std::function<void()> watch = [&] {
    const Slot now = cluster.client(0).local_time();
    if (now < last) monotone = false;
    last = now;
    if (!cluster.client(0).finished()) {
      cluster.client(0).subscribe_progress(now + 1, watch);
    }
  };
  cluster.client(0).subscribe_progress(1, watch);
  sim.run();
  EXPECT_TRUE(monotone);
  EXPECT_TRUE(cluster.client(0).finished());
}

TEST(Cluster, ProgressSubscriptionFiresImmediatelyWhenPast) {
  Simulator sim;
  StorageSystem storage(sim, small_storage());
  (void)storage.create_file("data", mib(64).count());
  const Compiled compiled =
      compile_trace(lower(read_loop(5), 1), storage.striping(),
                    no_scheduling());
  Cluster cluster(sim, storage, compiled,
                  RuntimeConfig{.use_runtime_scheduler = false});
  cluster.start();
  sim.run();
  bool fired = false;
  cluster.client(0).subscribe_progress(1, [&] { fired = true; });
  EXPECT_TRUE(fired);
}

TEST(Cluster, AccessIdLookupMatchesReadSites) {
  Simulator sim;
  StorageSystem storage(sim, small_storage());
  (void)storage.create_file("data", mib(64).count());
  const Compiled compiled =
      compile_trace(lower(read_loop(5), 2), storage.striping());
  Cluster cluster(sim, storage, compiled, RuntimeConfig{});
  for (std::size_t i = 0; i < compiled.program.read_sites.size(); ++i) {
    const ReadSite& site = compiled.program.read_sites[i];
    EXPECT_EQ(cluster.access_id_at(site.process, site.slot, site.op_index),
              static_cast<int>(i));
  }
  EXPECT_EQ(cluster.access_id_at(0, 9'999, 0), -1);
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
