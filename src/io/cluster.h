// Client-side runtime (Sec. III): application processes plus the data access
// scheduler threads.
//
// A `Cluster` wires one `ClientProcess` per MPI rank to the storage system
// and — when the compiler-directed scheme is enabled — one `SchedulerThread`
// per client node that prefetches data into the shared `GlobalBuffer`
// according to the scheduling table.  Application reads first consult the
// buffer: a hit returns immediately and invalidates the entry; a miss goes
// to storage.  Scheduler threads respect the writers' "local times" so a
// prefetch never runs ahead of the producing process.
//
// Every wait is an id (DESIGN.md §20): a scheduler thread that cannot go on
// parks by id on the cluster's space FIFO or on one process's progress list,
// and an application read that finds its prefetch in flight parks on its own
// process until the prefetch lands.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "compiler/compile.h"
#include "io/global_buffer.h"
#include "sim/simulator.h"
#include "storage/storage_system.h"
#include "util/units.h"

namespace dasched {

class Cluster;

struct RuntimeConfig {
  /// Capacity of the collectively managed client-side prefetch buffer.
  Bytes buffer_capacity = mib(128);
  /// Prefetch only accesses scheduled more than `min_lead` slots before
  /// their original point ("scheduled at much earlier iterations").
  Slot min_lead = 1;
  /// Latency of serving an application read from the buffer.
  SimTime buffer_hit_latency = usec(10);
  /// Concurrent fetches a scheduler thread keeps in flight.
  int scheduler_fetch_depth = 4;
  /// False disables the scheduler threads entirely (the Default scheme and
  /// the paper's "without our approach" runs).
  bool use_runtime_scheduler = true;
};

struct RuntimeStats {
  std::int64_t buffer_hits = 0;
  /// Application reads that found their prefetch still in flight and waited.
  std::int64_t in_flight_hits = 0;
  std::int64_t direct_reads = 0;
  std::int64_t writes = 0;
  std::int64_t prefetches = 0;
  /// Table entries skipped because the scheduled point was too close to the
  /// original point to be worth prefetching.
  std::int64_t skipped_min_lead = 0;
  BufferStats buffer;
};

/// One application process: executes its slot plan (compute + I/O calls),
/// publishing its local time for the scheduler threads.
class ClientProcess {
 public:
  ClientProcess(Cluster& cluster, int pid);

  void start();

  /// Rewinds to slot 0, un-finishes, and drops pending progress waits and
  /// the parked read.  Wait vectors keep their capacity.
  void reset();

  /// Number of fully completed slots (the paper's "local time").
  [[nodiscard]] Slot local_time() const { return completed_; }

  /// Resumes scheduler thread `scheduler` once local_time() >= needed or
  /// the process finishes.  Only for a slot not yet reached.
  void wait_progress(Slot needed, int scheduler);

  /// The prefetch of `access_id` landed; resumes the read parked on it.
  void prefetch_landed(int access_id);

  [[nodiscard]] bool finished() const { return finished_; }
  [[nodiscard]] SimTime finish_time() const { return finish_time_; }
  [[nodiscard]] int pid() const { return pid_; }

 private:
  void begin_slot();
  void run_op(std::size_t op_index);
  void op_done(std::size_t op_index);
  void after_ops();
  void finish_slot();
  /// Consumes the buffered entry of op `op_index` and completes the op
  /// after the hit latency.
  void serve_from_buffer(std::size_t op_index, int access_id, bool waited);
  /// Resumes, in registration order, every thread waiting for a slot
  /// <= `reached`.
  void resume_waiters(Slot reached);
  /// The callback that completes op `op_index`; always stored inline.
  [[nodiscard]] auto completion(std::size_t op_index) {
    auto done = [this, op_index] { op_done(op_index); };
    static_assert(EventFn::fits_inline<decltype(done)>);
    return done;
  }

  Cluster& cluster_;
  int pid_;
  Slot current_ = 0;
  Slot completed_ = 0;
  bool finished_ = false;
  SimTime finish_time_ = 0;
  /// Pending progress waits: (slot needed, scheduler id).
  std::vector<std::pair<Slot, int>> waiters_;
  /// Matured waits staged here before resuming; a member so the staging
  /// storage is reused instead of reallocated every slot.
  std::vector<int> ready_scratch_;
  /// The read parked on an in-flight prefetch: its access id (-1: none)
  /// and op index in the current slot.
  int parked_id_ = -1;
  std::size_t parked_op_ = 0;
};

/// One runtime data-access scheduler thread (light-weight, per client node).
/// It keeps a small bounded number of fetches in flight (a blocking thread
/// with limited lookahead), so prefetch traffic can never flood the disks.
class SchedulerThread {
 public:
  SchedulerThread(Cluster& cluster, int pid);

  /// Re-evaluates the table cursor; invoked on owner progress, buffer space
  /// release, writer progress and fetch completion.
  void kick();

  /// Rewinds the table cursor for a fresh run.
  void reset() {
    cursor_ = 0;
    fetches_in_flight_ = 0;
    wait_pid_ = -1;
    wait_slot_ = 0;
    stall_id_ = -1;
  }

  /// True when kick() would stop at the entry whose reservation last failed
  /// and fail it again: the thread is below fetch depth, that entry is
  /// still unfetched and still ahead of the owner, and it does not fit in
  /// the buffer's free space (DESIGN.md §20).
  [[nodiscard]] bool stalled_on_space() const;

 private:
  /// Parks on `process` until it reaches slot `needed`, unless this very
  /// wait is already pending.
  void wait_for(ClientProcess& process, Slot needed);
  /// Completion of the prefetch of `access_id`.
  void landed(int access_id);

  Cluster& cluster_;
  int pid_;
  std::size_t cursor_ = 0;
  int fetches_in_flight_ = 0;
  /// The last progress wait registered: (process, slot).
  int wait_pid_ = -1;
  Slot wait_slot_ = 0;
  /// The entry the last failed reservation stopped at: its access id (-1:
  /// none), size and original slot.
  int stall_id_ = -1;
  Bytes stall_size_ = 0;
  Slot stall_original_ = 0;
};

class Cluster {
 public:
  Cluster(Simulator& sim, StorageSystem& storage, const Compiled& compiled,
          RuntimeConfig cfg = {});

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Restores the cluster for a new run over (possibly different) compiled
  /// output and runtime config.  Same-shape parts — clients, schedulers, the
  /// prefetch buffer, the space FIFO — reset in place without allocating; a
  /// process-count change rebuilds the per-process objects.  The compiled
  /// output must outlive the run, as with the constructor.
  void reset(const Compiled& compiled, RuntimeConfig cfg);

  /// Launches every client process (and scheduler thread) at the current
  /// simulated time.
  void start();

  /// Convenience driver: start() if needed, then step the simulator until
  /// every client finishes, and return the completion time.  Use this rather
  /// than Simulator::run(): power-policy watchdog timers can keep the event
  /// queue alive indefinitely after the application completes.
  SimTime run_to_completion();

  /// True once every client process has finished (O(1): a count kept as
  /// processes finish, so the run loop may test it before every step).
  [[nodiscard]] bool all_finished() const { return unfinished_ == 0; }
  /// Completion time of the slowest process.
  [[nodiscard]] SimTime exec_time() const;

  [[nodiscard]] RuntimeStats stats() const;

  [[nodiscard]] int num_processes() const {
    return static_cast<int>(clients_.size());
  }
  [[nodiscard]] ClientProcess& client(int p) {
    return *clients_[static_cast<std::size_t>(p)];
  }

  // --- Internal plumbing shared by ClientProcess / SchedulerThread ---------
  [[nodiscard]] Simulator& sim() { return sim_; }
  [[nodiscard]] StorageSystem& storage() { return storage_; }
  [[nodiscard]] GlobalBuffer& buffer() { return buffer_; }
  [[nodiscard]] const Compiled& compiled() const { return *compiled_; }
  [[nodiscard]] const RuntimeConfig& config() const { return cfg_; }
  [[nodiscard]] RuntimeStats& mutable_stats() { return stats_; }

  /// The I/O operation behind a read record.
  [[nodiscard]] const IoOp& op_for(const AccessRecord& rec) const;

  /// Parks scheduler thread `scheduler` until the next buffer-space
  /// release.  A thread already parked keeps its place.
  void pause_for_space(int scheduler);

  /// Buffer space was released: walks the paused threads in the order they
  /// paused, resuming each one that can proceed.  A thread that cannot —
  /// or that is resumed and fails again — re-pauses behind them.
  void space_freed();

  /// Re-runs scheduler thread `scheduler` (a progress wait matured).
  void resume(int scheduler);

  /// A client process finished its last slot.
  void client_finished() {
    assert(unfinished_ > 0);
    --unfinished_;
  }

 private:
  /// Sizes the space FIFO for the current scheduler count.
  void reset_space_fifo();

  Simulator& sim_;
  StorageSystem& storage_;
  const Compiled* compiled_;  // rebindable on reset(); never null
  RuntimeConfig cfg_;
  GlobalBuffer buffer_;
  std::vector<std::unique_ptr<ClientProcess>> clients_;
  std::vector<std::unique_ptr<SchedulerThread>> schedulers_;
  /// Scheduler ids paused for space, in pause order; `space_paused_[id]`
  /// says whether `id` is in it.  `space_spare_` is the detached FIFO's
  /// storage, kept for reuse.
  std::vector<int> space_fifo_;
  std::vector<int> space_spare_;
  std::vector<char> space_paused_;
  RuntimeStats stats_;
  /// Client processes that have not finished yet.
  int unfinished_ = 0;
  bool started_ = false;
};

}  // namespace dasched
