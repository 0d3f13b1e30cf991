#include "io/cluster.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <span>

namespace dasched {

// ---------------------------------------------------------------------------
// ClientProcess
// ---------------------------------------------------------------------------

ClientProcess::ClientProcess(Cluster& cluster, int pid)
    : cluster_(cluster), pid_(pid) {}

void ClientProcess::start() { begin_slot(); }

void ClientProcess::reset() {
  current_ = 0;
  completed_ = 0;
  finished_ = false;
  finish_time_ = 0;
  waiters_.clear();
  ready_scratch_.clear();
  parked_id_ = -1;
}

void ClientProcess::wait_progress(Slot needed, int scheduler) {
  assert(completed_ < needed && !finished_);
  waiters_.emplace_back(needed, scheduler);
}

void ClientProcess::prefetch_landed(int access_id) {
  if (access_id != parked_id_) return;
  parked_id_ = -1;
  serve_from_buffer(parked_op_, access_id, /*waited=*/true);
}

void ClientProcess::serve_from_buffer(std::size_t op_index, int access_id,
                                      bool waited) {
  // Consume, then resume the threads the freed space lets go, then time the
  // hit: that order fixes the sequence numbers of the events they schedule.
  cluster_.buffer().consume(access_id, waited);
  cluster_.space_freed();
  cluster_.sim().schedule_after(cluster_.config().buffer_hit_latency,
                                completion(op_index));
}

void ClientProcess::resume_waiters(Slot reached) {
  // Stage the matured waits first: a resumed thread may register new ones.
  // Taking the staging vector by value keeps a (hypothetical) re-entrant
  // walk from clobbering this one.
  std::vector<int> ready = std::move(ready_scratch_);
  ready.clear();
  std::erase_if(waiters_, [reached, &ready](const auto& w) {
    if (w.first <= reached) {
      ready.push_back(w.second);
      return true;
    }
    return false;
  });
  for (const int scheduler : ready) cluster_.resume(scheduler);
  ready.clear();
  ready_scratch_ = std::move(ready);
}

void ClientProcess::begin_slot() {
  const ProcessPlan& plan = cluster_.compiled().program.process(pid_);

  // Fast-forward through empty padding slots iteratively (no recursion).
  while (current_ < plan.num_slots()) {
    if (!plan.ops(current_).empty() || plan.compute(current_) > 0) break;
    finish_slot();
  }
  if (current_ >= plan.num_slots()) {
    finished_ = true;
    finish_time_ = cluster_.sim().now();
    cluster_.client_finished();
    // Release everyone still waiting on this process's progress.
    resume_waiters(std::numeric_limits<Slot>::max());
    return;
  }

  if (!plan.ops(current_).empty()) {
    run_op(0);
  } else {
    after_ops();
  }
}

void ClientProcess::run_op(std::size_t op_index) {
  const IoOp& op =
      cluster_.compiled().program.process(pid_).ops(current_)[op_index];
  RuntimeStats& stats = cluster_.mutable_stats();

  if (op.is_write) {
    stats.writes += 1;
    cluster_.storage().write(op.file, op.offset, op.size, completion(op_index));
    return;
  }

  if (cluster_.config().use_runtime_scheduler) {
    const int id = op.access_id;
    assert(id >= 0);
    GlobalBuffer& buffer = cluster_.buffer();
    switch (buffer.state(id)) {
      case BufferEntryState::kReady:
        stats.buffer_hits += 1;
        serve_from_buffer(op_index, id, /*waited=*/false);
        return;
      case BufferEntryState::kInFlight:
        // Park until the prefetch lands (SchedulerThread::landed).
        stats.in_flight_hits += 1;
        parked_id_ = id;
        parked_op_ = op_index;
        return;
      case BufferEntryState::kAbsent:
      case BufferEntryState::kDone:
        buffer.mark_done(id);  // the scheduler must not fetch it anymore
        break;
    }
  }

  stats.direct_reads += 1;
  cluster_.storage().read(op.file, op.offset, op.size, completion(op_index));
}

void ClientProcess::op_done(std::size_t op_index) {
  if (op_index + 1 <
      cluster_.compiled().program.process(pid_).ops(current_).size()) {
    run_op(op_index + 1);
  } else {
    after_ops();
  }
}

void ClientProcess::after_ops() {
  const SimTime compute =
      cluster_.compiled().program.process(pid_).compute(current_);
  if (compute > 0) {
    auto next_slot = [this] {
      finish_slot();
      begin_slot();
    };
    static_assert(EventFn::fits_inline<decltype(next_slot)>);
    cluster_.sim().schedule_after(compute, next_slot);
  } else {
    finish_slot();
    begin_slot();
  }
}

void ClientProcess::finish_slot() {
  completed_ = ++current_;
  resume_waiters(completed_);
}

// ---------------------------------------------------------------------------
// SchedulerThread
// ---------------------------------------------------------------------------

SchedulerThread::SchedulerThread(Cluster& cluster, int pid)
    : cluster_(cluster), pid_(pid) {}

void SchedulerThread::kick() {
  if (fetches_in_flight_ >= cluster_.config().scheduler_fetch_depth) return;
  const Compiled& compiled = cluster_.compiled();
  const std::span<const std::uint32_t> rows = compiled.table.entries(pid_);
  ClientProcess& owner = cluster_.client(pid_);
  GlobalBuffer& buffer = cluster_.buffer();
  RuntimeStats& stats = cluster_.mutable_stats();

  while (cursor_ < rows.size()) {
    // Row i is access i in both `compiled.scheduled` (the placement: its
    // slot) and `compiled.program.reads` (the record: original point and
    // writer), so an entry already fetched or consumed is passed without
    // loading either row.
    const int id = static_cast<int>(rows[cursor_]);
    if (buffer.is_done(id) || buffer.state(id) != BufferEntryState::kAbsent) {
      ++cursor_;
      continue;
    }
    const ScheduledAccess& e = compiled.scheduled[rows[cursor_]];
    const AccessRecord& rec = compiled.program.reads[rows[cursor_]];
    assert(e.id == id && rec.id == id);
    // Only fetch accesses hoisted far enough ahead of their original point.
    if (rec.original - e.slot <= cluster_.config().min_lead) {
      stats.skipped_min_lead += 1;
      ++cursor_;
      continue;
    }
    // Wait until this process reaches the scheduled slot.
    if (e.slot > owner.local_time() && !owner.finished()) {
      wait_for(owner, e.slot);
      return;
    }
    // If the application has already passed the original point there is no
    // one left to serve; skip.
    if (owner.local_time() > rec.original) {
      buffer.mark_done(id);
      ++cursor_;
      continue;
    }
    // Local-time protocol: never run ahead of the producing process.
    if (rec.writer_process >= 0 && rec.writer_process != pid_) {
      ClientProcess& writer = cluster_.client(rec.writer_process);
      if (writer.local_time() <= rec.writer_slot && !writer.finished()) {
        wait_for(writer, rec.writer_slot + 1);
        return;
      }
    }
    const IoOp& op = cluster_.op_for(rec);
    if (!buffer.try_reserve(id, op.size)) {
      stall_id_ = id;
      stall_size_ = op.size;
      stall_original_ = rec.original;
      cluster_.pause_for_space(pid_);
      return;
    }
    stats.prefetches += 1;
    fetches_in_flight_ += 1;
    ++cursor_;
    cluster_.storage().read(op.file, op.offset, op.size,
                            [this, id] { landed(id); });
    if (fetches_in_flight_ >= cluster_.config().scheduler_fetch_depth) return;
  }
}

bool SchedulerThread::stalled_on_space() const {
  // kick() reached the stalled entry past every check that cannot change
  // its answer (min_lead is static, local times only grow), and its cursor
  // cannot have moved without taking the entry out of the absent state.
  if (stall_id_ < 0) return false;
  if (fetches_in_flight_ >= cluster_.config().scheduler_fetch_depth) {
    return false;
  }
  const GlobalBuffer& buffer = cluster_.buffer();
  return buffer.state(stall_id_) == BufferEntryState::kAbsent &&
         cluster_.client(pid_).local_time() <= stall_original_ &&
         buffer.used() + stall_size_ > buffer.capacity();
}

void SchedulerThread::wait_for(ClientProcess& process, Slot needed) {
  // Local times only grow, so a wait equal to the last one registered has
  // not fired yet.  A second copy would resume this thread again in the same
  // walk, after only other threads' reservations, and it would stop at the
  // same entry: a no-op (DESIGN.md §20).
  if (process.pid() == wait_pid_ && needed == wait_slot_) return;
  wait_pid_ = process.pid();
  wait_slot_ = needed;
  process.wait_progress(needed, pid_);
}

void SchedulerThread::landed(int access_id) {
  if (cluster_.buffer().mark_ready(access_id)) {
    cluster_.space_freed();  // overtaken: its bytes were reclaimed
  } else {
    cluster_.client(pid_).prefetch_landed(access_id);
  }
  fetches_in_flight_ -= 1;
  kick();
}

// ---------------------------------------------------------------------------
// Cluster
// ---------------------------------------------------------------------------

Cluster::Cluster(Simulator& sim, StorageSystem& storage, const Compiled& compiled,
                 RuntimeConfig cfg)
    : sim_(sim), storage_(storage), compiled_(&compiled) {
  reset(compiled, cfg);
}

void Cluster::reset_space_fifo() {
  // Each thread is in the FIFO at most once, so both vectors stay within
  // the scheduler count and never grow during a run.
  space_fifo_.clear();
  space_fifo_.reserve(schedulers_.size());
  space_spare_.clear();
  space_spare_.reserve(schedulers_.size());
  space_paused_.assign(schedulers_.size(), 0);
}

void Cluster::reset(const Compiled& compiled, RuntimeConfig cfg) {
  compiled_ = &compiled;
  cfg_ = cfg;
  // Only runtime-scheduler prefetches enter the buffer; without them the
  // clients read storage directly and never look an access up.
  buffer_.reset(cfg_.buffer_capacity,
                cfg_.use_runtime_scheduler
                    ? static_cast<std::size_t>(compiled_->program.num_reads)
                    : 0);
  const int nproc = compiled_->program.num_processes();
  if (static_cast<int>(clients_.size()) != nproc) {
    clients_.clear();
    for (int p = 0; p < nproc; ++p) {
      clients_.push_back(std::make_unique<ClientProcess>(*this, p));
    }
  } else {
    for (auto& c : clients_) c->reset();
  }
  const std::size_t nsched =
      cfg_.use_runtime_scheduler ? static_cast<std::size_t>(nproc) : 0;
  if (schedulers_.size() != nsched) {
    schedulers_.clear();
    for (std::size_t p = 0; p < nsched; ++p) {
      schedulers_.push_back(
          std::make_unique<SchedulerThread>(*this, static_cast<int>(p)));
    }
  } else {
    for (auto& s : schedulers_) s->reset();
  }
  unfinished_ = nproc;
  reset_space_fifo();
  stats_ = RuntimeStats{};
  started_ = false;
}

void Cluster::start() {
  started_ = true;
  for (auto& c : clients_) c->start();
  for (auto& s : schedulers_) s->kick();
}

SimTime Cluster::run_to_completion() {
  if (!started_) start();
  while (!all_finished() && sim_.step()) {
  }
  return exec_time();
}

SimTime Cluster::exec_time() const {
  SimTime t = 0;
  for (const auto& c : clients_) t = std::max(t, c->finish_time());
  return t;
}

RuntimeStats Cluster::stats() const {
  RuntimeStats out = stats_;
  out.buffer = buffer_.stats();
  return out;
}

const IoOp& Cluster::op_for(const AccessRecord& rec) const {
  return compiled_->program.process(rec.process)
      .op(static_cast<std::size_t>(rec.op_index));
}

void Cluster::pause_for_space(int scheduler) {
  char& paused = space_paused_[static_cast<std::size_t>(scheduler)];
  if (paused != 0) return;
  paused = 1;
  space_fifo_.push_back(scheduler);
}

void Cluster::space_freed() {
  if (space_fifo_.empty()) return;
  // Detach the FIFO and clear its flags before resuming anyone, so a thread
  // that fails again re-pauses at the back of the fresh FIFO.  Taking the
  // detached FIFO by value keeps a (hypothetical) re-entrant release from
  // clobbering the walk.
  std::vector<int> waking = std::move(space_fifo_);
  space_fifo_ = std::move(space_spare_);
  for (const int id : waking) space_paused_[static_cast<std::size_t>(id)] = 0;
  // Resumed threads only reserve, so `used` never falls during the walk: a
  // thread stalled on space when its turn comes would fail the same
  // reservation, and re-pausing it in its turn is what that kick did.
  for (const int id : waking) {
    if (schedulers_[static_cast<std::size_t>(id)]->stalled_on_space()) {
      pause_for_space(id);
    } else {
      resume(id);
    }
  }
  waking.clear();
  space_spare_ = std::move(waking);
}

void Cluster::resume(int scheduler) {
  schedulers_[static_cast<std::size_t>(scheduler)]->kick();
}

}  // namespace dasched
