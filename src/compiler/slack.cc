#include "compiler/slack.h"

#include <algorithm>
#include <cassert>
#include <span>

namespace dasched {

namespace {

/// First interval whose begin is >= `b` (the flat analogue of
/// map::lower_bound on the start-offset key).
template <typename Vec>
[[nodiscard]] auto interval_lower_bound(Vec& intervals, Bytes b) {
  return std::lower_bound(
      intervals.begin(), intervals.end(), b,
      [](const auto& iv, Bytes key) { return iv.begin < key; });
}

}  // namespace

void LastWriteMap::record_write(FileId file, Bytes offset, Bytes size,
                                Slot slot, int process) {
  assert(size > 0 && file >= 0);
  if (static_cast<std::size_t>(file) >= files_.size()) {
    files_.resize(static_cast<std::size_t>(file) + 1);
  }
  auto& intervals = files_[static_cast<std::size_t>(file)];
  const Bytes begin = offset;
  const Bytes end = offset + size;

  // Trim or split every interval overlapping [begin, end).
  auto it = interval_lower_bound(intervals, begin);
  Interval right{};  // surviving right part of a straddling interval
  bool have_right = false;
  if (it != intervals.begin()) {
    Interval& prev = *std::prev(it);
    if (prev.end > begin) {
      // prev straddles `begin`: keep its left part, and if it extends past
      // `end`, keep its right part too (intervals are disjoint, so nothing
      // else can overlap [begin, end) in that case).
      if (prev.end > end) {
        right = Interval{end, prev.end, prev.slot, prev.process};
        have_right = true;
      }
      prev.end = begin;
    }
  }
  auto last = it;
  while (last != intervals.end() && last->begin < end) {
    if (last->end > end) {
      // Straddles `end`: keep the right part in place.
      last->begin = end;
      break;
    }
    ++last;
  }
  // Replace the swallowed run [it, last) with the new interval (and the
  // split-off right part, which sorts directly after it).
  it = intervals.erase(it, last);
  it = intervals.insert(it, Interval{begin, end, slot, process});
  if (have_right) intervals.insert(std::next(it), right);
}

std::optional<LastWriteMap::Writer> LastWriteMap::last_write(FileId file,
                                                             Bytes offset,
                                                             Bytes size) const {
  if (file < 0 || static_cast<std::size_t>(file) >= files_.size()) {
    return std::nullopt;
  }
  const auto& intervals = files_[static_cast<std::size_t>(file)];
  const Bytes begin = offset;
  const Bytes end = offset + size;

  std::optional<Writer> best;
  auto consider = [&best](const Interval& iv) {
    if (!best.has_value() || iv.slot > best->slot) {
      best = Writer{iv.slot, iv.process};
    }
  };
  auto it = interval_lower_bound(intervals, begin);
  if (it != intervals.begin()) {
    const Interval& prev = *std::prev(it);
    if (prev.end > begin) consider(prev);
  }
  for (; it != intervals.end() && it->begin < end; ++it) consider(*it);
  return best;
}

namespace {

struct PendingWrite {
  IoOp op;
  int process = 0;
};

[[nodiscard]] bool ranges_overlap(const IoOp& a, const IoOp& b) {
  return a.file == b.file && a.offset < b.offset + b.size &&
         b.offset < a.offset + a.size;
}

[[nodiscard]] int access_length(const IoOp& op, const SlackOptions& opts) {
  if (opts.length_unit <= 0) return 1;
  const Bytes units = (op.size + opts.length_unit - 1) / opts.length_unit;
  return static_cast<int>(std::max<Bytes>(1, units).count());
}

}  // namespace

void analyze_slacks(CompiledProgram& program, const StripingMap& striping,
                    const SlackOptions& opts) {
  program.reads.clear();
  program.reads.reserve(static_cast<std::size_t>(program.num_reads));

  LastWriteMap writes;
  std::vector<PendingWrite> pending_writes;  // writes of the slot in progress

  for (Slot t = 0; t < program.num_slots; ++t) {
    // Gather this slot's writes first: a read racing a same-slot write (from
    // any process; processes are not lock-stepped) must not be hoisted.
    pending_writes.clear();
    for (int p = 0; p < program.num_processes(); ++p) {
      for (const IoOp& op : program.process(p).ops(t)) {
        if (op.is_write) pending_writes.push_back(PendingWrite{op, p});
      }
    }

    for (int p = 0; p < program.num_processes(); ++p) {
      const ProcessPlan& plan = program.process(p);
      const std::span<const IoOp> ops = plan.ops(t);
      for (std::size_t oi = 0; oi < ops.size(); ++oi) {
        const IoOp& op = ops[oi];
        if (op.is_write) continue;

        AccessRecord rec;
        Slot begin = 0;
        const auto writer = writes.last_write(op.file, op.offset, op.size);
        if (writer.has_value()) {
          begin = writer->slot + 1;
          rec.writer_process = writer->process;
          rec.writer_slot = writer->slot;
        }
        for (const PendingWrite& w : pending_writes) {
          if (ranges_overlap(op, w.op)) {
            begin = t;  // produced in this very slot: no flexibility
            rec.writer_process = w.process;
            rec.writer_slot = t;
            break;
          }
        }
        if (begin > t) begin = t;  // negative slack -> length-1 window
        if (opts.max_slack > 0 && t - begin + 1 > opts.max_slack) {
          begin = t - opts.max_slack + 1;
        }

        rec.id = op.access_id;
        assert(rec.id == static_cast<int>(program.reads.size()));
        rec.process = p;
        rec.begin = begin;
        rec.end = t;
        rec.original = t;
        rec.op_index = static_cast<int>(plan.first_op(t) + oi);
        rec.sig = striping.signature(op.file, op.offset, op.size);
        rec.length =
            std::min<int>(access_length(op, opts),
                          static_cast<int>(rec.end - rec.begin + 1));
        program.reads.push_back(std::move(rec));
      }
    }

    for (const PendingWrite& w : pending_writes) {
      writes.record_write(w.op.file, w.op.offset, w.op.size, t, w.process);
    }
  }
}

}  // namespace dasched
