// Access slack determination (Sec. IV-A).
//
// For every read I/O call the compiler finds the *last preceding write* to
// any byte it touches — across all processes — and opens the slack window
// [iw + 1, ir].  Reads of never-written (input) data get the maximal window
// starting at slot 0.  Writes in the *same* slot as the read (including
// unsynchronized cross-process races after iteration-space normalization)
// clamp the window to the single slot [ir, ir], the paper's "negative slack
// becomes a slack of length 1".
//
// The analysis also assigns each access its length in slots (extended
// algorithm, Sec. IV-B2), estimated from the requested byte count.
//
// Slacks exist only to feed data access scheduling (Fig. 4), so two callers
// run the analysis: a scheme-on `compile_trace`, and the schedule audit of
// a scheme-off compile, which keeps no records of its own.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "compiler/program.h"
#include "storage/striping.h"
#include "util/units.h"

namespace dasched {

struct SlackOptions {
  /// Bytes of requested data per slot of access length (the extended
  /// algorithm's "length"); an access of <= length_unit bytes has length 1.
  Bytes length_unit = mib(1);
  /// Upper bound on slack window size, mirroring the bounded lookahead a
  /// real runtime buffer affords.  0 = unbounded.
  Slot max_slack = 0;

  friend bool operator==(const SlackOptions&, const SlackOptions&) = default;
};

/// Tracks, per file, which byte ranges were last written at which slot.
/// This is the data-flow core of the slack analysis.
///
/// Storage: one flat sorted vector of disjoint intervals per file (files are
/// dense small ids), replacing the former map-of-maps.  The slot sweep of
/// `analyze_slacks` queries and records in nondecreasing slot order over a
/// handful of files, so binary search + vector splice beats the node-based
/// map on both locality and allocation count.
class LastWriteMap {
 public:
  struct Writer {
    Slot slot = 0;
    int process = 0;
  };

  void record_write(FileId file, Bytes offset, Bytes size, Slot slot,
                    int process);

  /// Latest write overlapping [offset, offset+size), if any part of the
  /// range has been written.
  [[nodiscard]] std::optional<Writer> last_write(FileId file, Bytes offset,
                                                 Bytes size) const;

 private:
  struct Interval {
    Bytes begin = 0;
    Bytes end = 0;  // exclusive
    Slot slot = 0;
    int process = 0;
  };
  // Per file (vector index = FileId): disjoint intervals sorted by begin.
  std::vector<std::vector<Interval>> files_;
};

/// Fills `program.reads` with one AccessRecord per read op, in access-id
/// order: slack windows computed as above, signatures taken from
/// `striping`, and the op's (process, slot, op index) site.  It only reads
/// the frozen slot plans, whose ops already carry their ids.
void analyze_slacks(CompiledProgram& program, const StripingMap& striping,
                    const SlackOptions& opts = {});

}  // namespace dasched
