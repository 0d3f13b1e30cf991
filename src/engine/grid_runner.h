// Grid execution: serial or on a std::thread worker pool.
//
// Each grid cell is one `ExperimentWorkspace::run` call.  Every worker
// thread owns one warm workspace reused across all its cells, so a W-worker
// run over N cells constructs O(W) simulation stacks instead of O(N);
// reuse is bit-identical to fresh construction (DESIGN.md §16).  Cells
// share no mutable state and the parallel schedule cannot change any
// cell's result — `run_grid` with N threads is bit-identical to
// the serial run (tests/engine/grid_runner_test proves it).  Results come
// back indexed in cell-enumeration order.
#pragma once

#include <cstddef>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include "engine/experiment_grid.h"
#include "telemetry/events.h"

namespace dasched {

struct GridRunOptions {
  /// Worker threads; <= 0 resolves DASCHED_GRID_THREADS, then
  /// std::thread::hardware_concurrency().  1 runs serially on the caller's
  /// thread.  The pool never exceeds the number of cells.
  int threads = 0;
  /// Traces every cell at `telemetry.level`.  When `telemetry.dir` is set
  /// each cell writes its artifacts under `<dir>/cell_<index>`; either way
  /// the per-cell summary lands in ExperimentResult::telemetry for the
  /// telemetry result sinks.
  TelemetryConfig telemetry;
  /// Progress tap, called after each finished cell.  Serialized by the
  /// runner's mutex, so it may print without interleaving.
  std::function<void(const GridCell&)> on_cell_done;
};

struct GridCellResult {
  GridCell cell;
  ExperimentResult result;
};

/// Results of one grid run, in cell-enumeration order, with lookups keyed
/// the way bench tables read them.
class GridResultSet {
 public:
  GridResultSet() = default;
  explicit GridResultSet(std::vector<GridCellResult> rows)
      : rows_(std::move(rows)) {}

  [[nodiscard]] const std::vector<GridCellResult>& rows() const {
    return rows_;
  }
  [[nodiscard]] std::size_t size() const { return rows_.size(); }

  /// Concatenates another run's rows (e.g. a separately declared baseline
  /// grid); lookups then span both.
  void append(GridResultSet other) {
    rows_.insert(rows_.end(), std::make_move_iterator(other.rows_.begin()),
                 std::make_move_iterator(other.rows_.end()));
  }

  /// Cell lookup for non-sweep grids; throws std::out_of_range if absent.
  [[nodiscard]] const ExperimentResult& find(const std::string& app,
                                             PolicyKind policy,
                                             bool scheme) const;

  /// Cell lookup within a sweep grid (value compared exactly).
  [[nodiscard]] const ExperimentResult& find(const std::string& app,
                                             PolicyKind policy, bool scheme,
                                             double sweep_value) const;

 private:
  [[nodiscard]] const ExperimentResult* lookup(const std::string& app,
                                               PolicyKind policy, bool scheme,
                                               bool match_sweep,
                                               double sweep_value) const;

  std::vector<GridCellResult> rows_;
};

/// Resolves the effective worker-thread count `run_grid` would use.
[[nodiscard]] int resolve_grid_threads(int requested);

/// Executes every cell of `grid`.  Exceptions from any cell (including
/// audit violations) are rethrown on the calling thread after the pool
/// drains; remaining unstarted cells are abandoned.
[[nodiscard]] GridResultSet run_grid(const ExperimentGrid& grid,
                                     const GridRunOptions& opts = {});

}  // namespace dasched
