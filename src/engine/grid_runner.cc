#include "engine/grid_runner.h"

#include <atomic>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "driver/workspace.h"
#include "engine/env_knobs.h"

namespace dasched {

const ExperimentResult* GridResultSet::lookup(const std::string& app,
                                              PolicyKind policy, bool scheme,
                                              bool match_sweep,
                                              double sweep_value) const {
  for (const GridCellResult& row : rows_) {
    if (row.cell.app != app || row.cell.policy != policy ||
        row.cell.scheme != scheme) {
      continue;
    }
    if (match_sweep &&
        (!row.cell.has_sweep || row.cell.sweep_value != sweep_value)) {
      continue;
    }
    return &row.result;
  }
  return nullptr;
}

const ExperimentResult& GridResultSet::find(const std::string& app,
                                            PolicyKind policy,
                                            bool scheme) const {
  const ExperimentResult* r = lookup(app, policy, scheme, false, 0.0);
  if (r == nullptr) {
    throw std::out_of_range("GridResultSet: no cell " + app + "/" +
                            to_string(policy) + "/" + (scheme ? "s" : "b"));
  }
  return *r;
}

const ExperimentResult& GridResultSet::find(const std::string& app,
                                            PolicyKind policy, bool scheme,
                                            double sweep_value) const {
  const ExperimentResult* r = lookup(app, policy, scheme, true, sweep_value);
  if (r == nullptr) {
    throw std::out_of_range("GridResultSet: no cell " + app + "/" +
                            to_string(policy) + "/" + (scheme ? "s" : "b") +
                            " at sweep value " + std::to_string(sweep_value));
  }
  return *r;
}

int resolve_grid_threads(int requested) {
  int threads = requested;
  if (threads <= 0) threads = env_int("DASCHED_GRID_THREADS", 0);
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
  }
  return threads < 1 ? 1 : threads;
}

namespace {

ExperimentResult run_cell(const GridCell& cell, const GridRunOptions& opts,
                          ExperimentWorkspace& ws) {
  ExperimentConfig cfg = cell.config;
  if (opts.telemetry.enabled()) {
    cfg.telemetry = opts.telemetry;
    if (!cfg.telemetry.dir.empty()) {
      cfg.telemetry.dir += "/cell_" + std::to_string(cell.index);
    }
  }
  return ws.run(cfg);
}

}  // namespace

GridResultSet run_grid(const ExperimentGrid& grid,
                       const GridRunOptions& opts) {
  const std::vector<GridCell> cells = grid.cells();
  std::vector<GridCellResult> results(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) results[i].cell = cells[i];

  int threads = resolve_grid_threads(opts.threads);
  if (static_cast<std::size_t>(threads) > cells.size()) {
    threads = static_cast<int>(cells.size());
  }
  if (threads <= 1) {
    ExperimentWorkspace ws;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      results[i].result = run_cell(cells[i], opts, ws);
      if (opts.on_cell_done) opts.on_cell_done(cells[i]);
    }
    return GridResultSet{std::move(results)};
  }

  std::atomic<std::size_t> next{0};
  std::atomic<bool> stop{false};
  std::mutex mu;  // guards first_error and serializes on_cell_done
  std::exception_ptr first_error;

  auto worker = [&] {
    // One warm workspace per worker thread: O(threads) stack constructions
    // for the whole grid instead of O(cells).
    ExperimentWorkspace ws;
    while (!stop.load(std::memory_order_relaxed)) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= cells.size()) break;
      try {
        results[i].result = run_cell(cells[i], opts, ws);
        if (opts.on_cell_done) {
          const std::lock_guard<std::mutex> lock(mu);
          opts.on_cell_done(cells[i]);
        }
      } catch (...) {
        const std::lock_guard<std::mutex> lock(mu);
        if (!first_error) first_error = std::current_exception();
        stop.store(true, std::memory_order_relaxed);
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();

  if (first_error) std::rethrow_exception(first_error);
  return GridResultSet{std::move(results)};
}

}  // namespace dasched
