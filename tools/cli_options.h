// The command-line front end shared by dasched_run and dasched_client.
//
// Both tools take the same experiment on the command line: the config-key
// flags of engine/config_keys.h (--app, --procs, --seed, ..., and the
// --replay-* options of a trace upload), trace replay, the output format
// and the grid axes.  They parse it here, so the
// two accept exactly the same flags and values, and with the daemon's wire
// keys behind the same row parsers, the same values as a daemon request.
// This file also owns the single-run CSV row and the hexfloat line, the two
// outputs that CI diffs between in-process and daemon runs.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "driver/experiment.h"
#include "engine/experiment_grid.h"
#include "workload/trace_replay.h"

namespace dasched {

/// Walks argv flag by flag.  A missing flag value or an unknown flag calls
/// `usage(argv0, 2)`; a malformed flag value throws ConfigError naming the
/// flag without its dashes (`threads: expected a 32-bit integer, got 'x'`),
/// which `cli_main` turns into exit 2.
class CliArgs {
 public:
  using UsageFn = void (*)(const char* argv0, int code);

  CliArgs(int argc, char** argv, UsageFn usage)
      : argc_(argc), argv_(argv), usage_(usage) {}

  /// Advances to the next flag; false past the last one.
  bool next();
  [[nodiscard]] std::string_view flag() const { return argv_[i_]; }
  /// The current flag's value (consumes the next argument).
  const char* value();
  /// The value as an integer that fits `int`.
  int int_value();
  [[noreturn]] void usage(int code) const;
  /// Reports the current flag as unknown; exits 2.
  [[noreturn]] void unknown() const;

 private:
  int argc_;
  char** argv_;
  UsageFn usage_;
  int i_ = 0;
};

/// The experiment a command line describes.
struct CliOptions {
  CliOptions() { cfg.app = "sar"; }

  /// The single-run config and the grid's base.
  ExperimentConfig cfg;
  bool procs_set = false;
  /// A config, replay, output or grid flag was given.
  bool run_requested = false;
  bool csv = false;
  bool csv_header = false;
  bool hexfloat = false;
  bool grid = false;

  std::string replay_path;
  ReplayOptions replay;

  /// Grid axes; empty apps/policies select the defaults of make_grid().
  std::vector<std::string> apps;
  std::vector<PolicyKind> policies;
  std::vector<bool> schemes{false};
  SweepAxis sweep;
  std::string out_csv;
  std::string out_jsonl;

  /// Makes the registered replay app the experiment's app.  The trace
  /// carries its own process count; an explicit --procs must match it.
  void use_replay_app(const std::string& app, int procs);

  /// The declared grid.  Without --apps it runs all six applications, or
  /// the replay app when replaying; without --policies, all five policies.
  [[nodiscard]] ExperimentGrid make_grid() const;
};

/// Consumes the current flag into `opts` if it is a shared one; false when
/// the flag belongs to the tool (or to nobody).
bool parse_shared_flag(CliArgs& args, CliOptions& opts);

/// Help text for the shared flags.
void print_shared_usage();

/// The single-run CSV schema: header and one row per run.
inline constexpr const char* kCsvHeader =
    "app,policy,scheme,procs,scale,nodes,exec_s,energy_j,spin_downs,"
    "spin_ups,rpm_changes,cache_hit_rate,prefetches,buffer_hits,"
    "direct_reads,events";
void print_csv_row(const ExperimentConfig& cfg, const ExperimentResult& r);

/// The bit-exact hexfloat line: every double as %a plus the counters.
/// Diffing it across processes, builds or the daemon proves (or disproves)
/// bit-identical simulation.
void print_hexfloat_line(const ExperimentResult& r);

}  // namespace dasched
