// End-to-end telemetry integration:
//  * enabling the recorder cannot change any simulation result,
//  * audit + trace compose with zero violations,
//  * the energy-by-state breakdown agrees with the run's scalar total,
//  * residency tiles each disk's timeline exactly,
//  * artifacts (trace.bin / summary.json / trace.json) are written and the
//    Chrome export is structurally valid JSON.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "audit_report.h"
#include "driver/experiment.h"
#include "engine/grid_runner.h"
#include "engine/result_sink.h"
#include "scoped_test_dir.h"
#include "telemetry/analytics.h"
#include "telemetry/trace_io.h"

namespace dasched {
namespace {

ExperimentConfig tiny(const std::string& app, PolicyKind policy,
                      bool scheme) {
  ExperimentConfig cfg;
  cfg.app = app;
  cfg.policy = policy;
  cfg.use_scheme = scheme;
  cfg.scale.num_processes = 4;
  cfg.scale.factor = 0.1;
  return cfg;
}

void expect_same_results(const ExperimentResult& a, const ExperimentResult& b) {
  EXPECT_EQ(a.exec_time, b.exec_time);
  EXPECT_EQ(a.energy_j, b.energy_j);  // bit-identical, not just close
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.storage.requests, b.storage.requests);
  EXPECT_EQ(a.storage.spin_downs, b.storage.spin_downs);
  EXPECT_EQ(a.storage.spin_ups, b.storage.spin_ups);
  EXPECT_EQ(a.storage.rpm_changes, b.storage.rpm_changes);
  EXPECT_EQ(a.runtime.prefetches, b.runtime.prefetches);
  EXPECT_EQ(a.sched.scheduled, b.sched.scheduled);
}

/// Structural JSON validation without a parser dependency: every brace /
/// bracket balances, respecting strings and escapes.
bool json_balanced(const std::string& text) {
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (const char c : text) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (in_string) {
      if (c == '\\') escaped = true;
      if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      depth += 1;
    } else if (c == '}' || c == ']') {
      depth -= 1;
      if (depth < 0) return false;
    }
  }
  return depth == 0 && !in_string;
}

TEST(TelemetryRun, RecorderIsInvisibleToResults) {
  for (const bool scheme : {false, true}) {
    const ExperimentResult off =
        run_experiment(tiny("sar", PolicyKind::kPrediction, scheme));
    ExperimentConfig cfg = tiny("sar", PolicyKind::kPrediction, scheme);
    cfg.telemetry.level = TraceLevel::kFull;
    const ExperimentResult on = run_experiment(cfg);
    expect_same_results(off, on);
    EXPECT_EQ(off.telemetry, nullptr);
    ASSERT_NE(on.telemetry, nullptr);
    EXPECT_GT(on.telemetry->trace_events, 0u);
  }
}

TEST(TelemetryRun, AuditAndTraceCompose) {
  ExperimentConfig cfg = tiny("madbench2", PolicyKind::kHistory, true);
  cfg.telemetry.level = TraceLevel::kFull;
  cfg.audit = true;
  const ExperimentResult r = run_experiment(cfg);
  EXPECT_TRUE(r.audited);
  EXPECT_EQ(r.audit_violations, 0);
  EXPECT_GT(clean_audit_evaluations(r.audit_report, 5), 0) << r.audit_report;
  ASSERT_NE(r.telemetry, nullptr);
  // Audited equals unaudited equals untraced: full composition matrix.
  ExperimentConfig plain_cfg = tiny("madbench2", PolicyKind::kHistory, true);
  plain_cfg.audit = false;
  const ExperimentResult plain = run_experiment(plain_cfg);
  EXPECT_TRUE(plain.audit_report.empty()) << plain.audit_report;
  expect_same_results(plain, r);
}

TEST(TelemetryRun, EnergyByStateMatchesScalarTotal) {
  for (const auto policy :
       {PolicyKind::kNone, PolicyKind::kPrediction, PolicyKind::kStaggered}) {
    ExperimentConfig cfg = tiny("sar", policy, false);
    cfg.telemetry.level = TraceLevel::kState;
    const ExperimentResult r = run_experiment(cfg);
    ASSERT_NE(r.telemetry, nullptr);
    double by_state = 0.0;
    for (const Joules j : r.telemetry->energy_by_state_j) by_state += j.value();
    const double scale = std::max(std::fabs(r.energy_j.value()), 1.0);
    EXPECT_LE(std::fabs(by_state - r.energy_j.value()), 1e-9 * scale);
    EXPECT_LE(std::fabs((r.telemetry->energy_total_j - r.energy_j).value()),
              1e-9 * scale);
  }
}

TEST(TelemetryRun, ResidencyTilesEveryDiskTimeline) {
  ExperimentConfig cfg = tiny("sar", PolicyKind::kPrediction, false);
  cfg.telemetry.level = TraceLevel::kState;
  const ExperimentResult r = run_experiment(cfg);
  ASSERT_NE(r.telemetry, nullptr);
  ASSERT_FALSE(r.telemetry->disks.empty());
  const SimTime end = r.telemetry->meta.end_time;
  EXPECT_GT(end, 0);
  for (const DiskTimeline& d : r.telemetry->disks) {
    SimTime covered = 0;
    for (const SimTime t : d.residency) covered += t;
    // Accrual events tile [0, end_time] with no gaps or overlaps.
    EXPECT_EQ(covered, end) << "disk " << d.node;
  }
}

TEST(TelemetryRun, ArtifactsRoundTripAndChromeJsonIsValid) {
  const ScopedTestDir tmp;
  const std::string dir = tmp.file("telemetry");

  ExperimentConfig cfg = tiny("sar", PolicyKind::kHistory, true);
  cfg.telemetry.level = TraceLevel::kFull;
  cfg.telemetry.dir = dir;
  const ExperimentResult r = run_experiment(cfg);
  ASSERT_NE(r.telemetry, nullptr);

  const auto loaded = load_trace(dir + "/trace.bin");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->events.size(), r.telemetry->trace_events);
  EXPECT_EQ(loaded->meta.app, "sar");
  EXPECT_EQ(loaded->meta.level, TraceLevel::kFull);

  for (const char* name : {"/summary.json", "/trace.json"}) {
    std::ifstream in(dir + name);
    ASSERT_TRUE(in.good()) << name;
    std::stringstream ss;
    ss << in.rdbuf();
    EXPECT_TRUE(json_balanced(ss.str())) << name;
    EXPECT_GT(ss.str().size(), 2u) << name;
  }
}

TEST(TelemetryRun, GridPlumbsTelemetryIntoCellsAndSinks) {
  ExperimentGrid grid;
  grid.base = tiny("sar", PolicyKind::kNone, false);
  grid.apps = {"sar"};
  grid.policies = {PolicyKind::kNone, PolicyKind::kPrediction};
  grid.schemes = {false};

  GridRunOptions opts;
  opts.threads = 1;
  opts.telemetry.level = TraceLevel::kState;
  const GridResultSet results = run_grid(grid, opts);
  ASSERT_EQ(results.size(), 2u);
  for (const GridCellResult& row : results.rows()) {
    ASSERT_NE(row.result.telemetry, nullptr);
    EXPECT_EQ(row.result.telemetry->meta.level, TraceLevel::kState);
  }

  std::ostringstream csv;
  write_telemetry_csv(csv, results);
  const std::string csv_text = csv.str();
  // Header plus one row per traced cell.
  EXPECT_EQ(std::count(csv_text.begin(), csv_text.end(), '\n'), 3);
  std::ostringstream jsonl;
  write_telemetry_jsonl(jsonl, results);
  const std::string jsonl_text = jsonl.str();
  EXPECT_EQ(std::count(jsonl_text.begin(), jsonl_text.end(), '\n'), 2);
  std::istringstream lines(jsonl_text);
  std::string line;
  while (std::getline(lines, line)) EXPECT_TRUE(json_balanced(line));
}

TEST(TelemetryRun, UntracedGridEmitsNoTelemetryRows) {
  ExperimentGrid grid;
  grid.base = tiny("sar", PolicyKind::kNone, false);
  grid.apps = {"sar"};
  grid.policies = {PolicyKind::kNone};
  grid.schemes = {false};
  GridRunOptions opts;
  opts.threads = 1;
  const GridResultSet results = run_grid(grid, opts);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results.rows()[0].result.telemetry, nullptr);
  std::ostringstream csv;
  write_telemetry_csv(csv, results);
  const std::string csv_text = csv.str();
  EXPECT_EQ(std::count(csv_text.begin(), csv_text.end(), '\n'), 1);  // header
}

}  // namespace
}  // namespace dasched
