// End-to-end audited experiments: the full invariant catalog must stay
// silent across every power policy, with and without the scheme.
#include <gtest/gtest.h>

#include <string>

#include "audit_report.h"
#include "driver/experiment.h"

namespace dasched {
namespace {

ExperimentConfig tiny(PolicyKind policy, bool scheme) {
  ExperimentConfig cfg;
  cfg.app = "sar";
  cfg.scale.num_processes = 4;
  cfg.scale.factor = 0.1;
  cfg.policy = policy;
  cfg.use_scheme = scheme;
  return cfg;
}

class AuditedRun : public ::testing::TestWithParam<std::tuple<PolicyKind, bool>> {};

TEST_P(AuditedRun, RunsCleanUnderTheFullCatalog) {
  const auto [policy, scheme] = GetParam();
  ExperimentConfig cfg = tiny(policy, scheme);
  cfg.audit = true;  // a violation would throw its report
  const ExperimentResult r = run_experiment(cfg);
  EXPECT_TRUE(r.audited);
  EXPECT_EQ(r.audit_violations, 0) << r.audit_report;
  // Four runtime checks plus the one lane's schedule check, all clean.
  EXPECT_GT(clean_audit_evaluations(r.audit_report, 5), 0) << r.audit_report;
  EXPECT_GT(r.energy_j.value(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, AuditedRun,
    ::testing::Combine(::testing::Values(PolicyKind::kNone, PolicyKind::kSimple,
                                         PolicyKind::kPrediction,
                                         PolicyKind::kHistory,
                                         PolicyKind::kStaggered),
                       ::testing::Bool()),
    [](const testing::TestParamInfo<std::tuple<PolicyKind, bool>>& info) {
      return std::string(to_string(std::get<0>(info.param))) +
             (std::get<1>(info.param) ? "_scheme" : "_base");
    });

TEST(AuditedRun, InternalAuditorFlagPopulatesResult) {
  ExperimentConfig cfg = tiny(PolicyKind::kSimple, true);
  cfg.audit = true;  // internal auditor: throws on any violation
  const ExperimentResult r = run_experiment(cfg);
  EXPECT_TRUE(r.audited);
  EXPECT_EQ(r.audit_violations, 0);
}

TEST(AuditedRun, UnauditedRunReportsUnaudited) {
  ExperimentConfig cfg = tiny(PolicyKind::kNone, false);
  cfg.audit = false;
  const ExperimentResult r = run_experiment(cfg);
  EXPECT_FALSE(r.audited);
  EXPECT_EQ(r.audit_violations, 0);
  EXPECT_TRUE(r.audit_report.empty()) << r.audit_report;
}

TEST(AuditReport, ReadsOnlyTheAllClearLine) {
  const std::string clean =
      "audit: 1234 invariant evaluations across 5 checks, no violations\n";
  EXPECT_EQ(clean_audit_evaluations(clean, 5), 1234);
  EXPECT_EQ(clean_audit_evaluations(clean, 6), -1);
  EXPECT_EQ(clean_audit_evaluations("", 5), -1);
  EXPECT_EQ(clean_audit_evaluations(
                "audit: -3 invariant evaluations across 5 checks, no "
                "violations\n",
                5),
            -1);
  EXPECT_EQ(clean_audit_evaluations(
                "audit: invariant evaluations across 5 checks, no "
                "violations\n",
                5),
            -1);
  EXPECT_EQ(clean_audit_evaluations(
                "audit: 12x invariant evaluations across 5 checks, no "
                "violations\n",
                5),
            -1);
  EXPECT_EQ(clean_audit_evaluations(clean.substr(0, clean.size() - 1), 5),
            -1);
}

}  // namespace
}  // namespace dasched
