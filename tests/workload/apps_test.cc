#include "workload/app.h"

#include <gtest/gtest.h>

#include "storage/striping.h"

namespace dasched {
namespace {

WorkloadScale tiny_scale() {
  WorkloadScale s;
  s.num_processes = 4;
  s.factor = 0.1;
  return s;
}

/// Op count and read/write bytes over a program's slot plans.
struct Totals {
  std::int64_t ops = 0;
  Bytes read_bytes = 0;
  Bytes write_bytes = 0;
};

Totals totals(const CompiledProgram& cp) {
  Totals t;
  for (const ProcessPlan& proc : *cp.plan) {
    for (Slot s = 0; s < proc.num_slots(); ++s) {
      for (const IoOp& op : proc.ops(s)) {
        ++t.ops;
        (op.is_write ? t.write_bytes : t.read_bytes) += op.size;
      }
    }
  }
  return t;
}

TEST(Apps, RegistryHasTheSixPaperApplications) {
  const auto& apps = all_apps();
  ASSERT_EQ(apps.size(), 6u);
  EXPECT_EQ(apps[0].name, "hf");
  EXPECT_EQ(apps[1].name, "sar");
  EXPECT_EQ(apps[2].name, "astro");
  EXPECT_EQ(apps[3].name, "apsi");
  EXPECT_EQ(apps[4].name, "madbench2");
  EXPECT_EQ(apps[5].name, "wupwise");
}

TEST(Apps, TableIIIReferenceValues) {
  EXPECT_DOUBLE_EQ(app_by_name("hf").paper_exec_minutes, 27.9);
  EXPECT_DOUBLE_EQ(app_by_name("hf").paper_energy_joules, 3'637.4);
  EXPECT_DOUBLE_EQ(app_by_name("wupwise").paper_exec_minutes, 39.8);
  EXPECT_DOUBLE_EQ(app_by_name("madbench2").paper_energy_joules, 1'955.3);
}

TEST(Apps, UnknownNameThrows) {
  EXPECT_THROW((void)app_by_name("nosuchapp"), std::out_of_range);
}

TEST(Apps, OnlyMadbenchUsesProfilingFrontEnd) {
  for (const App& app : all_apps()) {
    EXPECT_EQ(app.uses_profiling, app.name == "madbench2") << app.name;
  }
}

class AppBuildTest : public ::testing::TestWithParam<std::string> {};

TEST_P(AppBuildTest, BuildsAtTinyScale) {
  StripingMap striping(8, kib(64));
  const App& app = app_by_name(GetParam());
  const CompiledProgram cp = app.build(striping, tiny_scale());
  EXPECT_EQ(cp.num_processes(), 4);
  EXPECT_GT(cp.num_slots, 0);
  const Totals t = totals(cp);
  EXPECT_GT(t.ops, 0);
  EXPECT_GT(t.read_bytes, 0);  // has reads
}

TEST_P(AppBuildTest, AllAccessesStayInsideTheirFiles) {
  StripingMap striping(8, kib(64));
  const App& app = app_by_name(GetParam());
  const CompiledProgram cp = app.build(striping, tiny_scale());
  for (const ProcessPlan& proc : *cp.plan) {
    for (Slot s = 0; s < proc.num_slots(); ++s) {
      for (const IoOp& op : proc.ops(s)) {
        ASSERT_GE(op.offset, 0);
        ASSERT_GT(op.size, 0);
        ASSERT_LE(op.offset + op.size, striping.file_size(op.file))
            << app.name << " op beyond file end";
      }
    }
  }
}

TEST_P(AppBuildTest, DeterministicAcrossBuilds) {
  const App& app = app_by_name(GetParam());
  StripingMap s1(8, kib(64));
  StripingMap s2(8, kib(64));
  const CompiledProgram a = app.build(s1, tiny_scale());
  const CompiledProgram b = app.build(s2, tiny_scale());
  ASSERT_EQ(a.num_slots, b.num_slots);
  const Totals ta = totals(a);
  const Totals tb = totals(b);
  ASSERT_EQ(ta.ops, tb.ops);
  EXPECT_EQ(a.num_reads, b.num_reads);
  EXPECT_EQ(ta.read_bytes, tb.read_bytes);
  EXPECT_EQ(ta.write_bytes, tb.write_bytes);
}

TEST_P(AppBuildTest, HasPhaseStructure) {
  // Every app needs at least one long compute-only slot (a phase) — that is
  // where the power policies find their savings.
  StripingMap striping(8, kib(64));
  const App& app = app_by_name(GetParam());
  const CompiledProgram cp = app.build(striping, tiny_scale());
  bool found_phase = false;
  const ProcessPlan& plan = cp.process(0);
  for (Slot s = 0; s < plan.num_slots(); ++s) {
    if (plan.ops(s).empty() && plan.compute(s) >= sec(10.0)) found_phase = true;
  }
  EXPECT_TRUE(found_phase) << app.name;
}

INSTANTIATE_TEST_SUITE_P(AllApps, AppBuildTest,
                         ::testing::Values("hf", "sar", "astro", "apsi",
                                           "madbench2", "wupwise"));

TEST(WorkloadScale, ScaledRespectsMinimum) {
  WorkloadScale s;
  s.factor = 0.001;
  EXPECT_EQ(s.scaled(100), 2);
  EXPECT_EQ(s.scaled(100, 5), 5);
  s.factor = 2.0;
  EXPECT_EQ(s.scaled(100), 200);
}

}  // namespace
}  // namespace dasched
