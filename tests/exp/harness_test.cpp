#include "exp/harness.hpp"

#include <gtest/gtest.h>

namespace rda::exp {
namespace {

workload::WorkloadSpec tiny(const char* name) {
  const auto specs = workload::table2_workloads();
  return workload::scale_workload(workload::find_workload(specs, name),
                                  0.05, 8);
}

TEST(Harness, RunRowCarriesAllMetrics) {
  RunConfig cfg;
  cfg.engine.machine = sim::MachineConfig::e5_2420();
  cfg.policy = core::PolicyKind::kStrict;
  const RunRow row = run_workload(tiny("BLAS-3"), cfg);
  EXPECT_EQ(row.workload, "BLAS-3");
  EXPECT_EQ(row.policy, "RDA:Strict");
  EXPECT_GT(row.system_joules, 0.0);
  EXPECT_GT(row.dram_joules, 0.0);
  EXPECT_LT(row.dram_joules, row.system_joules);
  EXPECT_GT(row.gflops, 0.0);
  EXPECT_GT(row.gflops_per_watt, 0.0);
  EXPECT_GT(row.makespan, 0.0);
  EXPECT_GT(row.total_flops, 0.0);
  // Cross-metric consistency.
  EXPECT_NEAR(row.gflops, row.total_flops / row.makespan / 1e9,
              1e-9 * row.gflops);
  EXPECT_NEAR(row.gflops_per_watt, row.total_flops / row.system_joules / 1e9,
              1e-9 * row.gflops_per_watt);
}

TEST(Harness, BaselineNeverBlocks) {
  RunConfig cfg;
  cfg.engine.machine = sim::MachineConfig::e5_2420();
  cfg.policy = core::PolicyKind::kLinuxDefault;
  const RunRow row = run_workload(tiny("Water_nsq"), cfg);
  EXPECT_EQ(row.gate_blocks, 0u);
}

TEST(Harness, ComparisonSelectorsPickExtremes) {
  PolicyComparison cmp;
  cmp.baseline.gflops = 10.0;
  cmp.baseline.system_joules = 1000.0;
  cmp.baseline.gflops_per_watt = 0.1;
  cmp.strict.gflops = 20.0;
  cmp.strict.system_joules = 400.0;
  cmp.compromise.gflops = 15.0;
  cmp.compromise.system_joules = 700.0;
  EXPECT_EQ(&cmp.best_rda_by_energy(), &cmp.strict);
  EXPECT_EQ(&cmp.best_rda_by_gflops(), &cmp.strict);
  EXPECT_DOUBLE_EQ(cmp.speedup(cmp.strict), 2.0);
  EXPECT_DOUBLE_EQ(cmp.energy_drop(cmp.strict), 0.6);
  cmp.compromise.system_joules = 300.0;
  EXPECT_EQ(&cmp.best_rda_by_energy(), &cmp.compromise);
}

TEST(Harness, ComparisonHandlesZeroBaseline) {
  PolicyComparison cmp;  // all zeros
  EXPECT_DOUBLE_EQ(cmp.speedup(cmp.strict), 0.0);
  EXPECT_DOUBLE_EQ(cmp.energy_drop(cmp.strict), 0.0);
  EXPECT_DOUBLE_EQ(cmp.efficiency_gain(cmp.strict), 0.0);
}

TEST(Harness, SummarizeEmptyIsZero) {
  const Headline h = summarize({});
  EXPECT_DOUBLE_EQ(h.max_speedup, 0.0);
  EXPECT_DOUBLE_EQ(h.avg_energy_drop, 0.0);
}

TEST(Harness, SummarizeAveragesAndMaxes) {
  PolicyComparison a;
  a.baseline.gflops = 10.0;
  a.baseline.system_joules = 100.0;
  a.strict.gflops = 20.0;           // 2.0x
  a.strict.system_joules = 50.0;    // -50%
  a.compromise = a.strict;
  PolicyComparison b;
  b.baseline.gflops = 10.0;
  b.baseline.system_joules = 100.0;
  b.strict.gflops = 10.0;           // 1.0x
  b.strict.system_joules = 100.0;   // 0%
  b.compromise = b.strict;
  const Headline h = summarize({a, b});
  EXPECT_DOUBLE_EQ(h.max_speedup, 2.0);
  EXPECT_DOUBLE_EQ(h.avg_speedup, 1.5);
  EXPECT_DOUBLE_EQ(h.max_energy_drop, 0.5);
  EXPECT_DOUBLE_EQ(h.avg_energy_drop, 0.25);
}

TEST(Harness, ParseJobsFlag) {
  const char* none[] = {"prog"};
  EXPECT_EQ(parse_jobs(1, const_cast<char**>(none)), 1);
  const char* four[] = {"prog", "--quick", "--jobs", "4"};
  EXPECT_EQ(parse_jobs(4, const_cast<char**>(four)), 4);
  // 0 means "one per hardware thread", floored at 1.
  const char* zero[] = {"prog", "--jobs", "0"};
  EXPECT_GE(parse_jobs(3, const_cast<char**>(zero)), 1);
  // Trailing --jobs with no value is ignored.
  const char* dangling[] = {"prog", "--jobs"};
  EXPECT_EQ(parse_jobs(2, const_cast<char**>(dangling)), 1);
  // Negative means one per hardware thread too.
  const char* negative[] = {"prog", "--jobs", "-1"};
  EXPECT_GE(parse_jobs(3, const_cast<char**>(negative)), 1);
}

TEST(Harness, NumericFlagsParseWholeValues) {
  const char* argv[] = {"prog", "--arrivals", "8000", "--oversub", "1.5"};
  char** args = const_cast<char**>(argv);
  EXPECT_EQ(parse_u64_flag(5, args, "--arrivals", 0), 8000u);
  EXPECT_EQ(parse_double_flag(5, args, "--oversub", 2.0), 1.5);
  EXPECT_EQ(parse_u64_flag(5, args, "--seeds", 3), 3u);  // absent
}

// Every numeric flag takes its whole value or stops the binary with a usage
// error: reading only a valid prefix would turn "abc" into 0 and "-5" into
// 2^64 - 5 without a word.
TEST(HarnessDeathTest, NonNumberExitsWithUsageError) {
  const char* argv[] = {"prog", "--oversub", "abc"};
  EXPECT_EXIT(parse_double_flag(3, const_cast<char**>(argv), "--oversub", 2.0),
              ::testing::ExitedWithCode(2),
              "error: --oversub expects a number, got 'abc'");
  const char* jobs[] = {"prog", "--jobs", "abc"};
  EXPECT_EXIT(parse_jobs(3, const_cast<char**>(jobs)),
              ::testing::ExitedWithCode(2),
              "error: --jobs expects a number, got 'abc'");
}

TEST(HarnessDeathTest, TrailingJunkExitsWithUsageError) {
  const char* argv[] = {"prog", "--arrivals", "800x", "--oversub", "1.5e"};
  char** args = const_cast<char**>(argv);
  EXPECT_EXIT(parse_u64_flag(5, args, "--arrivals", 0),
              ::testing::ExitedWithCode(2),
              "error: --arrivals expects a number, got '800x'");
  EXPECT_EXIT(parse_double_flag(5, args, "--oversub", 2.0),
              ::testing::ExitedWithCode(2),
              "error: --oversub expects a number, got '1.5e'");
}

TEST(HarnessDeathTest, NegativeU64ExitsWithUsageError) {
  const char* argv[] = {"prog", "--arrivals", "-5"};
  EXPECT_EXIT(parse_u64_flag(3, const_cast<char**>(argv), "--arrivals", 0),
              ::testing::ExitedWithCode(2),
              "error: --arrivals expects a number, got '-5'");
}

TEST(Harness, RunMatrixIsRowMajorAndMatchesSingleRuns) {
  const std::vector<workload::WorkloadSpec> specs = {tiny("BLAS-3"),
                                                     tiny("Water_nsq")};
  std::vector<RunConfig> configs(2);
  for (RunConfig& c : configs) c.engine.machine = sim::MachineConfig::e5_2420();
  configs[0].policy = core::PolicyKind::kLinuxDefault;
  configs[1].policy = core::PolicyKind::kStrict;

  const std::vector<RunRow> rows = run_matrix(specs, configs, 2);
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0].workload, "BLAS-3");
  EXPECT_EQ(rows[0].policy, "Linux default");
  EXPECT_EQ(rows[1].workload, "BLAS-3");
  EXPECT_EQ(rows[1].policy, "RDA:Strict");
  EXPECT_EQ(rows[2].workload, "Water_nsq");
  EXPECT_EQ(rows[3].workload, "Water_nsq");

  // Each cell equals the standalone run bit for bit: cells are isolated.
  for (std::size_t s = 0; s < specs.size(); ++s) {
    for (std::size_t c = 0; c < configs.size(); ++c) {
      const RunRow solo = run_workload(specs[s], configs[c]);
      const RunRow& cell = rows[s * configs.size() + c];
      EXPECT_EQ(cell.system_joules, solo.system_joules);
      EXPECT_EQ(cell.makespan, solo.makespan);
      EXPECT_EQ(cell.gflops, solo.gflops);
      EXPECT_EQ(cell.gate_blocks, solo.gate_blocks);
      EXPECT_EQ(cell.context_switches, solo.context_switches);
    }
  }
}

TEST(Harness, ComparePoliciesAllMatchesIndividualComparisons) {
  const std::vector<workload::WorkloadSpec> specs = {tiny("BLAS-3"),
                                                     tiny("Raytrace")};
  sim::EngineConfig engine;
  engine.machine = sim::MachineConfig::e5_2420();
  const std::vector<PolicyComparison> all =
      compare_policies_all(specs, engine, 3);
  ASSERT_EQ(all.size(), 2u);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const PolicyComparison solo = compare_policies(specs[i], engine);
    EXPECT_EQ(all[i].baseline.system_joules, solo.baseline.system_joules);
    EXPECT_EQ(all[i].strict.makespan, solo.strict.makespan);
    EXPECT_EQ(all[i].compromise.gflops, solo.compromise.gflops);
  }
}

TEST(Harness, RdaOptionsOverrideWinsOverPolicyFields) {
  RunConfig cfg;
  cfg.engine.machine = sim::MachineConfig::e5_2420();
  cfg.policy = core::PolicyKind::kLinuxDefault;  // ignored:
  core::RdaOptions options;
  options.policy = core::PolicyKind::kStrict;
  cfg.rda_options = options;
  const RunRow row = run_workload(tiny("BLAS-3"), cfg);
  EXPECT_EQ(row.policy, "RDA:Strict");
  EXPECT_GT(row.gate_blocks, 0u);  // the gate was actually attached
}

TEST(Harness, ScaledWorkloadPreservesStructure) {
  const auto specs = workload::table2_workloads();
  const auto& full = workload::find_workload(specs, "Water_nsq");
  const auto scaled = workload::scale_workload(full, 0.5, 3);
  EXPECT_EQ(scaled.processes, 4);  // 12 / 3
  EXPECT_EQ(scaled.threads_per_process, full.threads_per_process);
  const auto fp = full.program(0, 0);
  const auto sp = scaled.program(0, 0);
  ASSERT_EQ(fp.phases.size(), sp.phases.size());
  for (std::size_t i = 0; i < fp.phases.size(); ++i) {
    EXPECT_NEAR(sp.phases[i].flops, 0.5 * fp.phases[i].flops, 1.0);
    EXPECT_EQ(sp.phases[i].wss_bytes, fp.phases[i].wss_bytes);
    EXPECT_EQ(sp.phases[i].marked, fp.phases[i].marked);
  }
}

}  // namespace
}  // namespace rda::exp
