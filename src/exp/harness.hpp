// Experiment harness: runs a Table-2 workload under a scheduling policy and
// reports the paper's four metrics (Figs. 7–10). Shared by every bench
// binary and the integration tests.
//
// Experiment cells — one (workload, config) simulation each — are completely
// independent: every cell builds its own Engine and RdaScheduler, so a
// matrix of cells can fan out across the util::parallel_run pool. Results
// land in pre-allocated slots consumed in cell-index order, which makes the
// output bit-identical for any --jobs value (see DESIGN.md §11).
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/predicate.hpp"
#include "core/rda_scheduler.hpp"
#include "sim/engine.hpp"
#include "util/parallel.hpp"
#include "workload/table2.hpp"

namespace rda::exp {

struct RunConfig {
  sim::EngineConfig engine{};
  core::PolicyKind policy = core::PolicyKind::kLinuxDefault;
  double oversubscription = 2.0;  ///< paper's x for RDA:Compromise
  /// Full scheduler-options override for ablations: when set, the two
  /// fields above are ignored and these options are used verbatim (a gate is
  /// still only attached when options.policy != kLinuxDefault).
  std::optional<core::RdaOptions> rda_options;
};

/// One row of a Fig. 7–10 style table.
struct RunRow {
  std::string workload;
  std::string policy;
  double system_joules = 0.0;
  double dram_joules = 0.0;
  double gflops = 0.0;
  double gflops_per_watt = 0.0;
  double makespan = 0.0;
  double total_flops = 0.0;
  std::uint64_t gate_blocks = 0;
  std::uint64_t context_switches = 0;
  std::uint64_t migrations = 0;
  /// Non-empty: this cell's simulation threw instead of producing metrics
  /// (the message is the exception text). The metric fields stay zeroed.
  std::string error;

  bool failed() const { return !error.empty(); }
};

/// Rows whose cell failed (fault isolation in run_matrix).
std::size_t failed_cells(const std::vector<RunRow>& rows);

/// Simulates `spec` under `config` and collects the metrics row.
RunRow run_workload(const workload::WorkloadSpec& spec,
                    const RunConfig& config);

/// Parses a `--jobs N` flag out of argv (N == 0 or negative means one job
/// per hardware thread). Returns 1 when the flag is absent — experiment
/// binaries stay serial unless parallelism is requested. A value that is
/// not an integer exits with status 2, like the parsers below.
int parse_jobs(int argc, char** argv);

/// `--key value` flag parsers shared by the bench/tool binaries (every
/// binary used to hand-roll the same argv scan). The last occurrence wins;
/// `fallback` is returned when the flag is absent or has no value. A value
/// that is not a number of the flag's type (see util::parse_number_or_exit)
/// prints an error and exits with status 2.
std::uint64_t parse_u64_flag(int argc, char** argv, const std::string& key,
                             std::uint64_t fallback);
double parse_double_flag(int argc, char** argv, const std::string& key,
                         double fallback);
std::string parse_string_flag(int argc, char** argv, const std::string& key,
                              const std::string& fallback);
/// True when the bare flag (no value) appears anywhere in argv.
bool has_flag(int argc, char** argv, const std::string& key);

/// Runs `fn(0) .. fn(count - 1)` on up to `jobs` threads. Each invocation
/// must touch only its own state/result slot; the caller reads results in
/// index order afterwards, so output is independent of `jobs`.
template <typename Fn>
void run_cells(std::size_t count, int jobs, Fn&& fn) {
  std::vector<std::function<void()>> tasks;
  tasks.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    tasks.push_back([i, &fn] { fn(i); });
  }
  util::parallel_run(tasks, jobs);
}

/// Cross product of workloads x configs, one simulation per cell, fanned
/// across `jobs` threads. Rows come back row-major (all configs of spec 0,
/// then spec 1, ...) and are bit-identical for any `jobs` value.
///
/// Fault-isolating: a cell whose simulation throws records the exception
/// text in its pre-allocated row's `error` field (workload/policy still
/// filled) and the rest of the matrix completes normally. RDA_CHECK
/// messages are deterministic, so error rows keep the jobs-parity property.
std::vector<RunRow> run_matrix(const std::vector<workload::WorkloadSpec>& specs,
                               const std::vector<RunConfig>& configs,
                               int jobs = 1);

/// The paper's three-way comparison for one workload.
struct PolicyComparison {
  RunRow baseline;    ///< Linux default
  RunRow strict;      ///< RDA:Strict
  RunRow compromise;  ///< RDA:Compromise(x=2)

  /// Best RDA configuration by a metric (the paper quotes per-workload
  /// bests for its headline numbers).
  const RunRow& best_rda_by_energy() const;
  const RunRow& best_rda_by_gflops() const;

  double speedup(const RunRow& rda) const {
    return baseline.gflops > 0.0 ? rda.gflops / baseline.gflops : 0.0;
  }
  /// Fractional system-energy decrease vs the Linux baseline (0.48 = −48%).
  double energy_drop(const RunRow& rda) const {
    return baseline.system_joules > 0.0
               ? 1.0 - rda.system_joules / baseline.system_joules
               : 0.0;
  }
  double efficiency_gain(const RunRow& rda) const {
    return baseline.gflops_per_watt > 0.0
               ? rda.gflops_per_watt / baseline.gflops_per_watt
               : 0.0;
  }
};

/// Runs one workload under all three policies on identical engine config;
/// `jobs > 1` fans the three runs out in parallel.
PolicyComparison compare_policies(const workload::WorkloadSpec& spec,
                                  const sim::EngineConfig& engine_config,
                                  int jobs = 1);

/// compare_policies over a whole workload list: all specs x 3 policies fan
/// out as one flat cell matrix. Result order matches `specs`.
std::vector<PolicyComparison> compare_policies_all(
    const std::vector<workload::WorkloadSpec>& specs,
    const sim::EngineConfig& engine_config, int jobs = 1);

/// The paper's §4.2 headline aggregation over all workloads, taking each
/// workload's best RDA configuration.
struct Headline {
  double max_energy_drop = 0.0;  ///< paper: 48% (water_nsquared, Strict)
  double avg_energy_drop = 0.0;  ///< paper: 12%
  double max_speedup = 0.0;      ///< paper: 1.88x (Raytrace)
  double avg_speedup = 0.0;      ///< paper: 1.16x
};

Headline summarize(const std::vector<PolicyComparison>& comparisons);

}  // namespace rda::exp
