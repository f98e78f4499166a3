#include "exp/harness.hpp"

#include <memory>

#include "util/number.hpp"

namespace rda::exp {

namespace {

const char* flag_value(int argc, char** argv, const std::string& key) {
  const char* value = nullptr;
  for (int i = 1; i + 1 < argc; ++i) {
    if (key == argv[i]) value = argv[i + 1];
  }
  return value;
}

}  // namespace

int parse_jobs(int argc, char** argv) {
  const char* value = flag_value(argc, argv, "--jobs");
  return value ? util::resolve_jobs(
                     util::parse_number_or_exit<int>("--jobs", value))
               : 1;
}

std::uint64_t parse_u64_flag(int argc, char** argv, const std::string& key,
                             std::uint64_t fallback) {
  const char* value = flag_value(argc, argv, key);
  return value ? util::parse_number_or_exit<std::uint64_t>(key, value)
               : fallback;
}

double parse_double_flag(int argc, char** argv, const std::string& key,
                         double fallback) {
  const char* value = flag_value(argc, argv, key);
  return value ? util::parse_number_or_exit<double>(key, value) : fallback;
}

std::string parse_string_flag(int argc, char** argv, const std::string& key,
                              const std::string& fallback) {
  const char* value = flag_value(argc, argv, key);
  return value ? std::string(value) : fallback;
}

bool has_flag(int argc, char** argv, const std::string& key) {
  for (int i = 1; i < argc; ++i) {
    if (key == argv[i]) return true;
  }
  return false;
}

RunRow run_workload(const workload::WorkloadSpec& spec,
                    const RunConfig& config) {
  sim::Engine engine(config.engine);

  core::RdaOptions options;
  if (config.rda_options.has_value()) {
    options = *config.rda_options;
  } else {
    options.policy = config.policy;
    options.oversubscription = config.oversubscription;
  }

  std::unique_ptr<core::RdaScheduler> gate;
  if (options.policy != core::PolicyKind::kLinuxDefault) {
    gate = std::make_unique<core::RdaScheduler>(
        static_cast<double>(config.engine.machine.llc_bytes),
        config.engine.calib, options);
    engine.set_gate(gate.get());
  }

  workload::populate_engine(engine, spec, [&](sim::ProcessId pid) {
    if (gate) gate->mark_pool(pid);
  });

  const sim::SimResult result = engine.run();

  RunRow row;
  row.workload = spec.name;
  row.policy = core::to_string(options.policy);
  row.system_joules = result.system_joules();
  row.dram_joules = result.dram_joules;
  row.gflops = result.gflops();
  row.gflops_per_watt = result.gflops_per_watt();
  row.makespan = result.makespan;
  row.total_flops = result.total_flops;
  row.gate_blocks = result.gate_blocks;
  row.context_switches = result.context_switches;
  row.migrations = result.migrations;
  return row;
}

const RunRow& PolicyComparison::best_rda_by_energy() const {
  return strict.system_joules <= compromise.system_joules ? strict
                                                          : compromise;
}

const RunRow& PolicyComparison::best_rda_by_gflops() const {
  return strict.gflops >= compromise.gflops ? strict : compromise;
}

namespace {

/// The paper's three-way policy sweep as a config list (matrix columns).
std::vector<RunConfig> three_policy_configs(
    const sim::EngineConfig& engine_config) {
  std::vector<RunConfig> configs(3);
  for (RunConfig& c : configs) c.engine = engine_config;
  configs[0].policy = core::PolicyKind::kLinuxDefault;
  configs[1].policy = core::PolicyKind::kStrict;
  configs[2].policy = core::PolicyKind::kCompromise;
  configs[2].oversubscription = 2.0;  // the paper's configured factor
  return configs;
}

}  // namespace

std::size_t failed_cells(const std::vector<RunRow>& rows) {
  std::size_t failed = 0;
  for (const RunRow& row : rows) {
    if (row.failed()) ++failed;
  }
  return failed;
}

std::vector<RunRow> run_matrix(const std::vector<workload::WorkloadSpec>& specs,
                               const std::vector<RunConfig>& configs,
                               int jobs) {
  std::vector<RunRow> rows(specs.size() * configs.size());
  run_cells(rows.size(), jobs, [&](std::size_t cell) {
    const std::size_t s = cell / configs.size();
    const std::size_t c = cell % configs.size();
    try {
      rows[cell] = run_workload(specs[s], configs[c]);
    } catch (const std::exception& e) {
      // Fault isolation: one exploding cell must not take down the matrix.
      // Only this cell's pre-allocated slot is touched, so jobs-parity holds
      // for error rows exactly as for metric rows.
      RunRow& row = rows[cell];
      row.workload = specs[s].name;
      row.policy = core::to_string(
          configs[c].rda_options.has_value() ? configs[c].rda_options->policy
                                             : configs[c].policy);
      row.error = e.what();
    }
  });
  return rows;
}

PolicyComparison compare_policies(const workload::WorkloadSpec& spec,
                                  const sim::EngineConfig& engine_config,
                                  int jobs) {
  const std::vector<RunRow> rows =
      run_matrix({spec}, three_policy_configs(engine_config), jobs);
  PolicyComparison cmp;
  cmp.baseline = rows[0];
  cmp.strict = rows[1];
  cmp.compromise = rows[2];
  return cmp;
}

std::vector<PolicyComparison> compare_policies_all(
    const std::vector<workload::WorkloadSpec>& specs,
    const sim::EngineConfig& engine_config, int jobs) {
  const std::vector<RunRow> rows =
      run_matrix(specs, three_policy_configs(engine_config), jobs);
  std::vector<PolicyComparison> out(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    out[i].baseline = rows[3 * i + 0];
    out[i].strict = rows[3 * i + 1];
    out[i].compromise = rows[3 * i + 2];
  }
  return out;
}

Headline summarize(const std::vector<PolicyComparison>& comparisons) {
  Headline h;
  if (comparisons.empty()) return h;
  double energy_sum = 0.0;
  double speedup_sum = 0.0;
  for (const PolicyComparison& cmp : comparisons) {
    const double drop = cmp.energy_drop(cmp.best_rda_by_energy());
    const double speedup = cmp.speedup(cmp.best_rda_by_gflops());
    energy_sum += drop;
    speedup_sum += speedup;
    h.max_energy_drop = std::max(h.max_energy_drop, drop);
    h.max_speedup = std::max(h.max_speedup, speedup);
  }
  h.avg_energy_drop = energy_sum / static_cast<double>(comparisons.size());
  h.avg_speedup = speedup_sum / static_cast<double>(comparisons.size());
  return h;
}

}  // namespace rda::exp
