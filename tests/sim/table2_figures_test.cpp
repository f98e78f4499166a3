// Pins the simulated Table-2 figures: the eight mixes under RDA:Strict,
// scaled by 0.125 with a quarter of the processes, through the same
// Engine + RdaScheduler + populate_engine sequence as exp::run_workload.
// A change that moves these numbers changes the model; a pure speed-up of
// the simulator must leave them exactly as recorded here.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/rda_scheduler.hpp"
#include "sim/engine.hpp"
#include "workload/table2.hpp"

namespace rda::sim {
namespace {

struct PinnedCell {
  const char* name;
  std::uint64_t sim_steps;
  std::uint64_t gate_blocks;
  std::uint64_t context_switches;
  double makespan;
  double total_flops;
  double package_joules;
  double dram_joules;
};

constexpr PinnedCell kPinned[] = {
    {"BLAS-1", 3996, 0, 3648, 1.843601163377568, 4499999999.9993162,
     154.86249772373208, 15.666343885120021},
    {"BLAS-2", 2105, 0, 1896, 0.97105255128905621, 11999999999.998863,
     81.568414308287615, 8.2516516850934885},
    {"BLAS-3", 4576, 18, 30, 1.9979634844088083, 51000000000.002007,
     96.463150769160592, 9.1650839770065442},
    {"Water_sp", 21092, 0, 3, 9.8224355550429916, 23999999999.999695,
     518.62454192437133, 83.490039999869623},
    {"Water_nsq", 8204, 14, 11, 3.3970211682423468, 40499999999.999138,
     169.27523562418111, 25.572549787206938},
    {"Ocean_cp", 40386, 88, 15829, 8.4120382982146307, 90000000000.001846,
     693.6329754602591, 70.821446011166927},
    {"Raytrace", 8184, 94, 134, 3.8494761359846317, 39599999999.994591,
     210.04374844248318, 29.04630621995301},
    {"Volrend", 9848, 88, 4260, 2.2813797618981311, 39599999999.997383,
     187.14586124713895, 19.108937200265977},
};

SimResult run_strict(const workload::WorkloadSpec& spec) {
  const EngineConfig config{};
  Engine engine(config);
  core::RdaOptions options;
  options.policy = core::PolicyKind::kStrict;
  core::RdaScheduler gate(static_cast<double>(config.machine.llc_bytes),
                          config.calib, options);
  engine.set_gate(&gate);
  workload::populate_engine(engine, spec,
                            [&](ProcessId pid) { gate.mark_pool(pid); });
  return engine.run();
}

void expect_rel(double got, double want, const std::string& what) {
  EXPECT_NEAR(got, want, 1e-12 * want) << what;
}

TEST(Table2Figures, StrictScaledMixesMatchRecordedFigures) {
  const std::vector<workload::WorkloadSpec> specs = workload::table2_workloads();
  ASSERT_EQ(specs.size(), std::size(kPinned));
  std::uint64_t steps = 0, blocks = 0, switches = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const PinnedCell& pin = kPinned[i];
    ASSERT_EQ(specs[i].name, pin.name);
    const SimResult r = run_strict(workload::scale_workload(specs[i], 0.125, 4));
    EXPECT_EQ(r.sim_steps, pin.sim_steps) << pin.name;
    EXPECT_EQ(r.gate_blocks, pin.gate_blocks) << pin.name;
    EXPECT_EQ(r.context_switches, pin.context_switches) << pin.name;
    expect_rel(r.makespan, pin.makespan, std::string(pin.name) + " makespan");
    expect_rel(r.total_flops, pin.total_flops, std::string(pin.name) + " flops");
    expect_rel(r.package_joules, pin.package_joules,
               std::string(pin.name) + " package J");
    expect_rel(r.dram_joules, pin.dram_joules, std::string(pin.name) + " DRAM J");
    steps += r.sim_steps;
    blocks += r.gate_blocks;
    switches += r.context_switches;
  }
  // The totals the repository benchmark's traced sim_table2 run reports.
  EXPECT_EQ(steps, 98391u);
  EXPECT_EQ(blocks, 302u);
  EXPECT_EQ(switches, 25811u);
}

}  // namespace
}  // namespace rda::sim
