// power_cap — multi-resource admission exhibit: the energy budget as a real
// gated resource, validated against the Fig. 10 energy machinery.
//
//   power_cap [--quick] [--csv] [--jobs N] [--out BENCH_power.json]
//
// Two cells and their controls, all deterministic simulations:
//
//   * Power cap: 12 compute periods each declaring ~one core's dynamic
//     power (5.2 W) on the 12-core e5_2420 under a 21 W dynamic budget.
//     The gate must hold measured dynamic power (system energy minus the
//     machine's idle floor, over the makespan) within 5% of the cap, while
//     the ungated control proves the cap actually binds (it draws ~3x).
//   * Mixed workload: 6 LLC-heavy + 6 streaming periods. LLC-only
//     admission (the paper's predicate) sees the streams' tiny working
//     sets and co-schedules all of them; multi-resource admission also
//     sees their DRAM appetite and keeps the memory system at its limit
//     instead of past it — surplus cores idle, same work, less energy, so
//     GFLOPS/W must improve by at least 5%.
//
// Emits BENCH_power.json and exits non-zero when either acceptance gate
// fails. --csv prints the four cells as fixed-precision rows (tier1.sh
// compares them byte-for-byte across --jobs values).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "core/rda_scheduler.hpp"
#include "exp/harness.hpp"
#include "sim/engine.hpp"
#include "util/atomic_file.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace {

using namespace rda;
using rda::util::MB;

/// Dynamic power budget for the cap cell: admits four 5.2 W periods
/// (20.8 W); a fifth would overflow to 26 W.
constexpr double kCapWatts = 21.0;
/// One core's active-minus-idle power under the default calibration —
/// what a compute-bound period actually adds to the package plane.
constexpr double kCoreDynamicWatts = 5.2;

struct Outcome {
  double gflops = 0.0;
  double gflops_per_watt = 0.0;
  double system_joules = 0.0;
  double makespan = 0.0;
  double total_flops = 0.0;
  double dynamic_watts = 0.0;
  std::uint64_t blocks = 0;
};

/// Power the machine burns with every core idle (core idle plane + uncore +
/// DRAM static): the floor the energy cap cannot touch. The gate budgets
/// the *dynamic* power on top of it.
double idle_floor_watts(const sim::EngineConfig& cfg) {
  return static_cast<double>(cfg.machine.cores) * cfg.calib.core_idle_power +
         cfg.calib.uncore_power + cfg.calib.dram_static_power;
}

Outcome collect(const sim::EngineConfig& cfg, sim::Engine& engine) {
  const sim::SimResult result = engine.run();
  Outcome o;
  o.gflops = result.gflops();
  o.gflops_per_watt = result.gflops_per_watt();
  o.system_joules = result.system_joules();
  o.makespan = result.makespan;
  o.total_flops = result.total_flops;
  o.blocks = result.gate_blocks;
  if (result.makespan > 0.0) {
    o.dynamic_watts = result.system_joules() / result.makespan -
                      idle_floor_watts(cfg);
  }
  return o;
}

/// 12 compute-bound periods (1 MB working sets: the LLC never blocks), each
/// declaring one core's dynamic power. Only the energy row can gate.
Outcome run_power_cell(bool capped, double flops) {
  sim::EngineConfig cfg;
  cfg.machine = sim::MachineConfig::e5_2420();
  sim::Engine engine(cfg);

  core::RdaOptions options;
  options.policy = core::PolicyKind::kStrict;
  options.energy_capacity_watts = capped ? kCapWatts : 0.0;
  core::RdaScheduler gate(static_cast<double>(cfg.machine.llc_bytes),
                          cfg.calib, options);
  engine.set_gate(&gate);

  for (int i = 0; i < 12; ++i) {
    engine.add_thread(engine.create_process(),
                      sim::ProgramBuilder()
                          .period("compute", flops, MB(1), ReuseLevel::kHigh)
                          .watts(kCoreDynamicWatts)
                          .build());
  }
  return collect(cfg, engine);
}

/// 6 LLC-heavy periods (4 MB hot sets) + 6 streams (0.6 MB sets, 10 GB/s
/// appetite each against the 30 GB/s memory system). LLC-only admission
/// co-schedules every stream; multi-resource admission holds streams to the
/// machine's bandwidth.
Outcome run_mixed_cell(bool multi_resource, double flops) {
  sim::EngineConfig cfg;
  cfg.machine = sim::MachineConfig::e5_2420();
  sim::Engine engine(cfg);

  core::RdaOptions options;
  options.policy = core::PolicyKind::kStrict;
  options.bandwidth_capacity =
      multi_resource ? cfg.machine.dram_bandwidth : 0.0;
  core::RdaScheduler gate(static_cast<double>(cfg.machine.llc_bytes),
                          cfg.calib, options);
  engine.set_gate(&gate);

  for (int i = 0; i < 6; ++i) {
    engine.add_thread(engine.create_process(),
                      sim::ProgramBuilder()
                          .period("llc", 1.5 * flops, MB(4), ReuseLevel::kHigh)
                          .build());
  }
  for (int i = 0; i < 6; ++i) {
    engine.add_thread(engine.create_process(),
                      sim::ProgramBuilder()
                          .period_bw("stream", flops, MB(0.6),
                                     ReuseLevel::kLow, 10e9)
                          .build());
  }
  return collect(cfg, engine);
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = exp::has_flag(argc, argv, "--quick");
  const bool csv = exp::has_flag(argc, argv, "--csv");
  const int jobs = exp::parse_jobs(argc, argv);
  const std::string out_path =
      exp::parse_string_flag(argc, argv, "--out", "BENCH_power.json");
  const double flops = quick ? 2e8 : 1e9;

  // Cells 0/1: power cap on/off. Cells 2/3: mixed multi-resource/LLC-only.
  std::vector<Outcome> cells(4);
  exp::run_cells(cells.size(), jobs, [&](std::size_t cell) {
    switch (cell) {
      case 0: cells[0] = run_power_cell(/*capped=*/true, flops); break;
      case 1: cells[1] = run_power_cell(/*capped=*/false, flops); break;
      case 2: cells[2] = run_mixed_cell(/*multi_resource=*/true, flops); break;
      case 3: cells[3] = run_mixed_cell(/*multi_resource=*/false, flops); break;
    }
  });
  const Outcome& capped = cells[0];
  const Outcome& uncapped = cells[1];
  const Outcome& multi = cells[2];
  const Outcome& llc_only = cells[3];

  if (csv) {
    std::printf("cell,dynamic_watts,gflops,gflops_per_watt,system_joules,"
                "makespan,blocks\n");
    const char* names[] = {"cap_on", "cap_off", "mixed_multi", "mixed_llc"};
    for (std::size_t i = 0; i < cells.size(); ++i) {
      std::printf("%s,%.4f,%.4f,%.4f,%.4f,%.6f,%llu\n", names[i],
                  cells[i].dynamic_watts, cells[i].gflops,
                  cells[i].gflops_per_watt, cells[i].system_joules,
                  cells[i].makespan,
                  static_cast<unsigned long long>(cells[i].blocks));
    }
    return 0;
  }

  const double efficiency_gain =
      llc_only.gflops_per_watt > 0.0
          ? multi.gflops_per_watt / llc_only.gflops_per_watt
          : 0.0;
  const bool cap_held = capped.dynamic_watts <= kCapWatts * 1.05;
  const bool cap_binds = uncapped.dynamic_watts > kCapWatts;
  // Same 2.4e9 flops either way; the sums differ only by integration-order
  // dust, so compare with a relative tolerance instead of bitwise.
  const bool work_conserved =
      std::abs(capped.total_flops - uncapped.total_flops) <=
      1e-9 * std::max(capped.total_flops, uncapped.total_flops);
  const bool mixed_gains = efficiency_gain >= 1.05;

  std::printf("=== Multi-resource admission: energy cap + mixed workload "
              "===\n\n");
  util::Table table({"cell", "dyn W", "GFLOPS", "GFLOPS/W", "system J",
                     "makespan [s]", "blocks"});
  const char* names[] = {"cap 21 W", "uncapped", "LLC+bandwidth",
                         "LLC only"};
  for (std::size_t i = 0; i < cells.size(); ++i) {
    table.begin_row()
        .add_cell(names[i])
        .add_cell(cells[i].dynamic_watts, 1)
        .add_cell(cells[i].gflops, 2)
        .add_cell(cells[i].gflops_per_watt, 3)
        .add_cell(cells[i].system_joules, 0)
        .add_cell(cells[i].makespan, 2)
        .add_cell(cells[i].blocks);
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("power cap:  %.1f W dynamic under a %.0f W budget (%s), "
              "uncapped draws %.1f W (%s)\n",
              capped.dynamic_watts, kCapWatts,
              cap_held ? "held" : "VIOLATED", uncapped.dynamic_watts,
              cap_binds ? "cap binds" : "CAP NEVER BOUND");
  std::printf("mixed cell: %.3f -> %.3f GFLOPS/W, %.2fx (%s)\n",
              llc_only.gflops_per_watt, multi.gflops_per_watt,
              efficiency_gain, mixed_gains ? "gate >= 1.05x met" : "BELOW "
                                                                   "1.05x");

  char json[1024];
  std::snprintf(json, sizeof(json),
                "{\n"
                "  \"cap_watts\": %.1f,\n"
                "  \"capped_dynamic_watts\": %.4f,\n"
                "  \"uncapped_dynamic_watts\": %.4f,\n"
                "  \"cap_held\": %s,\n"
                "  \"cap_binds\": %s,\n"
                "  \"work_conserved\": %s,\n"
                "  \"capped_makespan\": %.6f,\n"
                "  \"uncapped_makespan\": %.6f,\n"
                "  \"mixed_multi_gflops_per_watt\": %.4f,\n"
                "  \"mixed_llc_only_gflops_per_watt\": %.4f,\n"
                "  \"mixed_efficiency_gain\": %.4f,\n"
                "  \"mixed_gain_floor\": 1.05\n"
                "}\n",
                kCapWatts, capped.dynamic_watts, uncapped.dynamic_watts,
                cap_held ? "true" : "false", cap_binds ? "true" : "false",
                work_conserved ? "true" : "false", capped.makespan,
                uncapped.makespan, multi.gflops_per_watt,
                llc_only.gflops_per_watt, efficiency_gain);
  try {
    rda::util::write_file_atomic(out_path, json);
    std::printf("wrote %s\n", out_path.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "warning: %s\n", e.what());
  }
  return (cap_held && cap_binds && work_conserved && mixed_gains) ? 0 : 1;
}
