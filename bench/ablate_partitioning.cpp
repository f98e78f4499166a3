// Extension bench (§6 future work): cache partitioning for streaming and
// un-instrumented applications.
//
// Scenario A — streaming hog: BLAS-3-like fitters co-run with streaming
// periods whose working sets exceed the LLC. Without partitioning, RDA
// either serializes behind the forced oversized period or lets it pollute;
// with partitioning the hog is confined to 10% of the cache.
//
// Scenario B — un-instrumented neighbours: annotated fitters co-run with
// legacy processes that never call the API. The unannotated-cap confines
// the legacy processes' occupancy.
#include <cstdio>

#include "core/rda_scheduler.hpp"
#include "exp/harness.hpp"
#include "sim/engine.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace {

using namespace rda;
using rda::util::MB;

struct Outcome {
  double gflops = 0.0;
  double system_joules = 0.0;
  double fitter_finish = 0.0;
};

Outcome run_hog_scenario(bool partition) {
  sim::EngineConfig cfg;
  cfg.machine = sim::MachineConfig::e5_2420();
  sim::Engine engine(cfg);
  core::RdaOptions options;
  options.policy = core::PolicyKind::kStrict;
  options.partitioning.enable = partition;
  core::RdaScheduler gate(static_cast<double>(cfg.machine.llc_bytes),
                          cfg.calib, options);
  engine.set_gate(&gate);

  // Four streaming hogs (40 MB each) + eight fitters (3 MB, high reuse).
  for (int i = 0; i < 4; ++i) {
    const sim::ProcessId pid = engine.create_process();
    engine.add_thread(pid, sim::ProgramBuilder()
                               .period("stream", 6e9, MB(40),
                                       ReuseLevel::kLow)
                               .build());
  }
  double last_fitter = 0.0;
  for (int i = 0; i < 8; ++i) {
    const sim::ProcessId pid = engine.create_process();
    engine.add_thread(pid, sim::ProgramBuilder()
                               .period("fit", 8e9, MB(3), ReuseLevel::kHigh)
                               .build());
  }
  const sim::SimResult result = engine.run();
  for (std::size_t t = 4; t < result.threads.size(); ++t) {
    last_fitter = std::max(last_fitter, result.threads[t].finish_time);
  }
  Outcome o;
  o.gflops = result.gflops();
  o.system_joules = result.system_joules();
  o.fitter_finish = last_fitter;
  return o;
}

Outcome run_legacy_scenario(double unannotated_cap_mb) {
  sim::EngineConfig cfg;
  cfg.machine = sim::MachineConfig::e5_2420();
  cfg.unannotated_cap_bytes = static_cast<double>(MB(unannotated_cap_mb));
  sim::Engine engine(cfg);
  core::RdaOptions options;
  options.policy = core::PolicyKind::kStrict;
  core::RdaScheduler gate(static_cast<double>(cfg.machine.llc_bytes),
                          cfg.calib, options);
  engine.set_gate(&gate);

  // Six legacy processes (no annotations, 6 MB hot sets) and six annotated
  // fitters.
  for (int i = 0; i < 6; ++i) {
    const sim::ProcessId pid = engine.create_process();
    engine.add_thread(pid, sim::ProgramBuilder()
                               .plain("legacy", 6e9, MB(6), ReuseLevel::kHigh)
                               .build());
  }
  double last_fitter = 0.0;
  for (int i = 0; i < 6; ++i) {
    const sim::ProcessId pid = engine.create_process();
    engine.add_thread(pid, sim::ProgramBuilder()
                               .period("fit", 6e9, MB(2.2), ReuseLevel::kHigh)
                               .build());
  }
  const sim::SimResult result = engine.run();
  for (std::size_t t = 6; t < result.threads.size(); ++t) {
    last_fitter = std::max(last_fitter, result.threads[t].finish_time);
  }
  Outcome o;
  o.gflops = result.gflops();
  o.system_joules = result.system_joules();
  o.fitter_finish = last_fitter;
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("=== Extension: cache partitioning (paper §6 future work) "
              "===\n\n");

  // 2 hog-scenario cells + 4 legacy-scenario cells, all independent.
  const std::vector<double> caps = {0.0, 6.0, 3.0, 1.5};
  std::vector<Outcome> hog(2);
  std::vector<Outcome> legacy(caps.size());
  exp::run_cells(hog.size() + legacy.size(), exp::parse_jobs(argc, argv),
                 [&](std::size_t cell) {
                   if (cell < hog.size()) {
                     hog[cell] = run_hog_scenario(cell == 1);
                   } else {
                     const std::size_t c = cell - hog.size();
                     legacy[c] = run_legacy_scenario(caps[c]);
                   }
                 });

  {
    util::Table table({"partitioning", "aggregate GFLOPS", "system J",
                       "fitters done by [s]"});
    for (const bool partition : {false, true}) {
      const Outcome& o = hog[partition ? 1 : 0];
      table.begin_row()
          .add_cell(partition ? "on (hogs -> 10% partition)" : "off")
          .add_cell(o.gflops, 2)
          .add_cell(o.system_joules, 0)
          .add_cell(o.fitter_finish, 2);
    }
    std::printf("scenario A: streaming hogs (40 MB WSS) + high-reuse "
                "fitters\n%s\n",
                table.render().c_str());
  }

  {
    util::Table table({"unannotated cap [MB]", "aggregate GFLOPS",
                       "system J", "fitters done by [s]"});
    for (std::size_t c = 0; c < caps.size(); ++c) {
      const Outcome& o = legacy[c];
      table.begin_row()
          .add_cell(caps[c] == 0.0 ? std::string("off")
                                   : std::to_string(caps[c]))
          .add_cell(o.gflops, 2)
          .add_cell(o.system_joules, 0)
          .add_cell(o.fitter_finish, 2);
    }
    std::printf("scenario B: un-instrumented neighbours vs annotated "
                "fitters\n%s",
                table.render().c_str());
  }
  return 0;
}
