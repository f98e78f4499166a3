// rda_sched_sim — simulate a Table-2 workload under a scheduling policy.
//
//   rda_sched_sim --workload BLAS-3 --policy strict
//   rda_sched_sim --workload Raytrace --policy all --quick
//   rda_sched_sim --workload Water_nsq --policy compromise --oversub 1.5
//
// Knobs for what-if studies: --cores, --llc-mb, --bw-gbs override the paper
// machine; --partition / --feedback / --gate-bw enable the extensions.
// --trace-out FILE records the full admission + execution event stream of
// the last listed policy as Chrome trace_event JSON (chrome://tracing,
// Perfetto), prints an event summary, and cross-checks the recorded events
// against the scheduler's aggregate counters (exit 1 on mismatch).
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "args.hpp"
#include "core/rda_scheduler.hpp"
#include "exp/harness.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/reconcile.hpp"
#include "obs/recorder.hpp"
#include "obs/summary.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace {

using namespace rda;

/// Merges the scheduler's admission events with the engine's execution
/// events into one timeline. At equal timestamps the slice stack must stay
/// balanced: the engine's body slice nests inside the scheduler's period
/// slice, so inner ends close before outer ends and outer begins open
/// before inner begins (and all ends precede the next phase's begins).
std::vector<obs::Event> merge_events(const std::vector<obs::Event>& sched,
                                     const std::vector<obs::Event>& exec) {
  struct Tagged {
    obs::Event event;
    int rank;  ///< tie-break at equal timestamps
  };
  const auto rank_of = [](const obs::Event& e, bool from_engine) {
    if (e.kind == obs::EventKind::kEnd) return from_engine ? 0 : 1;
    if (e.kind == obs::EventKind::kBegin) return from_engine ? 3 : 2;
    return 4;  // instants sit above the freshly opened slices
  };
  std::vector<Tagged> tagged;
  tagged.reserve(sched.size() + exec.size());
  for (const obs::Event& e : sched) tagged.push_back({e, rank_of(e, false)});
  for (const obs::Event& e : exec) tagged.push_back({e, rank_of(e, true)});
  std::stable_sort(tagged.begin(), tagged.end(),
                   [](const Tagged& a, const Tagged& b) {
                     if (a.event.time != b.event.time) {
                       return a.event.time < b.event.time;
                     }
                     return a.rank < b.rank;
                   });
  std::vector<obs::Event> merged;
  merged.reserve(tagged.size());
  for (const Tagged& t : tagged) merged.push_back(t.event);
  return merged;
}

exp::RunRow run_one(const workload::WorkloadSpec& spec,
                    const sim::EngineConfig& engine_cfg,
                    core::PolicyKind policy, const tools::Args& args,
                    const std::string& trace_out, int* trace_failures) {
  const bool tracing = !trace_out.empty();
  if (!tracing && policy == core::PolicyKind::kLinuxDefault &&
      !args.has("partition") && !args.has("feedback") &&
      !args.has("gate-bw")) {
    exp::RunConfig cfg;
    cfg.engine = engine_cfg;
    cfg.policy = policy;
    return exp::run_workload(spec, cfg);
  }

  // Extension paths (and tracing) need direct gate construction.
  obs::EventRecorder admission_events(1 << 18);
  obs::EventRecorder execution_events(1 << 18);
  sim::EngineConfig traced_cfg = engine_cfg;
  if (tracing) traced_cfg.trace_sink = &execution_events;
  sim::Engine engine(traced_cfg);
  core::RdaOptions options;
  options.policy = policy;
  options.oversubscription = args.get_double("oversub", 2.0);
  options.fast_path = args.has("fast-path");
  options.partitioning.enable = args.has("partition");
  if (args.has("gate-bw")) {
    options.bandwidth_capacity = engine_cfg.machine.dram_bandwidth;
  }
  options.feedback.enable = args.has("feedback");
  if (tracing) options.trace_sink = &admission_events;
  core::RdaScheduler gate(
      static_cast<double>(engine_cfg.machine.llc_bytes), engine_cfg.calib,
      options);
  if (policy != core::PolicyKind::kLinuxDefault) engine.set_gate(&gate);
  workload::populate_engine(engine, spec, [&](sim::ProcessId pid) {
    gate.mark_pool(pid);
  });
  const sim::SimResult result = engine.run();

  if (tracing) {
    const std::vector<obs::Event> sched = admission_events.events();
    obs::write_chrome_trace_file(
        trace_out, merge_events(sched, execution_events.events()));
    std::printf("[%s] wrote %llu events to %s (%llu dropped)\n",
                core::to_string(policy).c_str(),
                static_cast<unsigned long long>(
                    admission_events.total_recorded() +
                    execution_events.total_recorded()),
                trace_out.c_str(),
                static_cast<unsigned long long>(admission_events.dropped() +
                                                execution_events.dropped()));
    std::printf("%s", obs::summarize(sched,
                                     admission_events.wait_histogram())
                          .c_str());
    const obs::ReconcileReport report =
        obs::reconcile(sched, gate.monitor_stats());
    if (report.ok) {
      std::printf("reconcile: OK — events match MonitorStats "
                  "(%llu begin-path force-admits)\n\n",
                  static_cast<unsigned long long>(report.begin_forced));
    } else {
      std::printf("reconcile: FAILED\n%s\n\n", report.message.c_str());
      ++*trace_failures;
    }
  }

  exp::RunRow row;
  row.workload = spec.name;
  row.policy = core::to_string(policy);
  row.system_joules = result.system_joules();
  row.dram_joules = result.dram_joules;
  row.gflops = result.gflops();
  row.gflops_per_watt = result.gflops_per_watt();
  row.makespan = result.makespan;
  row.total_flops = result.total_flops;
  row.gate_blocks = result.gate_blocks;
  row.context_switches = result.context_switches;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rda;
  const tools::Args args(argc, argv);
  if (args.has("help")) {
    tools::usage(
        "usage: rda_sched_sim --workload NAME --policy "
        "default|strict|compromise|all\n"
        "  [--quick] [--oversub X=2] [--cores N] [--llc-mb M] [--bw-gbs B]\n"
        "  [--partition] [--feedback] [--gate-bw] [--fast-path]\n"
        "  [--trace-out FILE]  record the last policy's admission+execution\n"
        "                      events as Chrome trace JSON (chrome://tracing\n"
        "                      or Perfetto) and reconcile them against the\n"
        "                      scheduler's aggregate stats (exit 1 on "
        "mismatch)\n"
        "workloads: BLAS-1 BLAS-2 BLAS-3 Water_sp Water_nsq Ocean_cp "
        "Raytrace Volrend\n");
  }

  // RDA:Compromise admits up to x times capacity; x < 1 is stricter than
  // Strict, which the policy refuses.
  const double oversub = args.get_double("oversub", 2.0);
  if (!(oversub >= 1.0)) {
    std::cerr << "error: --oversub must be at least 1, got '"
              << args.get("oversub") << "'\n";
    return 2;
  }

  sim::EngineConfig engine;
  engine.machine = sim::MachineConfig::e5_2420();
  if (args.has("cores")) {
    engine.machine.cores = static_cast<int>(args.get_u64("cores", 12));
  }
  if (args.has("llc-mb")) {
    engine.machine.llc_bytes = util::MB(args.get_double("llc-mb", 15.0));
  }
  if (args.has("bw-gbs")) {
    engine.machine.dram_bandwidth = args.get_double("bw-gbs", 30.0) * 1e9;
  }

  const auto specs = workload::table2_workloads();
  workload::WorkloadSpec spec =
      workload::find_workload(specs, args.get("workload", "BLAS-3"));
  if (args.has("quick")) spec = workload::scale_workload(spec, 0.125, 4);

  const std::string policy_arg = args.get("policy", "all");
  std::vector<core::PolicyKind> policies;
  if (policy_arg == "default") {
    policies = {core::PolicyKind::kLinuxDefault};
  } else if (policy_arg == "strict") {
    policies = {core::PolicyKind::kStrict};
  } else if (policy_arg == "compromise") {
    policies = {core::PolicyKind::kCompromise};
  } else if (policy_arg == "all") {
    policies = {core::PolicyKind::kLinuxDefault, core::PolicyKind::kStrict,
                core::PolicyKind::kCompromise};
  } else {
    tools::usage("unknown --policy '" + policy_arg + "'\n");
  }

  std::printf("workload %s on %s (%d cores, %.1f MB LLC, %.0f GB/s)\n\n",
              spec.name.c_str(), engine.machine.name.c_str(),
              engine.machine.cores,
              util::bytes_to_mb(engine.machine.llc_bytes),
              engine.machine.dram_bandwidth / 1e9);

  const std::string trace_out = args.get("trace-out", "");
  int trace_failures = 0;
  util::Table table({"policy", "GFLOPS", "makespan [s]", "system J",
                     "DRAM J", "GFLOPS/W", "gate blocks"});
  for (std::size_t i = 0; i < policies.size(); ++i) {
    // Tracing covers one run; with --policy all that is the last listed.
    const bool traced = i + 1 == policies.size();
    const exp::RunRow row = run_one(spec, engine, policies[i], args,
                                    traced ? trace_out : std::string(),
                                    &trace_failures);
    table.begin_row()
        .add_cell(row.policy)
        .add_cell(row.gflops, 2)
        .add_cell(row.makespan, 1)
        .add_cell(row.system_joules, 0)
        .add_cell(row.dram_joules, 0)
        .add_cell(row.gflops_per_watt, 3)
        .add_cell(row.gate_blocks);
  }
  std::printf("%s", table.render().c_str());
  return trace_failures > 0 ? 1 : 0;
}
