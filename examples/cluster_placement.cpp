// Multi-node demand-aware placement (the paper's §5 multi-node future work).
//
// Submits a periodic mix of big high-reuse and small streaming processes to
// a 2-node cluster under round-robin vs declared-demand placement, with a
// per-node RDA:Strict gate. The declared demands the applications already
// provide through pp_begin double as placement hints — no extra
// instrumentation needed.
#include <cstdio>

#include "cluster/cluster.hpp"
#include "util/units.hpp"

using namespace rda;
using rda::util::MB;

namespace {

cluster::ClusterResult run(cluster::PlacementPolicy policy) {
  cluster::ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.node.machine = sim::MachineConfig::e5_2420();
  cfg.gate.policy = core::PolicyKind::kStrict;
  cluster::ClusterScheduler sched(cfg, policy);

  // Periodic submission (big, small, big, small, ...): resonates with
  // round-robin so all the big working sets pile onto node 0.
  for (int i = 0; i < 6; ++i) {
    std::vector<sim::PhaseProgram> big;
    big.push_back(sim::ProgramBuilder()
                      .period("render", 5e9, MB(7), ReuseLevel::kHigh)
                      .build());
    sched.add_process(std::move(big));
    std::vector<sim::PhaseProgram> small;
    small.push_back(sim::ProgramBuilder()
                        .period("ingest", 2e8, MB(0.5), ReuseLevel::kLow)
                        .build());
    sched.add_process(std::move(small));
  }
  return sched.run();
}

}  // namespace

int main() {
  std::printf("2-node cluster, per-node RDA:Strict, periodic big/small "
              "submission\n\n");
  for (const auto policy : {cluster::PlacementPolicy::kRoundRobin,
                            cluster::PlacementPolicy::kLeastDeclaredLoad}) {
    const cluster::ClusterResult result = run(policy);
    std::printf("  %-22s makespan %.2f s, %6.2f GFLOPS, %5.0f J  (procs: ",
                cluster::to_string(policy).c_str(), result.makespan(),
                result.gflops(), result.system_joules());
    for (std::size_t n = 0; n < result.processes_per_node.size(); ++n) {
      std::printf("%s%d", n ? "/" : "", result.processes_per_node[n]);
    }
    std::printf(")\n");
  }
  std::printf("\nthe declared pp_begin demands double as placement hints: "
              "balancing CACHE pressure beats balancing process counts.\n");
  return 0;
}
