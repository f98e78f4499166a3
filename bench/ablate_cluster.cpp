// Extension bench: multi-node demand-aware placement (§5's multi-node
// future work).
//
// A heterogeneous mix of processes — large high-reuse working sets and
// small streaming ones — is placed across 2 and 4 nodes by three policies.
// Demand-blind round-robin can stack several large working sets on one
// node's LLC while another node idles its cache; declared-demand placement
// avoids that before the per-node RDA gates even get involved.
#include <cstdio>
#include <vector>

#include "cluster/cluster.hpp"
#include "exp/harness.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace {

using namespace rda;
using rda::util::MB;

void submit_mix(cluster::ClusterScheduler& sched, int nodes) {
  // Periodic submission: each "job row" is one big high-reuse process
  // (7 MB) followed by nodes-1 small streamers (0.5 MB). Such periodic
  // patterns are common (cron fan-outs, batch arrays) and resonate with
  // demand-blind round-robin: every big process lands on the SAME node.
  for (int i = 0; i < 8; ++i) {
    std::vector<sim::PhaseProgram> p;
    p.push_back(sim::ProgramBuilder()
                    .period("big", 6e9, MB(7), ReuseLevel::kHigh)
                    .build());
    sched.add_process(std::move(p));
    for (int s2 = 0; s2 < nodes - 1; ++s2) {
      std::vector<sim::PhaseProgram> q;
      q.push_back(sim::ProgramBuilder()
                      .period("small", 2e8, MB(0.5), ReuseLevel::kLow)
                      .build());
      sched.add_process(std::move(q));
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("=== Extension: multi-node demand-aware placement ===\n");
  std::printf("(8 x 7 MB high-reuse + 24 x 0.5 MB streaming processes; "
              "per-node RDA:Strict gates)\n\n");

  // 2 node counts x 3 placement policies = 6 independent cluster runs.
  const std::vector<int> node_counts = {2, 4};
  const std::vector<cluster::PlacementPolicy> policies = {
      cluster::PlacementPolicy::kRoundRobin,
      cluster::PlacementPolicy::kLeastDeclaredLoad,
      cluster::PlacementPolicy::kFirstFitCapacity};
  std::vector<cluster::ClusterResult> results(node_counts.size() *
                                              policies.size());
  exp::run_cells(results.size(), exp::parse_jobs(argc, argv),
                 [&](std::size_t cell) {
                   const int nodes = node_counts[cell / policies.size()];
                   cluster::ClusterConfig cfg;
                   cfg.nodes = nodes;
                   cfg.node.machine = sim::MachineConfig::e5_2420();
                   cfg.gate.policy = core::PolicyKind::kStrict;
                   cluster::ClusterScheduler sched(
                       cfg, policies[cell % policies.size()]);
                   submit_mix(sched, nodes);
                   results[cell] = sched.run();
                 });

  for (std::size_t nc = 0; nc < node_counts.size(); ++nc) {
    util::Table table({"placement", "makespan [s]", "GFLOPS", "system J",
                       "procs/node"});
    for (std::size_t p = 0; p < policies.size(); ++p) {
      const cluster::ClusterResult& result =
          results[nc * policies.size() + p];
      std::string spread;
      for (std::size_t n = 0; n < result.processes_per_node.size(); ++n) {
        spread += std::to_string(result.processes_per_node[n]);
        if (n + 1 < result.processes_per_node.size()) spread += "/";
      }
      table.begin_row()
          .add_cell(cluster::to_string(policies[p]))
          .add_cell(result.makespan(), 2)
          .add_cell(result.gflops(), 2)
          .add_cell(result.system_joules(), 0)
          .add_cell(spread);
    }
    std::printf("%d nodes\n%s\n", node_counts[nc], table.render().c_str());
  }
  std::printf("(declared-demand placement balances CACHE pressure, not just "
              "process counts — the same information pp_begin already "
              "carries)\n");
  return 0;
}
