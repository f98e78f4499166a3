#include "cluster/cluster.hpp"

#include <gtest/gtest.h>

#include "util/check.hpp"
#include "util/units.hpp"

namespace rda::cluster {
namespace {

using rda::util::MB;

ClusterConfig two_nodes() {
  ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.node.machine = sim::MachineConfig::e5_2420();
  cfg.gate.policy = core::PolicyKind::kStrict;
  return cfg;
}

std::vector<sim::PhaseProgram> one_thread_process(double wss_mb,
                                                  double flops = 1e9) {
  std::vector<sim::PhaseProgram> programs;
  programs.push_back(sim::ProgramBuilder()
                         .period("pp", flops, MB(wss_mb), ReuseLevel::kHigh)
                         .build());
  return programs;
}

TEST(Cluster, DemandEstimateSumsThreadPeaks) {
  std::vector<sim::PhaseProgram> programs;
  programs.push_back(sim::ProgramBuilder()
                         .period("a", 1e9, MB(2), ReuseLevel::kHigh)
                         .period("b", 1e9, MB(5), ReuseLevel::kHigh)
                         .build());
  programs.push_back(sim::ProgramBuilder()
                         .period("c", 1e9, MB(3), ReuseLevel::kHigh)
                         .plain("glue", 1e8, MB(9), ReuseLevel::kLow)
                         .build());
  // max(2,5) + 3; the unmarked 9 MB phase declares nothing.
  EXPECT_NEAR(ClusterScheduler::process_demand_estimate(programs),
              static_cast<double>(MB(8)), 1.0);
}

TEST(Cluster, DemandEstimateUsesDeclaredNotTrue) {
  std::vector<sim::PhaseProgram> programs;
  programs.push_back(sim::ProgramBuilder()
                         .period("pp", 1e9, MB(2), ReuseLevel::kHigh)
                         .declared(MB(10))
                         .build());
  EXPECT_NEAR(ClusterScheduler::process_demand_estimate(programs),
              static_cast<double>(MB(10)), 1.0);
}

TEST(Cluster, RoundRobinAlternates) {
  ClusterScheduler sched(two_nodes(), PlacementPolicy::kRoundRobin);
  EXPECT_EQ(sched.add_process(one_thread_process(1)), 0);
  EXPECT_EQ(sched.add_process(one_thread_process(1)), 1);
  EXPECT_EQ(sched.add_process(one_thread_process(1)), 0);
}

TEST(Cluster, LeastLoadBalancesDeclaredDemand) {
  ClusterScheduler sched(two_nodes(), PlacementPolicy::kLeastDeclaredLoad);
  EXPECT_EQ(sched.add_process(one_thread_process(10)), 0);
  // Node 0 now carries 10 MB: the next two go to node 1 until it catches up.
  EXPECT_EQ(sched.add_process(one_thread_process(4)), 1);
  EXPECT_EQ(sched.add_process(one_thread_process(4)), 1);
  EXPECT_EQ(sched.add_process(one_thread_process(4)), 1);
  EXPECT_EQ(sched.add_process(one_thread_process(4)), 0);
}

TEST(Cluster, FirstFitPacksUpToCapacity) {
  ClusterScheduler sched(two_nodes(), PlacementPolicy::kFirstFitCapacity);
  // 15 MB LLC per node: 6+6 fits node 0; the third 6 MB spills to node 1.
  EXPECT_EQ(sched.add_process(one_thread_process(6)), 0);
  EXPECT_EQ(sched.add_process(one_thread_process(6)), 0);
  EXPECT_EQ(sched.add_process(one_thread_process(6)), 1);
  EXPECT_EQ(sched.add_process(one_thread_process(6)), 1);
  // Everything full: falls back to least-loaded rather than failing.
  EXPECT_EQ(sched.add_process(one_thread_process(6)), 0);
}

TEST(Cluster, RunConservesWorkAcrossNodes) {
  ClusterScheduler sched(two_nodes(), PlacementPolicy::kLeastDeclaredLoad);
  const int procs = 6;
  for (int i = 0; i < procs; ++i) {
    sched.add_process(one_thread_process(4, 5e8));
  }
  const ClusterResult result = sched.run();
  EXPECT_NEAR(result.total_flops(), procs * 5e8, 10.0);
  EXPECT_GT(result.makespan(), 0.0);
  EXPECT_GT(result.system_joules(), 0.0);
  ASSERT_EQ(result.processes_per_node.size(), 2u);
  EXPECT_EQ(result.processes_per_node[0] + result.processes_per_node[1],
            procs);
}

TEST(Cluster, TwoNodesBeatOneOnOversubscribedWork) {
  auto make = [&](int nodes) {
    ClusterConfig cfg = two_nodes();
    cfg.nodes = nodes;
    ClusterScheduler sched(cfg, PlacementPolicy::kLeastDeclaredLoad);
    for (int i = 0; i < 8; ++i) {
      sched.add_process(one_thread_process(6, 4e9));
    }
    return sched.run();
  };
  const ClusterResult one = make(1);
  const ClusterResult two = make(2);
  EXPECT_LT(two.makespan(), one.makespan());
  EXPECT_NEAR(one.total_flops(), two.total_flops(), 1.0);
}

TEST(Cluster, IdleNodeStillBurnsStaticPower) {
  ClusterConfig cfg = two_nodes();
  ClusterScheduler sched(cfg, PlacementPolicy::kFirstFitCapacity);
  sched.add_process(one_thread_process(2, 2e9));  // everything fits node 0
  const ClusterResult result = sched.run();
  ASSERT_EQ(result.nodes.size(), 2u);
  EXPECT_GT(result.nodes[1].package_joules, 0.0);  // idle node billed
  EXPECT_EQ(result.nodes[1].total_flops, 0.0);
}

TEST(Cluster, SingleShotRun) {
  ClusterScheduler sched(two_nodes(), PlacementPolicy::kRoundRobin);
  sched.add_process(one_thread_process(1, 1e7));
  sched.run();
  EXPECT_THROW(sched.run(), util::CheckFailure);
  EXPECT_THROW(sched.add_process(one_thread_process(1)),
               util::CheckFailure);
}

}  // namespace
}  // namespace rda::cluster
