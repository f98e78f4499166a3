#include "cluster/cluster.hpp"

#include <gtest/gtest.h>

#include "fault/fault.hpp"
#include "obs/recorder.hpp"
#include "util/check.hpp"
#include "util/units.hpp"

namespace rda::cluster {
namespace {

using rda::util::MB;

ClusterConfig two_nodes() {
  ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.node.machine = sim::MachineConfig::e5_2420();
  cfg.use_gate = true;
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

TEST(Cluster, DemandVectorAggregatesEveryKind) {
  std::vector<sim::PhaseProgram> programs;
  programs.push_back(sim::ProgramBuilder()
                         .period_bw("a", 1e9, MB(2), ReuseLevel::kHigh, 5e9)
                         .watts(4.0)
                         .period("b", 1e9, MB(5), ReuseLevel::kHigh)
                         .build());
  programs.push_back(sim::ProgramBuilder()
                         .period_bw("c", 1e9, MB(3), ReuseLevel::kLow, 7e9)
                         .build());
  const DemandVector vec = ClusterScheduler::process_demand_vector(programs);
  // Per thread the per-kind peak; per process the sum over threads.
  EXPECT_NEAR(vec[static_cast<std::size_t>(ResourceKind::kLLC)],
              static_cast<double>(MB(8)), 1.0);
  EXPECT_NEAR(vec[static_cast<std::size_t>(ResourceKind::kMemBandwidth)],
              12e9, 1.0);
  EXPECT_NEAR(vec[static_cast<std::size_t>(ResourceKind::kEnergyBudget)],
              4.0, 1e-9);
}

TEST(Cluster, FirstFitSpillsOnBandwidthNotJustLlc) {
  // Streams with tiny working sets but 12 GB/s appetites against 30 GB/s
  // nodes: LLC-only placement would pack all three onto node 0; the vector
  // fit check must spill the third on its bandwidth component.
  ClusterConfig cfg = two_nodes();
  cfg.gate.bandwidth_capacity = cfg.node.machine.dram_bandwidth;
  ClusterScheduler sched(cfg, PlacementPolicy::kFirstFitCapacity);
  auto stream = [] {
    std::vector<sim::PhaseProgram> programs;
    programs.push_back(
        sim::ProgramBuilder()
            .period_bw("s", 1e9, MB(1), ReuseLevel::kLow, 12e9)
            .build());
    return programs;
  };
  EXPECT_EQ(sched.add_process(stream()), 0);
  EXPECT_EQ(sched.add_process(stream()), 0);  // 24 GB/s on node 0
  EXPECT_EQ(sched.add_process(stream()), 1);  // 36 > 30: bandwidth spill
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

TEST(ClusterFault, RepeatedRouteFailuresMarkNodeDownAndReroutePending) {
  // The second placement attempt on node 0 bounces; with threshold 1 the
  // node goes down, its already-pending process is drained onto node 1,
  // and the bounced submission retries onto a healthy node.
  fault::FaultPlan plan;
  fault::FaultSpec fail;
  fail.kind = fault::FaultKind::kNodeFail;
  fail.hook = fault::Hook::kNodeRoute;
  fail.node = 0;
  fail.at_count = 2;  // first consult (process A's placement) succeeds
  plan.add(fail);
  fault::FaultInjector injector(std::move(plan));
  obs::EventRecorder recorder(1 << 10);

  ClusterConfig cfg = two_nodes();
  cfg.fault_injector = &injector;
  cfg.node_fail_threshold = 1;
  cfg.trace_sink = &recorder;
  ClusterScheduler sched(cfg, PlacementPolicy::kRoundRobin);

  EXPECT_EQ(sched.add_process(one_thread_process(1)), 0);
  EXPECT_EQ(sched.add_process(one_thread_process(1)), 1);
  // Routed to node 0, bounced, node 0 marked down, retried onto node 1.
  EXPECT_EQ(sched.add_process(one_thread_process(1)), 1);
  EXPECT_TRUE(sched.node_down(0));
  EXPECT_EQ(recorder.count(obs::EventKind::kNodeDown), 1u);

  const ClusterResult result = sched.run();
  EXPECT_EQ(result.node_failures, 1u);
  EXPECT_EQ(result.reroutes, 1u);  // process A drained off the dead node
  EXPECT_EQ(result.processes_per_node[0], 0);
  EXPECT_EQ(result.processes_per_node[1], 3);
  EXPECT_NEAR(result.total_flops(), 3e9, 1e6);
}

TEST(ClusterFault, DownNodeRejoinsOnRecoveryProbe) {
  // Node 0 dies on the very first placement; the recovery probe run at the
  // next submission fires kNodeRecover, so node 0 rejoins the placement
  // set and round-robin resumes using it.
  fault::FaultPlan plan;
  fault::FaultSpec fail;
  fail.kind = fault::FaultKind::kNodeFail;
  fail.hook = fault::Hook::kNodeRoute;
  fail.node = 0;
  fail.at_count = 1;
  plan.add(fail);
  fault::FaultSpec recover;
  recover.kind = fault::FaultKind::kNodeRecover;
  recover.hook = fault::Hook::kNodeRoute;
  recover.node = 0;
  // Consult 2 is the down-node probe during process A's retry; consult 3
  // is the probe at process B's submission — recover there.
  recover.at_count = 3;
  plan.add(recover);
  fault::FaultInjector injector(std::move(plan));
  obs::EventRecorder recorder(1 << 10);

  ClusterConfig cfg = two_nodes();
  cfg.fault_injector = &injector;
  cfg.node_fail_threshold = 1;
  cfg.trace_sink = &recorder;
  ClusterScheduler sched(cfg, PlacementPolicy::kRoundRobin);

  EXPECT_EQ(sched.add_process(one_thread_process(1)), 1);
  EXPECT_TRUE(sched.node_down(0));
  EXPECT_EQ(sched.add_process(one_thread_process(1)), 0);
  EXPECT_FALSE(sched.node_down(0));
  EXPECT_EQ(recorder.count(obs::EventKind::kNodeDown), 1u);
  EXPECT_EQ(recorder.count(obs::EventKind::kNodeUp), 1u);

  const ClusterResult result = sched.run();
  EXPECT_EQ(result.node_failures, 1u);
  EXPECT_EQ(result.processes_per_node[0], 1);
  EXPECT_EQ(result.processes_per_node[1], 1);
}

// --- Locality-aware placement + tenant-batch work stealing -------------------

TEST(ClusterLocality, TenantStaysOnItsHomeNode) {
  ClusterScheduler sched(two_nodes(), PlacementPolicy::kLocalityAware);
  // Tenant 7's first process homes it on node 0; later submissions follow
  // even when plain load balancing would alternate.
  EXPECT_EQ(sched.add_process(one_thread_process(3), false, 7), 0);
  EXPECT_EQ(sched.tenant_home(7), 0);
  EXPECT_EQ(sched.add_process(one_thread_process(3), false, 8), 1);
  EXPECT_EQ(sched.add_process(one_thread_process(3), false, 7), 0);
  EXPECT_EQ(sched.add_process(one_thread_process(3), false, 7), 0);
  EXPECT_EQ(sched.tenant_home(7), 0);
  EXPECT_EQ(sched.tenant_home(8), 1);
}

TEST(ClusterLocality, TenantSpillsWhenHomeOutgrowsCapacity) {
  ClusterScheduler sched(two_nodes(), PlacementPolicy::kLocalityAware);
  // 15 MB LLC per node: three 6 MB processes cannot all stay home. The
  // third spills to the least-loaded node and RE-HOMES the tenant there.
  EXPECT_EQ(sched.add_process(one_thread_process(6), false, 7), 0);
  EXPECT_EQ(sched.add_process(one_thread_process(6), false, 7), 0);
  EXPECT_EQ(sched.add_process(one_thread_process(6), false, 7), 1);
  EXPECT_EQ(sched.tenant_home(7), 1);
}

TEST(ClusterLocality, AnonymousSubmissionsBalanceLikeLeastLoad) {
  ClusterScheduler sched(two_nodes(), PlacementPolicy::kLocalityAware);
  EXPECT_EQ(sched.add_process(one_thread_process(10)), 0);
  EXPECT_EQ(sched.add_process(one_thread_process(4)), 1);
  EXPECT_EQ(sched.add_process(one_thread_process(4)), 1);
}

TEST(ClusterLocality, IdleNodeStealsWholeTenantBatch) {
  // A node that died and rejoined is the canonical idle node: its work was
  // drained to the survivor, which now holds two tenant batches. The steal
  // pass must move ONE whole batch back, never split one.
  fault::FaultPlan plan;
  // Consults on node 1, in order: tenant 8's two clean placements (1-2),
  // then its third submission bounces three times (3-5, default threshold
  // 3 → node down + drain), then the recovery probe rejoins it (6).
  for (int i = 3; i <= 5; ++i) {
    fault::FaultSpec spec;
    spec.kind = fault::FaultKind::kNodeFail;
    spec.hook = fault::Hook::kNodeRoute;
    spec.at_count = static_cast<std::uint64_t>(i);
    spec.node = 1;
    plan.add(spec);
  }
  fault::FaultSpec recover;
  recover.kind = fault::FaultKind::kNodeRecover;
  recover.hook = fault::Hook::kNodeRoute;
  recover.at_count = 6;
  recover.node = 1;
  plan.add(recover);
  fault::FaultInjector injector(plan);

  obs::EventRecorder recorder(1 << 10);
  ClusterConfig cfg = two_nodes();
  cfg.fault_injector = &injector;
  cfg.trace_sink = &recorder;
  ClusterScheduler sched(cfg, PlacementPolicy::kLocalityAware);

  EXPECT_EQ(sched.add_process(one_thread_process(1), false, 7), 0);
  EXPECT_EQ(sched.add_process(one_thread_process(1), false, 7), 0);
  EXPECT_EQ(sched.add_process(one_thread_process(1), false, 8), 1);
  EXPECT_EQ(sched.add_process(one_thread_process(1), false, 8), 1);
  // Node 1 dies mid-placement (its pending pair drains to node 0), rejoins
  // via the recovery probe, and the bounced submission lands on node 0 with
  // the rest of tenant 8's batch.
  EXPECT_EQ(sched.add_process(one_thread_process(1), false, 8), 0);
  EXPECT_FALSE(sched.node_down(1));
  EXPECT_EQ(sched.tenant_home(8), 0);

  // Node 1 is up and idle; node 0 holds both tenants. The steal moves the
  // smaller whole batch — tenant 7, two submissions — to the idle node.
  const std::size_t moved = sched.steal_rebalance();
  EXPECT_EQ(moved, 2u);
  EXPECT_EQ(sched.tenant_home(7), 1);
  EXPECT_EQ(sched.tenant_home(8), 0);
  EXPECT_EQ(recorder.count(obs::EventKind::kSteal), 1u);

  const ClusterResult result = sched.run();
  EXPECT_EQ(result.steals, 1u);
  EXPECT_EQ(result.processes_per_node[0], 3);
  EXPECT_EQ(result.processes_per_node[1], 2);
}

TEST(ClusterLocality, StealRefusesToShearALoneTenant) {
  ClusterScheduler sched(two_nodes(), PlacementPolicy::kLocalityAware);
  // One tenant, two processes: stealing one would split its working set
  // across both LLCs, so the idle node must stay idle.
  sched.add_process(one_thread_process(2), false, 7);
  sched.add_process(one_thread_process(2), false, 7);
  EXPECT_EQ(sched.steal_rebalance(), 0u);
  EXPECT_EQ(sched.tenant_home(7), 0);
}

TEST(ClusterLocality, NodeDeathRehomesTenantsKeepingBatchesWhole) {
  fault::FaultPlan plan;
  // The first two consults on node 0 are tenant 7's clean placements; the
  // next three (the third submission's routing retries) all bounce, which
  // crosses the default down threshold of 3.
  for (int i = 3; i <= 5; ++i) {
    fault::FaultSpec spec;
    spec.kind = fault::FaultKind::kNodeFail;
    spec.hook = fault::Hook::kNodeRoute;
    spec.at_count = static_cast<std::uint64_t>(i);
    spec.node = 0;
    plan.add(spec);
  }
  fault::FaultInjector injector(plan);
  ClusterConfig cfg = two_nodes();
  cfg.fault_injector = &injector;
  ClusterScheduler sched(cfg, PlacementPolicy::kLocalityAware);

  EXPECT_EQ(sched.add_process(one_thread_process(2), false, 7), 0);
  EXPECT_EQ(sched.add_process(one_thread_process(2), false, 7), 0);
  // The next placement bounces off node 0 three times, kills it, and the
  // drain re-routes tenant 7's whole batch to node 1 — which re-homes it.
  EXPECT_EQ(sched.add_process(one_thread_process(2), false, 7), 1);
  EXPECT_TRUE(sched.node_down(0));
  EXPECT_EQ(sched.tenant_home(7), 1);

  const ClusterResult result = sched.run();
  EXPECT_EQ(result.reroutes, 2u);
  EXPECT_EQ(result.processes_per_node[0], 0);
  EXPECT_EQ(result.processes_per_node[1], 3);
}

}  // namespace
}  // namespace rda::cluster
