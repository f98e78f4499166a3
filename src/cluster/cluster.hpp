// Multi-node extension (§5: "Our work is currently developed at the
// single-node level but can be extended to multiple nodes as part of our
// future work").
//
// A cluster is N identical nodes, each with its own LLC, DRAM, and RDA
// gate. Processes are placed on a node at submission time using their
// DECLARED LLC demand — the same information the single-node predicate uses —
// then each node runs independently (processes never migrate across nodes,
// matching the paper's process-level granularity).
//
// Placement policies:
//   * round-robin            — demand-blind (the baseline a batch system does),
//   * least-declared-load    — balance the sum of declared working sets,
//   * first-fit-capacity     — pack nodes up to their LLC capacity before
//                              spilling (bin-packing by declared demand).
//
// Tenant locality, whole-batch stealing and node death live in the service
// front end (src/service, DESIGN §14), the multi-node layer the traffic
// benches measure.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/rda_scheduler.hpp"
#include "sim/engine.hpp"

namespace rda::cluster {

enum class PlacementPolicy {
  kRoundRobin,
  kLeastDeclaredLoad,
  kFirstFitCapacity,
};

std::string to_string(PlacementPolicy policy);

struct ClusterConfig {
  int nodes = 2;
  /// Every node is one instance of this machine.
  sim::EngineConfig node{};
  /// Per-node RDA gate options (every node is gated).
  core::RdaOptions gate{};
};

struct ClusterResult {
  std::vector<sim::SimResult> nodes;
  std::vector<int> processes_per_node;

  /// Cluster makespan = slowest node (all nodes start together).
  double makespan() const;
  double total_flops() const;
  /// Sum of node energies (each node pays its own idle power for the whole
  /// cluster makespan — an idle node still burns static power).
  double system_joules() const;
  double gflops() const;
  double gflops_per_watt() const;
};

/// Places processes and runs all nodes to completion.
class ClusterScheduler {
 public:
  ClusterScheduler(ClusterConfig config, PlacementPolicy policy);

  /// Submits one process (its per-thread phase programs). Placement happens
  /// immediately, based on the process's declared peak LLC demand, and the
  /// process enters the chosen node's engine. Returns the node index chosen.
  int add_process(std::vector<sim::PhaseProgram> thread_programs);

  /// Declared-demand estimate used for placement: the max over time of the
  /// sum of each thread's declared working set (threads of a process run
  /// their programs in lockstep at worst).
  static double process_demand_estimate(
      const std::vector<sim::PhaseProgram>& thread_programs);

  ClusterResult run();

 private:
  /// Node chosen for a process declaring `demand` under the active policy.
  int pick_node(double demand) const;
  /// The LLC capacity the node's own admission core decides against — the
  /// same number its predicate will enforce at runtime.
  double node_capacity(int node) const;

  ClusterConfig config_;
  PlacementPolicy policy_;
  std::vector<std::unique_ptr<sim::Engine>> engines_;
  std::vector<std::unique_ptr<core::RdaScheduler>> gates_;
  std::vector<double> node_demand_;  ///< placed declared LLC demand per node
  std::vector<int> node_processes_;
  int next_round_robin_ = 0;
  bool ran_ = false;
};

}  // namespace rda::cluster
