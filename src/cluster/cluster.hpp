// Multi-node extension (§5: "Our work is currently developed at the
// single-node level but can be extended to multiple nodes as part of our
// future work").
//
// A cluster is N identical nodes, each with its own LLC, DRAM, and RDA
// gate. Processes are placed on a node at submission time using their
// DECLARED demands — the same information the single-node predicate uses —
// then each node runs independently (processes never migrate across nodes,
// matching the paper's process-level granularity).
//
// Placement policies:
//   * round-robin            — demand-blind (the baseline a batch system does),
//   * least-declared-load    — balance the sum of declared working sets,
//   * first-fit-capacity     — pack nodes up to their LLC capacity before
//                              spilling (bin-packing by declared demand),
//   * locality-aware         — per-tenant footprint map: a tenant's processes
//                              stay on the node already holding its LLC
//                              working set (warm cache) until the footprint
//                              outgrows the node, balanced by whole-tenant
//                              batch stealing when a node would otherwise
//                              idle (stealing single processes would shear a
//                              tenant's working set across LLCs).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/rda_scheduler.hpp"
#include "fault/fault.hpp"
#include "sim/engine.hpp"

namespace rda::cluster {

/// Per-resource placed/declared demand, indexed by ResourceKind. Placement
/// fit checks compare every declared component against the node's capacity
/// for that resource — a bandwidth-heavy process can be turned away from a
/// node whose LLC still has room, and vice versa.
using DemandVector = std::array<double, kNumResourceKinds>;

enum class PlacementPolicy {
  kRoundRobin,
  kLeastDeclaredLoad,
  kFirstFitCapacity,
  kLocalityAware,
};

std::string to_string(PlacementPolicy policy);

/// Tenant identity for locality-aware placement. 0 = anonymous (no
/// affinity); anonymous processes place like kLeastDeclaredLoad.
using TenantId = std::uint64_t;
inline constexpr TenantId kNoTenant = 0;

struct ClusterConfig {
  int nodes = 2;
  /// Every node is one instance of this machine.
  sim::EngineConfig node{};
  /// Per-node RDA gate options; `use_gate` false = Linux default everywhere.
  bool use_gate = true;
  core::RdaOptions gate{};
  /// Fault injection for the routing layer (non-owning; nullptr = off):
  /// kNodeRoute consults fire kNodeFail (a placement attempt bounces) and
  /// kNodeRecover (a down node rejoins). Node gates take their own injector
  /// through `gate.fault_injector`.
  fault::FaultInjector* fault_injector = nullptr;
  /// Routing failures before a node is marked down and its pending
  /// submissions are drained and re-routed to healthy nodes.
  int node_fail_threshold = 3;
  /// Node-health event sink (kNodeDown / kNodeUp; non-owning, nullptr off).
  obs::TraceSink* trace_sink = nullptr;
};

struct ClusterResult {
  std::vector<sim::SimResult> nodes;
  std::vector<int> processes_per_node;
  /// Fleet-wide admission totals: the per-node AdmissionCore stats summed
  /// (all zero when the cluster runs without gates).
  core::MonitorStats admission;
  // Node-health bookkeeping (all zero without a routing fault injector).
  std::uint64_t node_failures = 0;  ///< routing attempts that bounced
  std::uint64_t reroutes = 0;       ///< submissions drained off a down node
  std::uint64_t steals = 0;         ///< tenant batches stolen by idle nodes

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
  /// immediately, based on the process's declared peak demand. Returns the
  /// node index chosen. Tenanted submissions (tenant != kNoTenant) carry
  /// locality: under kLocalityAware they land on the tenant's home node —
  /// the one already holding its LLC working set — until it outgrows the
  /// node's capacity.
  int add_process(std::vector<sim::PhaseProgram> thread_programs,
                  bool task_pool = false, TenantId tenant = kNoTenant);

  /// Declared-demand estimate used for placement: the max over time of the
  /// sum of each thread's declared working set (threads of a process run
  /// their programs in lockstep at worst).
  static double process_demand_estimate(
      const std::vector<sim::PhaseProgram>& thread_programs);

  /// Per-resource version of the estimate: each thread's peak declared
  /// demand per resource kind (LLC working set, DRAM bandwidth, watts),
  /// summed across threads.
  static DemandVector process_demand_vector(
      const std::vector<sim::PhaseProgram>& thread_programs);

  ClusterResult run();

  const std::vector<double>& placed_demand() const { return node_demand_; }
  bool node_down(int node) const {
    return node_down_[static_cast<std::size_t>(node)];
  }

  /// Current home node of a tenant (-1 = unknown or home died). The home
  /// follows the tenant's latest placement: after a spill or steal the
  /// working set starts rebuilding on the new node, so that IS the home.
  int tenant_home(TenantId tenant) const;

  /// Idle-node work stealing: while a healthy node has nothing pending and
  /// some other node holds more than one tenant batch, the idle node steals
  /// the donor's smallest WHOLE tenant batch (never single processes — a
  /// split batch would shear the tenant's working set across two LLCs).
  /// run() performs this rebalance automatically under kLocalityAware;
  /// exposed for tests and for callers that want a steal pass mid-stream.
  /// Returns the number of submissions moved.
  std::size_t steal_rebalance();

  /// The admission engine of one node's gate (nullptr when `use_gate` is
  /// off). Placement and fleet-wide stats route through these cores.
  const core::AdmissionCore* node_core(int node) const;

 private:
  /// One placed process, held until run() so a node failure can still
  /// re-route it (threads are materialized into engines only at run time).
  struct Submission {
    std::vector<sim::PhaseProgram> programs;
    bool task_pool = false;
    double demand = 0.0;       ///< LLC component (ordering heuristics)
    DemandVector demand_vec{}; ///< per-resource (fit checks)
    TenantId tenant = kNoTenant;
  };

  /// Healthy-node placement under the active policy; -1 when none is up.
  /// Fit-based policies require EVERY declared resource component to fit
  /// the node; load-ordering heuristics compare the LLC component.
  int pick_node(const DemandVector& demand, TenantId tenant = kNoTenant) const;
  /// True when every nonzero component of `demand` fits node `n`'s
  /// remaining per-resource placement headroom (kinds the node does not
  /// constrain are ignored).
  bool fits(int node, const DemandVector& demand) const;
  /// Gives each down node a deterministic consult so a targeted
  /// kNodeRecover spec can fire; recovered nodes rejoin the placement set.
  void probe_recoveries();
  void mark_down(int node);
  void mark_up(int node);
  void trace_node(obs::EventKind kind, int node, double demand = 0.0) const;
  double node_capacity(int node) const;
  double node_capacity(int node, ResourceKind kind) const;
  /// Records a placement in the tenant footprint map (no-op for kNoTenant).
  void note_placement(TenantId tenant, int node, double demand);
  void charge_node(int node, const Submission& s, double sign);

  ClusterConfig config_;
  PlacementPolicy policy_;
  std::vector<std::unique_ptr<sim::Engine>> engines_;
  std::vector<std::unique_ptr<core::RdaScheduler>> gates_;
  std::vector<double> node_demand_;  ///< placed declared LLC demand per node
  std::vector<DemandVector> node_demand_vec_;  ///< per-resource placed demand
  std::vector<int> node_processes_;
  std::vector<std::vector<Submission>> node_pending_;
  std::vector<bool> node_down_;
  std::vector<int> route_failures_;
  std::uint64_t total_route_failures_ = 0;
  std::uint64_t reroutes_ = 0;
  std::uint64_t steals_ = 0;
  int next_round_robin_ = 0;
  bool ran_ = false;

  /// Per-tenant LLC footprint map: where the tenant's working set lives and
  /// how much of it is placed there. node -1 = the home died.
  struct TenantHome {
    int node = -1;
    double footprint = 0.0;
  };
  std::unordered_map<TenantId, TenantHome> tenant_homes_;
};

}  // namespace rda::cluster
