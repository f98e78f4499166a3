#include "cluster/cluster.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace rda::cluster {

std::string to_string(PlacementPolicy policy) {
  switch (policy) {
    case PlacementPolicy::kRoundRobin: return "round-robin";
    case PlacementPolicy::kLeastDeclaredLoad: return "least-declared-load";
    case PlacementPolicy::kFirstFitCapacity: return "first-fit-capacity";
  }
  return "?";
}

ClusterScheduler::ClusterScheduler(ClusterConfig config,
                                   PlacementPolicy policy)
    : config_(config), policy_(policy) {
  RDA_CHECK(config_.nodes >= 1);
  for (int n = 0; n < config_.nodes; ++n) {
    engines_.push_back(std::make_unique<sim::Engine>(config_.node));
    gates_.push_back(std::make_unique<core::RdaScheduler>(
        static_cast<double>(config_.node.machine.llc_bytes),
        config_.node.calib, config_.gate));
    engines_.back()->set_gate(gates_.back().get());
  }
  node_demand_.assign(static_cast<std::size_t>(config_.nodes), 0.0);
  node_processes_.assign(static_cast<std::size_t>(config_.nodes), 0);
}

double ClusterScheduler::process_demand_estimate(
    const std::vector<sim::PhaseProgram>& thread_programs) {
  // Per thread: its largest declared marked working set. Process: their
  // sum — the worst-case simultaneous footprint the node's gate may see.
  double total = 0.0;
  for (const sim::PhaseProgram& program : thread_programs) {
    double peak = 0.0;
    for (const sim::PhaseSpec& phase : program.phases) {
      if (!phase.marked) continue;
      peak = std::max(peak, static_cast<double>(phase.declared_wss()));
    }
    total += peak;
  }
  return total;
}

double ClusterScheduler::node_capacity(int node) const {
  return gates_[static_cast<std::size_t>(node)]->core().resources().capacity(
      ResourceKind::kLLC);
}

int ClusterScheduler::pick_node(double demand) const {
  const auto least_loaded = [&]() {
    int best = 0;
    for (int n = 1; n < config_.nodes; ++n) {
      if (node_demand_[n] < node_demand_[best]) best = n;
    }
    return best;
  };
  switch (policy_) {
    case PlacementPolicy::kRoundRobin:
      return next_round_robin_;
    case PlacementPolicy::kLeastDeclaredLoad:
      return least_loaded();
    case PlacementPolicy::kFirstFitCapacity:
      for (int n = 0; n < config_.nodes; ++n) {
        // A demand-free process fits anywhere, even on an overfull node.
        if (demand <= 0.0 || node_demand_[n] + demand <= node_capacity(n)) {
          return n;
        }
      }
      // Nothing fits: fall back to the least-loaded node.
      return least_loaded();
  }
  return 0;
}

int ClusterScheduler::add_process(
    std::vector<sim::PhaseProgram> thread_programs) {
  RDA_CHECK_MSG(!ran_, "cannot add processes after run()");
  RDA_CHECK(!thread_programs.empty());
  const double demand = process_demand_estimate(thread_programs);
  const int node = pick_node(demand);
  next_round_robin_ = (node + 1) % config_.nodes;
  node_demand_[static_cast<std::size_t>(node)] += demand;
  ++node_processes_[static_cast<std::size_t>(node)];

  sim::Engine& engine = *engines_[static_cast<std::size_t>(node)];
  const sim::ProcessId pid = engine.create_process();
  for (sim::PhaseProgram& program : thread_programs) {
    engine.add_thread(pid, std::move(program));
  }
  return node;
}

ClusterResult ClusterScheduler::run() {
  RDA_CHECK_MSG(!ran_, "ClusterScheduler::run is single-shot");
  ran_ = true;
  ClusterResult result;
  result.processes_per_node = node_processes_;
  for (int n = 0; n < config_.nodes; ++n) {
    if (engines_[n]->thread_count() == 0) {
      // Idle node: contributes only static power for the cluster makespan;
      // represent it with an empty result.
      result.nodes.push_back(sim::SimResult{});
      continue;
    }
    result.nodes.push_back(engines_[n]->run());
  }
  // Nodes that finish early (or never ran) still burn idle + uncore +
  // DRAM-static power until the slowest node completes — the cluster is a
  // single billing domain.
  const double span = result.makespan();
  const sim::Calibration& calib = config_.node.calib;
  const double idle_power =
      config_.node.machine.cores * calib.core_idle_power +
      calib.uncore_power;
  for (sim::SimResult& node : result.nodes) {
    const double idle_tail = span - node.makespan;
    if (idle_tail > 0.0) {
      node.package_joules += idle_tail * idle_power;
      node.dram_joules += idle_tail * calib.dram_static_power;
    }
  }
  return result;
}

double ClusterResult::makespan() const {
  double span = 0.0;
  for (const sim::SimResult& node : nodes) {
    span = std::max(span, node.makespan);
  }
  return span;
}

double ClusterResult::total_flops() const {
  double flops = 0.0;
  for (const sim::SimResult& node : nodes) flops += node.total_flops;
  return flops;
}

double ClusterResult::system_joules() const {
  double joules = 0.0;
  for (const sim::SimResult& node : nodes) joules += node.system_joules();
  return joules;
}

double ClusterResult::gflops() const {
  const double span = makespan();
  return span > 0.0 ? total_flops() / span / 1e9 : 0.0;
}

double ClusterResult::gflops_per_watt() const {
  const double joules = system_joules();
  return joules > 0.0 ? total_flops() / joules / 1e9 : 0.0;
}

}  // namespace rda::cluster
