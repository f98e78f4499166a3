#include "cluster/cluster.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace rda::cluster {

std::string to_string(PlacementPolicy policy) {
  switch (policy) {
    case PlacementPolicy::kRoundRobin: return "round-robin";
    case PlacementPolicy::kLeastDeclaredLoad: return "least-declared-load";
    case PlacementPolicy::kFirstFitCapacity: return "first-fit-capacity";
    case PlacementPolicy::kLocalityAware: return "locality-aware";
  }
  return "?";
}

ClusterScheduler::ClusterScheduler(ClusterConfig config,
                                   PlacementPolicy policy)
    : config_(config), policy_(policy) {
  RDA_CHECK(config_.nodes >= 1);
  for (int n = 0; n < config_.nodes; ++n) {
    engines_.push_back(std::make_unique<sim::Engine>(config_.node));
    if (config_.use_gate) {
      gates_.push_back(std::make_unique<core::RdaScheduler>(
          static_cast<double>(config_.node.machine.llc_bytes),
          config_.node.calib, config_.gate));
      engines_.back()->set_gate(gates_.back().get());
    } else {
      gates_.push_back(nullptr);
    }
  }
  node_demand_.assign(static_cast<std::size_t>(config_.nodes), 0.0);
  node_demand_vec_.assign(static_cast<std::size_t>(config_.nodes),
                          DemandVector{});
  node_processes_.assign(static_cast<std::size_t>(config_.nodes), 0);
  node_pending_.resize(static_cast<std::size_t>(config_.nodes));
  node_down_.assign(static_cast<std::size_t>(config_.nodes), false);
  route_failures_.assign(static_cast<std::size_t>(config_.nodes), 0);
}

void ClusterScheduler::trace_node(obs::EventKind kind, int node,
                                  double demand) const {
  if (config_.trace_sink == nullptr) return;
  obs::Event e;
  e.time = 0.0;  // placement precedes simulated time
  e.kind = kind;
  e.process = static_cast<sim::ProcessId>(node);
  e.demand = demand;
  e.set_label("node");
  config_.trace_sink->record(e);
}

void ClusterScheduler::mark_up(int node) {
  const std::size_t n = static_cast<std::size_t>(node);
  if (!node_down_[n]) return;
  node_down_[n] = false;
  route_failures_[n] = 0;
  trace_node(obs::EventKind::kNodeUp, node);
}

void ClusterScheduler::mark_down(int node) {
  const std::size_t idx = static_cast<std::size_t>(node);
  if (node_down_[idx]) return;
  node_down_[idx] = true;
  trace_node(obs::EventKind::kNodeDown, node);
  // Tenants homed here lost their working set with the node; their next
  // placement re-homes them (and the re-route below does it immediately for
  // tenants with pending work — the first re-routed member picks the new
  // home, the rest follow it, keeping the batch whole).
  for (auto& [tenant, home] : tenant_homes_) {
    if (home.node == node) {
      home.node = -1;
      home.footprint = 0.0;
    }
  }
  // Drain the node's pending submissions and re-route them to healthy
  // nodes (placement is deferred to run(), so nothing has materialized yet).
  std::vector<Submission> drained = std::move(node_pending_[idx]);
  node_pending_[idx].clear();
  node_demand_[idx] = 0.0;
  node_demand_vec_[idx] = DemandVector{};
  node_processes_[idx] -= static_cast<int>(drained.size());
  for (Submission& s : drained) {
    int target = pick_node(s.demand_vec, s.tenant);
    if (target < 0) {
      // Every node is down: resurrect the least-failed one rather than
      // dropping work on the floor.
      int best = 0;
      for (int n = 1; n < config_.nodes; ++n) {
        if (route_failures_[n] < route_failures_[best]) best = n;
      }
      mark_up(best);
      target = best;
    }
    const std::size_t t = static_cast<std::size_t>(target);
    charge_node(target, s, +1.0);
    ++node_processes_[t];
    ++reroutes_;
    note_placement(s.tenant, target, s.demand);
    node_pending_[t].push_back(std::move(s));
  }
}

void ClusterScheduler::probe_recoveries() {
  for (int n = 0; n < config_.nodes; ++n) {
    if (!node_down_[static_cast<std::size_t>(n)]) continue;
    const fault::FaultSpec* fired = config_.fault_injector->consult(
        fault::Hook::kNodeRoute, sim::kInvalidThread, n);
    if (fired != nullptr &&
        fired->kind == fault::FaultKind::kNodeRecover) {
      mark_up(n);
    }
  }
}

double ClusterScheduler::process_demand_estimate(
    const std::vector<sim::PhaseProgram>& thread_programs) {
  return process_demand_vector(
      thread_programs)[static_cast<std::size_t>(ResourceKind::kLLC)];
}

DemandVector ClusterScheduler::process_demand_vector(
    const std::vector<sim::PhaseProgram>& thread_programs) {
  // Per thread: its largest declared marked demand on each resource.
  // Process: their sum — the worst-case simultaneous footprint the node's
  // gate may see on any one resource.
  DemandVector total{};
  for (const sim::PhaseProgram& program : thread_programs) {
    DemandVector peak{};
    for (const sim::PhaseSpec& phase : program.phases) {
      if (!phase.marked) continue;
      auto& llc = peak[static_cast<std::size_t>(ResourceKind::kLLC)];
      llc = std::max(llc, static_cast<double>(phase.declared_wss()));
      auto& bw = peak[static_cast<std::size_t>(ResourceKind::kMemBandwidth)];
      bw = std::max(bw, phase.bw_bytes_per_sec);
      auto& w = peak[static_cast<std::size_t>(ResourceKind::kEnergyBudget)];
      w = std::max(w, phase.watts);
    }
    for (std::size_t k = 0; k < kNumResourceKinds; ++k) total[k] += peak[k];
  }
  return total;
}

double ClusterScheduler::node_capacity(int node) const {
  return node_capacity(node, ResourceKind::kLLC);
}

double ClusterScheduler::node_capacity(int node, ResourceKind kind) const {
  // The capacity the node's own admission core decides against — the same
  // number its predicate will enforce at runtime. Gateless nodes fall back
  // to the raw machine figures; a kind the node does not constrain reports
  // zero (and is skipped by fits()).
  const core::AdmissionCore* core = node_core(node);
  if (core != nullptr) return core->resources().capacity(kind);
  switch (kind) {
    case ResourceKind::kLLC:
      return static_cast<double>(config_.node.machine.llc_bytes);
    case ResourceKind::kMemBandwidth:
      return config_.node.machine.dram_bandwidth;
    default:
      return 0.0;
  }
}

bool ClusterScheduler::fits(int node, const DemandVector& demand) const {
  for (std::size_t k = 0; k < kNumResourceKinds; ++k) {
    if (demand[k] <= 0.0) continue;
    const double cap = node_capacity(node, static_cast<ResourceKind>(k));
    if (cap <= 0.0) continue;  // unconstrained on this node
    if (node_demand_vec_[static_cast<std::size_t>(node)][k] + demand[k] >
        cap) {
      return false;
    }
  }
  return true;
}

void ClusterScheduler::charge_node(int node, const Submission& s,
                                   double sign) {
  const std::size_t n = static_cast<std::size_t>(node);
  node_demand_[n] += sign * s.demand;
  for (std::size_t k = 0; k < kNumResourceKinds; ++k) {
    node_demand_vec_[n][k] += sign * s.demand_vec[k];
  }
}

void ClusterScheduler::note_placement(TenantId tenant, int node,
                                      double demand) {
  if (tenant == kNoTenant) return;
  TenantHome& home = tenant_homes_[tenant];
  if (home.node != node) {
    // Spill or first placement: the working set starts rebuilding on the
    // new node, so that IS the home now.
    home.node = node;
    home.footprint = 0.0;
  }
  home.footprint += demand;
}

int ClusterScheduler::tenant_home(TenantId tenant) const {
  const auto it = tenant_homes_.find(tenant);
  if (it == tenant_homes_.end()) return -1;
  const int node = it->second.node;
  if (node < 0 || node_down_[static_cast<std::size_t>(node)]) return -1;
  return node;
}

int ClusterScheduler::pick_node(const DemandVector& demand,
                                TenantId tenant) const {
  const auto up = [&](int n) { return !node_down_[static_cast<std::size_t>(n)]; };
  // Least-loaded healthy node: shared fallback of two policies.
  const auto least_loaded = [&]() {
    int best = -1;
    for (int n = 0; n < config_.nodes; ++n) {
      if (!up(n)) continue;
      if (best < 0 || node_demand_[n] < node_demand_[best]) best = n;
    }
    return best;
  };
  switch (policy_) {
    case PlacementPolicy::kRoundRobin: {
      for (int step = 0; step < config_.nodes; ++step) {
        const int n = (next_round_robin_ + step) % config_.nodes;
        if (up(n)) return n;
      }
      return -1;
    }
    case PlacementPolicy::kLeastDeclaredLoad:
      return least_loaded();
    case PlacementPolicy::kFirstFitCapacity: {
      for (int n = 0; n < config_.nodes; ++n) {
        if (!up(n)) continue;
        if (fits(n, demand)) return n;
      }
      // Nothing fits: fall back to the least-loaded healthy node.
      return least_loaded();
    }
    case PlacementPolicy::kLocalityAware: {
      // Stay on the node already holding the tenant's working set while the
      // node's total placed demand still fits EVERY resource it constrains;
      // a tenant that outgrows the node on any one resource (LLC, DRAM
      // bandwidth, watts) spills to the least-loaded one (and re-homes
      // there — the working set rebuilds where the periods now run).
      const int home = tenant_home(tenant);
      if (home >= 0 && fits(home, demand)) return home;
      return least_loaded();
    }
  }
  return -1;
}

std::size_t ClusterScheduler::steal_rebalance() {
  RDA_CHECK_MSG(!ran_, "steal_rebalance after run()");
  std::size_t moved_total = 0;
  // Each pass moves one whole tenant batch onto one idle node; repeat until
  // no healthy node idles or no donor can spare a batch. Terminates: every
  // move makes one idle node non-idle and never empties a donor.
  while (true) {
    int thief = -1;
    for (int n = 0; n < config_.nodes; ++n) {
      if (node_down_[static_cast<std::size_t>(n)]) continue;
      if (node_pending_[static_cast<std::size_t>(n)].empty()) {
        thief = n;
        break;
      }
    }
    if (thief < 0) break;

    // Donor: the most-loaded healthy node holding at least two distinct
    // tenant batches (stealing its only batch would just move the idleness).
    // Victim batch: the donor's smallest tenant footprint — cheapest working
    // set to re-warm on the thief's cold LLC. Anonymous submissions
    // (kNoTenant) have no shared working set and count as one batch.
    int donor = -1;
    for (int n = 0; n < config_.nodes; ++n) {
      if (n == thief || node_down_[static_cast<std::size_t>(n)]) continue;
      std::unordered_map<TenantId, double> batches;
      for (const Submission& s : node_pending_[static_cast<std::size_t>(n)]) {
        batches[s.tenant] += s.demand;
      }
      if (batches.size() < 2) continue;
      if (donor < 0 || node_demand_[n] > node_demand_[donor]) donor = n;
    }
    if (donor < 0) break;

    std::unordered_map<TenantId, double> batches;
    for (const Submission& s : node_pending_[static_cast<std::size_t>(donor)]) {
      batches[s.tenant] += s.demand;
    }
    TenantId victim = kNoTenant;
    bool have_victim = false;
    for (const auto& [tenant, footprint] : batches) {
      if (!have_victim || footprint < batches[victim] ||
          (footprint == batches[victim] && tenant < victim)) {
        victim = tenant;
        have_victim = true;
      }
    }

    // Move the whole batch, preserving submission order.
    std::vector<Submission>& donor_pending =
        node_pending_[static_cast<std::size_t>(donor)];
    std::vector<Submission> kept;
    std::size_t moved = 0;
    for (Submission& s : donor_pending) {
      if (s.tenant != victim) {
        kept.push_back(std::move(s));
        continue;
      }
      charge_node(donor, s, -1.0);
      charge_node(thief, s, +1.0);
      --node_processes_[donor];
      ++node_processes_[thief];
      note_placement(s.tenant, thief, s.demand);
      node_pending_[static_cast<std::size_t>(thief)].push_back(std::move(s));
      ++moved;
    }
    donor_pending = std::move(kept);
    ++steals_;
    moved_total += moved;
    trace_node(obs::EventKind::kSteal, thief, static_cast<double>(moved));
  }
  return moved_total;
}

const core::AdmissionCore* ClusterScheduler::node_core(int node) const {
  RDA_CHECK(node >= 0 && node < config_.nodes);
  const core::RdaScheduler* gate = gates_[static_cast<std::size_t>(node)].get();
  return gate != nullptr ? &gate->core() : nullptr;
}

int ClusterScheduler::add_process(
    std::vector<sim::PhaseProgram> thread_programs, bool task_pool,
    TenantId tenant) {
  RDA_CHECK_MSG(!ran_, "cannot add processes after run()");
  RDA_CHECK(!thread_programs.empty());
  const DemandVector demand_vec = process_demand_vector(thread_programs);
  const double demand =
      demand_vec[static_cast<std::size_t>(ResourceKind::kLLC)];

  int node = -1;
  // Bounded retry: each failed attempt either consumes an armed fault or
  // marks a node down, so the loop terminates long before the bound.
  const int max_attempts = 1 + 8 * config_.nodes;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    if (config_.fault_injector != nullptr) probe_recoveries();
    node = pick_node(demand_vec, tenant);
    if (node < 0) {
      // Every node down: rejoin the least-failed one — submission must
      // never wedge on an all-down fleet.
      int best = 0;
      for (int n = 1; n < config_.nodes; ++n) {
        if (route_failures_[n] < route_failures_[best]) best = n;
      }
      mark_up(best);
      node = best;
    }
    if (config_.fault_injector == nullptr) break;
    const fault::FaultSpec* fired = config_.fault_injector->consult(
        fault::Hook::kNodeRoute, sim::kInvalidThread, node);
    if (fired == nullptr || fired->kind != fault::FaultKind::kNodeFail) break;
    ++total_route_failures_;
    const std::size_t idx = static_cast<std::size_t>(node);
    if (++route_failures_[idx] >= config_.node_fail_threshold) {
      mark_down(node);
    }
    node = -1;  // bounce: retry placement
  }
  RDA_CHECK_MSG(node >= 0, "cluster routing retries exhausted");
  next_round_robin_ = (node + 1) % config_.nodes;

  Submission s;
  s.programs = std::move(thread_programs);
  s.task_pool = task_pool;
  s.demand = demand;
  s.demand_vec = demand_vec;
  s.tenant = tenant;
  charge_node(node, s, +1.0);
  ++node_processes_[node];
  note_placement(tenant, node, demand);
  node_pending_[static_cast<std::size_t>(node)].push_back(std::move(s));
  return node;
}

ClusterResult ClusterScheduler::run() {
  RDA_CHECK_MSG(!ran_, "ClusterScheduler::run is single-shot");
  // Locality-aware placement trades balance for warm caches; the steal pass
  // claws the balance back where it is free (a node that would sit idle).
  if (policy_ == PlacementPolicy::kLocalityAware) steal_rebalance();
  ran_ = true;
  // Materialize the surviving placement: threads enter the engines only now,
  // so a node failure during submission re-routed whole processes cleanly.
  for (int n = 0; n < config_.nodes; ++n) {
    sim::Engine& engine = *engines_[n];
    for (Submission& s : node_pending_[static_cast<std::size_t>(n)]) {
      const sim::ProcessId pid = engine.create_process();
      if (s.task_pool && gates_[n]) gates_[n]->mark_pool(pid);
      for (sim::PhaseProgram& program : s.programs) {
        engine.add_thread(pid, std::move(program));
      }
    }
    node_pending_[static_cast<std::size_t>(n)].clear();
  }
  ClusterResult result;
  result.processes_per_node = node_processes_;
  result.node_failures = total_route_failures_;
  result.reroutes = reroutes_;
  result.steals = steals_;
  for (int n = 0; n < config_.nodes; ++n) {
    if (engines_[n]->thread_count() == 0) {
      // Idle node: contributes only static power for the cluster makespan;
      // represent it with an empty result.
      result.nodes.push_back(sim::SimResult{});
      continue;
    }
    result.nodes.push_back(engines_[n]->run());
  }
  for (int n = 0; n < config_.nodes; ++n) {
    const core::AdmissionCore* core = node_core(n);
    if (core != nullptr) result.admission += core->stats();
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
