#include "service/frontend.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

#include "util/check.hpp"

namespace rda::service {

namespace {

/// Virtual time between drain passes.
constexpr double kDrainIntervalSeconds = 1.0e-3;
/// Most submissions one drain pass takes: the whole requeue list, then
/// fresh submissions while the pass holds fewer than this.
constexpr std::size_t kDrainBatchMax = 4096;
/// Weight of each new sample in the ladder's backlog and latency EWMAs.
constexpr double kEwmaAlpha = 0.25;
/// Rung 1 caps a demand at this fraction of the node LLC, and the clamped
/// period runs kClampPenalty× slower.
constexpr double kClampFraction = 0.5;
constexpr double kClampPenalty = 1.25;
/// Rung 2 divides every demand by the paper's Compromise x; the period
/// runs kThrashPenalty× slower (as does any period admitted onto a node
/// whose TRUE load exceeds its LLC, under model_true_occupancy).
constexpr double kOversubscription = 2.0;
constexpr double kThrashPenalty = 1.5;
/// A period placed on its tenant's home node runs warm, this much faster.
constexpr double kWarmServiceFactor = 0.6;
/// Bounded home affinity (kLocalityAware only): a period whose home is up
/// parks on the home's waitlist while fewer than this many periods are
/// parked there, since it will run warm once capacity frees. Beyond the
/// limit it spills cold to a node that can admit it now, if one exists
/// (the home does NOT move), capping the latency a hot tenant pays for
/// warmth. With the whole fleet saturated it parks at home regardless,
/// since waiting warm beats waiting cold.
constexpr std::size_t kHomeParkLimit = 2;

}  // namespace

std::string_view to_string(RoutePolicy policy) {
  switch (policy) {
    case RoutePolicy::kLocalityAware: return "locality-aware";
    case RoutePolicy::kRandom: return "random";
  }
  return "?";
}

ServiceFrontEnd::ServiceFrontEnd(ServiceConfig config)
    : config_(config),
      rng_(kSeed),
      node_up_(static_cast<std::size_t>(config.nodes), true),
      outstanding_(static_cast<std::size_t>(config.nodes), 0.0),
      in_flight_count_(static_cast<std::size_t>(config.nodes), 0),
      parked_depth_(static_cast<std::size_t>(config.nodes), 0) {
  RDA_CHECK_MSG(config_.nodes >= 1, "service needs at least one node");
  RDA_CHECK_MSG(config_.shed_keep_fraction >= 0.0 &&
                    config_.shed_keep_fraction < 1.0,
                "shed keep fraction must be in [0, 1)");
  true_outstanding_.assign(static_cast<std::size_t>(config_.nodes), 0.0);
  node_scratch_.resize(static_cast<std::size_t>(config_.nodes));
  if (config_.enforce) {
    ledger_ = std::make_unique<TenantLedger>(config_.trace_sink);
  }
  cores_.reserve(static_cast<std::size_t>(config_.nodes));
  for (int n = 0; n < config_.nodes; ++n) {
    core::AdmissionConfig cc;
    cc.llc_capacity_bytes = config_.node_llc_bytes;
    cc.policy = core::PolicyKind::kStrict;
    cc.trace_sink = config_.trace_sink;
    cores_.push_back(std::make_unique<core::AdmissionCore>(cc));
    cores_.back()->set_batch_waker(
        [this, n](const std::vector<core::ProgressMonitor::WakeGrant>&
                      grants) { on_wakes(n, grants); });
  }
}

std::uint64_t ServiceFrontEnd::flight_key(int node, core::PeriodId period) {
  RDA_CHECK(period < (std::uint64_t{1} << 56));
  return (static_cast<std::uint64_t>(node) << 56) | period;
}

int ServiceFrontEnd::tenant_home(std::uint64_t tenant) const {
  const int* home = tenant_home_.find(tenant);
  if (home == nullptr) return -1;
  return node_up_[static_cast<std::size_t>(*home)] ? *home : -1;
}

std::size_t ServiceFrontEnd::backlog() const {
  return queue_.size() + parked_.size();
}

ServiceFrontEnd::Sub& ServiceFrontEnd::SubRing::push_back(const Sub& sub) {
  if (size_ == slots_.size()) {
    std::vector<Sub> grown(slots_.empty() ? 64 : 2 * slots_.size());
    for (std::size_t i = 0; i < size_; ++i) {
      grown[i] = slots_[(head_ + i) & (slots_.size() - 1)];
    }
    slots_.swap(grown);
    head_ = 0;
  }
  Sub& slot = slots_[(head_ + size_) & (slots_.size() - 1)];
  slot = sub;
  ++size_;
  return slot;
}

void ServiceFrontEnd::fold_checksum(std::uint64_t a, std::uint64_t b) {
  const auto mix = [this](std::uint64_t x) {
    checksum_ ^=
        x + 0x9e3779b97f4a7c15ull + (checksum_ << 6) + (checksum_ >> 2);
  };
  mix(a);
  mix(b);
}

void ServiceFrontEnd::trace_service(obs::EventKind kind, double at,
                                    std::uint64_t seq, std::uint64_t tenant,
                                    double demand) {
  if (config_.trace_sink == nullptr) return;
  obs::Event e;
  e.time = at;
  e.kind = kind;
  e.thread = static_cast<sim::ThreadId>(seq);
  e.process = static_cast<sim::ProcessId>(tenant);
  e.demand = demand;
  config_.trace_sink->record(e);
}

void ServiceFrontEnd::enqueue(const Sub& sub, double at) {
  if (queue_.size() >= config_.queue_capacity) {
    ++stats_.overflow_drops;  // never entered the ledger
    return;
  }
  Sub& queued = queue_.push_back(sub);
  queued.enqueue_time = at;
  ++stats_.enqueued;
  trace_service(obs::EventKind::kEnqueue, at, sub.seq, sub.tenant,
                sub.demand);
}

void ServiceFrontEnd::requeue(const Sub& sub, double at) {
  ++stats_.enqueued;
  trace_service(obs::EventKind::kEnqueue, at, sub.seq, sub.tenant,
                sub.demand);
  requeued_.push_back(sub);
  ++stats_.mailboxed;
  trace_service(obs::EventKind::kMailbox, at, sub.seq, sub.tenant,
                sub.demand);
}

std::optional<ServiceFrontEnd::Sub> ServiceFrontEnd::withdraw_parked(
    std::uint64_t key, double now) {
  const Parked* found = parked_.find(key);
  if (found == nullptr) return std::nullopt;
  const Parked parked = *found;
  const core::PeriodId period = key & ((std::uint64_t{1} << 56) - 1);
  const core::WithdrawResult result =
      cores_[static_cast<std::size_t>(parked.node)]->try_withdraw(period, now);
  RDA_CHECK_MSG(result == core::WithdrawResult::kCancelled,
                "parked period raced its own wake");
  // By key: the withdrawal may have delivered wakes that edited parked_.
  parked_.erase(key);
  --parked_depth_[static_cast<std::size_t>(parked.node)];
  if (ledger_ != nullptr) --tenant_open_[parked.sub.tenant];
  return parked.sub;
}

int ServiceFrontEnd::least_loaded() const {
  int best = -1;
  for (int n = 0; n < config_.nodes; ++n) {
    if (!node_up_[static_cast<std::size_t>(n)]) continue;
    if (best < 0 || outstanding_[static_cast<std::size_t>(n)] <
                        outstanding_[static_cast<std::size_t>(best)]) {
      best = n;
    }
  }
  return best;
}

int ServiceFrontEnd::route(std::uint64_t tenant, double declared,
                           bool& warm) {
  warm = false;
  int chosen = -1;
  switch (config_.routing) {
    case RoutePolicy::kRandom: {
      // The draw picks the k-th up node, in node order.
      std::uint64_t up = 0;
      for (int n = 0; n < config_.nodes; ++n) {
        if (node_up_[static_cast<std::size_t>(n)]) ++up;
      }
      RDA_CHECK_MSG(up > 0, "no node is up to route to");
      std::uint64_t pick = rng_.next_below(up);
      for (int n = 0; chosen < 0; ++n) {
        if (node_up_[static_cast<std::size_t>(n)] && pick-- == 0) chosen = n;
      }
      break;
    }
    case RoutePolicy::kLocalityAware: {
      // Prefer the home node, where the tenant's footprint is warm:
      //   1. the home can admit now, or its waitlist is still shallow
      //      (a short warm wait beats a cold run) -> home;
      //   2. the home is deep but some node can admit NOW -> spill cold
      //      there (the home does not move), capping the latency a hot
      //      tenant pays for warmth;
      //   3. the whole fleet is saturated -> park at home after all:
      //      everywhere means waiting, so wait where the period will run
      //      warm. Cross-node imbalance is the steal pass's job,
      //      sustained overload the ladder's (the depth EWMA counts
      //      parked periods).
      const int home = tenant_home(tenant);
      if (home < 0) {
        chosen = least_loaded();
      } else {
        const auto h = static_cast<std::size_t>(home);
        if (outstanding_[h] + declared <= config_.node_llc_bytes ||
            parked_depth_[h] < kHomeParkLimit) {
          chosen = home;
          warm = true;
        } else {
          const int alt = least_loaded();
          if (alt >= 0 && alt != home &&
              outstanding_[static_cast<std::size_t>(alt)] + declared <=
                  config_.node_llc_bytes) {
            chosen = alt;
          } else {
            chosen = home;
            warm = true;
          }
        }
      }
      break;
    }
  }
  RDA_CHECK_MSG(chosen >= 0, "no node is up to route to");
  if (config_.routing == RoutePolicy::kLocalityAware) {
    // The home is sticky: a spill runs cold on another node while the
    // tenant's working set stays warm at home (re-homing on every spill
    // would shear the footprint exactly when the fleet saturates). Only
    // the first placement, a steal, or a node death moves the home.
    tenant_home_.insert(tenant, chosen);
  } else {
    // Under kRandom a placement that happens to land on the tenant's
    // previous node is warm too — warmth is discovered there, not
    // engineered — and the home follows the latest placement.
    const auto [home, inserted] = tenant_home_.insert(tenant, chosen);
    warm = !inserted && *home == chosen;
    *home = chosen;
  }
  return chosen;
}

double ServiceFrontEnd::shape_demand(const Sub& sub, double& penalty,
                                     bool& clamped,
                                     bool& oversubscribed) const {
  clamped = false;
  oversubscribed = false;
  // Safety clamp: a demand larger than the node can never be admitted by
  // the strict predicate; cap it like watchdog rung 1 would.
  double shaped = std::min(sub.demand, config_.node_llc_bytes);
  if (ladder_.rung() >= 1) {
    const double cap = kClampFraction * config_.node_llc_bytes;
    if (shaped > cap) {
      shaped = cap;
      clamped = true;
      penalty *= kClampPenalty;
    }
  }
  if (ladder_.rung() >= 2) {
    // Thrash rung: the node is past the point where precise accounting
    // helps; trade fidelity for throughput.
    shaped /= kOversubscription;
    oversubscribed = true;
    penalty *= kThrashPenalty;
  }
  return shaped;
}

void ServiceFrontEnd::charge_outstanding(int node, double declared,
                                         double sign) {
  double& outstanding = outstanding_[static_cast<std::size_t>(node)];
  outstanding += sign * declared;
  if (sign > 0.0) peak_outstanding_ = std::max(peak_outstanding_, outstanding);
}

double ServiceFrontEnd::true_occupancy(const Sub& sub) const {
  const double touched = sub.true_demand > 0.0 ? sub.true_demand : sub.demand;
  // A working set cannot occupy more LLC than the node has.
  return std::min(touched, config_.node_llc_bytes);
}

void ServiceFrontEnd::apply_audits() {
  for (const AuditRecord& a : pending_audits_) {
    ledger_->audit(a.tenant, a.declared, a.observed, a.contended, a.time);
  }
  pending_audits_.clear();
}

bool ServiceFrontEnd::enforce_ledger(const Sub& sub, double& llc) {
  // Rung 4: hard quota on open submissions. Shedding (not parking) the
  // excess keeps the drain loop live — a parked-forever quota victim would
  // wedge quiescence — and the ledger invariants intact (the shed is
  // counted like any ladder shed).
  std::uint64_t& open = tenant_open_[sub.tenant];
  if (!ledger_->within_quota(sub.tenant, open)) {
    ++stats_.quota_denied;
    return false;
  }

  // Rung 1+: haircut — admission charges the audited truth, not the claim.
  const double correction = ledger_->demand_correction(sub.tenant);
  if (correction != 1.0) {
    llc = std::min(llc * correction, config_.node_llc_bytes);
    ++stats_.haircuts;
  }

  // Credit-priced bursts: demand beyond the long-term fair share (an equal
  // split of fleet LLC across the tenants seen so far) must be funded by
  // banked credits, surcharge-priced at rung >= 2. An unfundable burst is
  // clamped to the fair share, never shed — fair share is guaranteed,
  // bursts are a privilege.
  const double fair =
      static_cast<double>(config_.nodes) * config_.node_llc_bytes /
      static_cast<double>(std::max<std::size_t>(tenant_rows_.size(), 1));
  if (llc > fair) {
    const double unit = TenantLedger::kCreditUnitBytes;
    const auto units_over =
        static_cast<std::uint64_t>(std::ceil((llc - fair) / unit));
    const auto want = static_cast<std::uint64_t>(std::ceil(
        static_cast<double>(units_over) * ledger_->credit_price(sub.tenant)));
    if (ledger_->credits_balance(sub.tenant) >= want) {
      const std::uint64_t paid = ledger_->spend(sub.tenant, want, now_);
      RDA_CHECK_MSG(paid == want, "funded burst paid short");
    } else {
      llc = fair;
      ++stats_.burst_clamps;
    }
  }

  ++open;  // the submission is now headed for admit_batch (or a waitlist)
  return true;
}

void ServiceFrontEnd::record_admission(const Sub& sub, int node,
                                       core::PeriodId period, double declared,
                                       double penalty, bool warm,
                                       bool from_wake) {
  const double latency = std::max(0.0, now_ - sub.enqueue_time);
  latency_.add(latency);
  latency_ewma_ = kEwmaAlpha * latency + (1.0 - kEwmaAlpha) * latency_ewma_;
  ++stats_.admitted;
  if (from_wake) ++stats_.woken;
  TenantSummary& row = tenant_rows_[sub.tenant];
  row.tenant = sub.tenant;
  ++row.admissions;
  row.latency_sum += latency;

  if (config_.model_true_occupancy) {
    // The thrash model: the node's PHYSICAL load is the sum of what its
    // periods actually touch. A period admitted while that exceeds the LLC
    // runs slower — which is exactly the damage an under-declarer does,
    // with or without enforcement.
    double& true_load = true_outstanding_[static_cast<std::size_t>(node)];
    true_load += true_occupancy(sub);
    if (true_load > config_.node_llc_bytes) penalty *= kThrashPenalty;
  }

  const double factor = penalty * (warm ? kWarmServiceFactor : 1.0);
  const double done_at = now_ + sub.service * factor;
  const std::uint64_t key = flight_key(node, period);
  Flight flight;
  flight.sub = sub;
  flight.node = node;
  flight.thread = static_cast<sim::ThreadId>(sub.seq);
  flight.declared = declared;
  flight.done_at = done_at;
  RDA_CHECK(in_flight_.insert(key, flight).second);
  charge_outstanding(node, declared, +1.0);
  ++in_flight_count_[static_cast<std::size_t>(node)];

  completions_.push(Completion{done_at, key});
  fold_checksum(sub.seq, (static_cast<std::uint64_t>(node) << 32) ^
                             std::bit_cast<std::uint64_t>(done_at));
}

void ServiceFrontEnd::on_wakes(
    int node, const std::vector<core::ProgressMonitor::WakeGrant>& grants) {
  for (const core::ProgressMonitor::WakeGrant& grant : grants) {
    const std::uint64_t key = flight_key(node, grant.period);
    const Parked* found = parked_.find(key);
    RDA_CHECK_MSG(found != nullptr,
                  "wake for a period the service never parked");
    const Parked parked = *found;
    parked_.erase(key);
    --parked_depth_[static_cast<std::size_t>(node)];
    record_admission(parked.sub, node, grant.period, parked.declared,
                     parked.penalty, parked.warm, /*from_wake=*/true);
  }
}

void ServiceFrontEnd::release_due(double now) {
  // Pop everything due, bucketing per node so each node pays ONE
  // release_batch (one slow-lane pass + one wake delivery) per drain.
  for (NodeScratch& scratch : node_scratch_) scratch.due.clear();
  while (!completions_.empty() && completions_.top().time <= now) {
    const Completion top = completions_.top();
    completions_.pop();
    const Flight* flight = in_flight_.find(top.key);
    if (flight == nullptr) continue;  // reaped by a node death
    node_scratch_[static_cast<std::size_t>(flight->node)].due.push_back(
        top.key & ((std::uint64_t{1} << 56) - 1));
  }
  for (int n = 0; n < config_.nodes; ++n) {
    const std::vector<core::PeriodId>& ids =
        node_scratch_[static_cast<std::size_t>(n)].due;
    if (ids.empty()) continue;
    // Settle the outstanding mirror BEFORE release_batch: the core frees the
    // completed periods' budget and synchronously wakes parked work in that
    // call, and the wake path charges the woken flights' demands. Were the
    // completed flights still on the books at that moment, the mirror would
    // transiently double-count (completed + woken) and peak_outstanding
    // would read ~2x a bound the core never actually exceeded.
    for (const core::PeriodId id : ids) {
      const std::uint64_t key = flight_key(n, id);
      const Flight* found = in_flight_.find(key);
      RDA_CHECK(found != nullptr);
      const Flight& flight = *found;
      const double done = flight.done_at;
      ++stats_.completed;
      completed_work_ += flight.sub.service;
      last_completion_ = std::max(last_completion_, done);
      TenantSummary& row = tenant_rows_[flight.sub.tenant];
      row.tenant = flight.sub.tenant;
      ++row.completed;
      row.work += flight.sub.service;
      if (config_.model_true_occupancy) {
        true_outstanding_[static_cast<std::size_t>(n)] -=
            true_occupancy(flight.sub);
      }
      if (ledger_ != nullptr) {
        --tenant_open_[flight.sub.tenant];
        // Deferred to the next drain pass's apply_audits().
        AuditRecord audit;
        audit.tenant = flight.sub.tenant;
        audit.declared = flight.sub.demand;
        audit.observed = config_.model_true_occupancy
                             ? true_occupancy(flight.sub)
                             : flight.sub.demand;
        // Under global overload the fleet itself limits what a period can
        // occupy; a below-declaration peak is then a lower bound, not a lie.
        audit.contended = ladder_.rung() >= 2;
        audit.time = done;
        pending_audits_.push_back(audit);
      }
      charge_outstanding(n, flight.declared, -1.0);
      --in_flight_count_[static_cast<std::size_t>(n)];
      fold_checksum(flight.sub.seq, std::bit_cast<std::uint64_t>(done));
      in_flight_.erase(key);
    }
    release_tickets_.resize(ids.size());
    cores_[static_cast<std::size_t>(n)]->release_batch(ids, now,
                                                       release_tickets_);
    // The closed records hand their demand buffers back for reuse.
    for (core::ReleaseTicket& ticket : release_tickets_) {
      std::vector<core::ResourceDemand>& demands = ticket.record.demands;
      if (demands.capacity() == 0) continue;
      demands.clear();
      spare_demands_.push_back(std::move(demands));
    }
  }
}

void ServiceFrontEnd::apply_fault(double now) {
  const NodeFault& fault = config_.fault;
  if (fault.node < 0 || fault.node >= config_.nodes) return;
  const auto n = static_cast<std::size_t>(fault.node);

  if (!fault_done_ && !fault_down_ && now >= fault.fail_at_seconds) {
    fault_down_ = true;
    node_up_[n] = false;
    if (fault.recover_at_seconds <= fault.fail_at_seconds) fault_done_ = true;
    trace_service(obs::EventKind::kNodeDown, now, 0, 0, outstanding_[n]);

    // Cancel every period parked on the dead node and re-queue its
    // submission (deterministic order: ascending period id).
    std::vector<std::uint64_t> parked_keys;
    for (const auto& [key, parked] : parked_) {
      if (parked.node == fault.node) parked_keys.push_back(key);
    }
    std::sort(parked_keys.begin(), parked_keys.end());
    for (const std::uint64_t key : parked_keys) {
      // An earlier withdrawal can unblock the dying node's waitlist and
      // wake (admit) a later parked period; it lands in in_flight_ and the
      // reap loop below re-queues it instead.
      std::optional<Sub> sub = withdraw_parked(key, now);
      if (!sub) continue;
      ++stats_.reroutes;
      sub->enqueue_time = now;
      requeue(*sub, now);
    }

    // Reap every admitted period the node was carrying and re-queue it;
    // the stale completions are skipped when their time comes.
    std::vector<std::uint64_t> flight_keys;
    for (const auto& [key, flight] : in_flight_) {
      if (flight.node == fault.node) flight_keys.push_back(key);
    }
    std::sort(flight_keys.begin(), flight_keys.end());
    for (const std::uint64_t key : flight_keys) {
      const Flight flight = *in_flight_.find(key);
      const core::ProgressMonitor::ReapOutcome outcome =
          cores_[n]->reap(flight.thread, now);
      RDA_CHECK_MSG(outcome.reaped && outcome.was_admitted,
                    "in-flight period was not admitted at reap time");
      in_flight_.erase(key);
      charge_outstanding(fault.node, flight.declared, -1.0);
      if (config_.model_true_occupancy) {
        true_outstanding_[n] -= true_occupancy(flight.sub);
      }
      if (ledger_ != nullptr) --tenant_open_[flight.sub.tenant];
      --in_flight_count_[n];
      ++stats_.reroutes;
      Sub sub = flight.sub;
      sub.enqueue_time = now;
      requeue(sub, now);
    }

    // The dead node is nobody's home anymore.
    std::vector<std::uint64_t> homeless;
    for (const auto& [tenant, home] : tenant_home_) {
      if (home == fault.node) homeless.push_back(tenant);
    }
    for (const std::uint64_t tenant : homeless) tenant_home_.erase(tenant);
    return;
  }

  if (fault_down_ && !fault_done_ && now >= fault.recover_at_seconds) {
    fault_down_ = false;
    fault_done_ = true;
    node_up_[n] = true;
    trace_service(obs::EventKind::kNodeUp, now, 0, 0, 0.0);
  }
}

void ServiceFrontEnd::steal_pass(double now) {
  if (config_.routing != RoutePolicy::kLocalityAware || parked_.empty()) {
    return;
  }

  // The thief: the first up node with nothing admitted and nothing parked.
  int thief = -1;
  for (int n = 0; n < config_.nodes; ++n) {
    const auto idx = static_cast<std::size_t>(n);
    if (node_up_[idx] && in_flight_count_[idx] == 0 &&
        parked_depth_[idx] == 0) {
      thief = n;
      break;
    }
  }
  if (thief < 0) return;

  // Aggregate the parked population per (node, tenant): sorted by node,
  // tenant and key, so the pass is deterministic regardless of hash order
  // and each (node, tenant) batch is one run of ascending keys.
  steal_scratch_.clear();
  for (const auto& [key, parked] : parked_) {
    steal_scratch_.push_back({parked.node, parked.sub.tenant, key});
  }
  std::sort(steal_scratch_.begin(), steal_scratch_.end());
  const auto run_end = [&](std::size_t i) {
    std::size_t j = i;
    while (j < steal_scratch_.size() &&
           steal_scratch_[j].node == steal_scratch_[i].node &&
           steal_scratch_[j].tenant == steal_scratch_[i].tenant) {
      ++j;
    }
    return j;
  };

  // Donor: the node with the deepest parked backlog, but only if it holds
  // MORE than one tenant's batch — stealing a lone tenant's batch would
  // just shear its working set to a cold LLC for nothing.
  int donor = -1;
  std::size_t donor_depth = 0;
  std::size_t donor_begin = 0;
  std::size_t donor_end = 0;
  for (std::size_t i = 0; i < steal_scratch_.size();) {
    const int node = steal_scratch_[i].node;
    std::size_t tenants_here = 0;
    std::size_t j = i;
    while (j < steal_scratch_.size() && steal_scratch_[j].node == node) {
      ++tenants_here;
      j = run_end(j);
    }
    if (node != thief && tenants_here >= 2 && j - i > donor_depth) {
      donor = node;
      donor_depth = j - i;
      donor_begin = i;
      donor_end = j;
    }
    i = j;
  }
  if (donor < 0) return;

  // Victim: the donor's smallest whole batch (ties to the lowest tenant
  // id) — cheapest working set to rebuild on the thief.
  std::uint64_t victim = 0;
  std::size_t victim_size = 0;
  std::size_t victim_begin = 0;
  for (std::size_t i = donor_begin; i < donor_end;) {
    const std::size_t j = run_end(i);
    if (victim == 0 || j - i < victim_size) {
      victim = steal_scratch_[i].tenant;
      victim_size = j - i;
      victim_begin = i;
    }
    i = j;
  }
  RDA_CHECK(victim != 0);

  std::uint64_t moved = 0;
  for (std::size_t i = victim_begin; i < victim_begin + victim_size; ++i) {
    // Withdrawing an earlier victim can unblock the donor's waitlist and
    // wake (admit) a later one mid-batch; a woken period stays home.
    const std::optional<Sub> sub = withdraw_parked(steal_scratch_[i].key, now);
    if (!sub) continue;
    // Stolen work keeps its original enqueue time: its admission latency
    // reflects the whole wait, not a reset clock.
    ++moved;
    requeue(*sub, now);
  }
  if (moved == 0) return;
  tenant_home_[victim] = thief;
  ++stats_.steals;
  stats_.stolen += moved;
  trace_service(obs::EventKind::kSteal, now, 0, victim,
                static_cast<double>(moved));
}

void ServiceFrontEnd::set_llc_demand(core::AdmitRequest& request,
                                     double declared) {
  std::vector<core::ResourceDemand>& demands = request.demands;
  if (!spare_demands_.empty()) {
    demands.swap(spare_demands_.back());
    spare_demands_.pop_back();
  }
  demands.assign(1, core::ResourceDemand{ResourceKind::kLLC, declared});
}

void ServiceFrontEnd::drain_pass(double now) {
  // Fold last release's audits into the ledger BEFORE any enforcement
  // decision this pass — enforcement always acts on settled evidence.
  apply_audits();

  // Requeued work first, in the order it was displaced; then fresh
  // submissions in arrival order while the pass has room.
  popped_.clear();
  popped_.swap(requeued_);
  while (popped_.size() < kDrainBatchMax && !queue_.empty()) {
    popped_.push_back(queue_.front());
    queue_.pop_front();
  }
  if (popped_.empty()) return;

  ++stats_.drains;
  stats_.drained += popped_.size();
  trace_service(obs::EventKind::kBatchDrain, now, stats_.drains, 0,
                static_cast<double>(popped_.size()));

  if (ladder_.rung() >= 3) {
    // SLO-aware shedding: keep the floor(fraction × batch) submissions
    // whose declared work (demand × service) is largest and shed the
    // cheap tail first — the kept few carry most of the batch's work, so
    // goodput degrades less than dropping everything. fraction 0 is
    // exactly the old drop-all rung.
    const std::size_t keep = static_cast<std::size_t>(
        config_.shed_keep_fraction * static_cast<double>(popped_.size()));
    shed_kept_.assign(popped_.size(), 0);
    if (keep > 0) {
      shed_order_.resize(popped_.size());
      for (std::size_t i = 0; i < shed_order_.size(); ++i) shed_order_[i] = i;
      std::sort(shed_order_.begin(), shed_order_.end(),
                [&](std::size_t a, std::size_t b) {
                  const double ca = popped_[a].demand * popped_[a].service;
                  const double cb = popped_[b].demand * popped_[b].service;
                  if (ca != cb) return ca > cb;
                  return popped_[a].seq < popped_[b].seq;
                });
      for (std::size_t i = 0; i < keep; ++i) shed_kept_[shed_order_[i]] = 1;
    }
    // Survivors move forward in place and proceed to admission, in order.
    std::size_t survivors = 0;
    for (std::size_t i = 0; i < popped_.size(); ++i) {
      if (shed_kept_[i] != 0) {
        popped_[survivors++] = popped_[i];
        continue;
      }
      ++stats_.shed;
      TenantSummary& row = tenant_rows_[popped_[i].tenant];
      row.tenant = popped_[i].tenant;
      ++row.shed;
      trace_service(obs::EventKind::kShed, now, popped_[i].seq,
                    popped_[i].tenant, popped_[i].demand);
    }
    popped_.resize(survivors);
    if (popped_.empty()) return;
  }

  if (ledger_ != nullptr) {
    // Rung 3: deprioritized tenants' submissions go to the BACK of the
    // batch (stable, so order within each class is preserved) — honest
    // tenants' work is routed and admitted first, and when capacity runs
    // out mid-batch it is the deprioritized tail that parks.
    deprioritized_.clear();
    std::size_t honest = 0;
    for (const Sub& sub : popped_) {
      if (ledger_->deprioritized(sub.tenant)) {
        deprioritized_.push_back(sub);
      } else {
        popped_[honest++] = sub;
      }
    }
    popped_.resize(honest);
    popped_.insert(popped_.end(), deprioritized_.begin(),
                   deprioritized_.end());
    stats_.deprioritized += deprioritized_.size();
  }

  // Route every submission, bucketing requests per node so each node pays
  // ONE admit_batch for its whole share of the drain.
  for (NodeScratch& scratch : node_scratch_) {
    scratch.requests.clear();
    scratch.placed.clear();
  }
  for (const Sub& sub : popped_) {
    double penalty = 1.0;
    bool clamped = false;
    bool oversubscribed = false;
    double declared = shape_demand(sub, penalty, clamped, oversubscribed);
    if (clamped) ++stats_.clamped;
    if (oversubscribed) ++stats_.oversubscribed;
    if (ledger_ != nullptr && !enforce_ledger(sub, declared)) {
      // Rung-4 quota shed: counted exactly like a ladder shed so the
      // drained == begins + sheds ledger stays balanced.
      ++stats_.shed;
      TenantSummary& row = tenant_rows_[sub.tenant];
      row.tenant = sub.tenant;
      ++row.shed;
      trace_service(obs::EventKind::kShed, now, sub.seq, sub.tenant,
                    sub.demand);
      continue;
    }
    bool warm = false;
    const int node = route(sub.tenant, declared, warm);
    NodeScratch& batch = node_scratch_[static_cast<std::size_t>(node)];
    core::AdmitRequest& request = batch.requests.emplace_back();
    request.thread = static_cast<sim::ThreadId>(sub.seq);
    request.process = static_cast<sim::ProcessId>(sub.tenant);
    set_llc_demand(request, declared);
    batch.placed.push_back(Placement{&sub, declared, penalty, warm});
  }

  for (int n = 0; n < config_.nodes; ++n) {
    NodeScratch& batch = node_scratch_[static_cast<std::size_t>(n)];
    if (batch.requests.empty()) continue;
    admit_tickets_.resize(batch.requests.size());
    cores_[static_cast<std::size_t>(n)]->admit_batch(batch.requests, now,
                                                     admit_tickets_);
    for (std::size_t i = 0; i < admit_tickets_.size(); ++i) {
      const core::AdmitTicket& ticket = admit_tickets_[i];
      const Placement& placed = batch.placed[i];
      if (ticket.admitted) {
        record_admission(*placed.sub, n, ticket.id, placed.declared,
                         placed.penalty, placed.warm, /*from_wake=*/false);
      } else {
        Parked parked;
        parked.sub = *placed.sub;
        parked.node = n;
        parked.declared = placed.declared;
        parked.penalty = placed.penalty;
        parked.warm = placed.warm;
        RDA_CHECK(
            parked_.insert(flight_key(n, ticket.id), parked).second);
        ++parked_depth_[static_cast<std::size_t>(n)];
      }
    }
  }
}

void ServiceFrontEnd::update_ladder() {
  constexpr double alpha = kEwmaAlpha;
  const auto depth = static_cast<double>(backlog());
  depth_ewma_ = alpha * depth + (1.0 - alpha) * depth_ewma_;
  // With nothing waiting, the current admission latency is effectively
  // zero; decay the EWMA so a drained (or fully shedding) fleet can walk
  // back down the ladder instead of pinning on the last hot sample.
  if (depth == 0.0) latency_ewma_ *= 1.0 - alpha;
  stats_.max_backlog =
      std::max(stats_.max_backlog, static_cast<std::uint64_t>(depth));

  const bool hot = depth_ewma_ > config_.ladder.queue_high ||
                   latency_ewma_ > config_.ladder.latency_high_seconds;
  const bool cool = depth_ewma_ < 0.5 * config_.ladder.queue_high &&
                    latency_ewma_ < 0.5 * config_.ladder.latency_high_seconds;
  if (hot && ladder_.worse(1, 3)) ++stats_.escalations;
  if (cool && ladder_.better(1)) ++stats_.deescalations;
}

ServiceReport ServiceFrontEnd::run(ArrivalSource& arrivals,
                                   std::uint64_t count) {
  RDA_CHECK_MSG(!ran_, "ServiceFrontEnd::run is one-shot");
  ran_ = true;

  Arrival pending{};
  std::uint64_t left = count;
  bool have = false;
  if (left > 0) {
    pending = arrivals.next();
    have = true;
  }

  while (true) {
    const double tick_end = now_ + kDrainIntervalSeconds;
    while (have && pending.time <= tick_end) {
      Sub sub;
      sub.seq = pending.seq;
      sub.tenant = pending.tenant;
      sub.demand = pending.demand_bytes;
      sub.service = pending.service_seconds;
      sub.true_demand = pending.true_demand_bytes;
      TenantSummary& row = tenant_rows_[sub.tenant];
      row.tenant = sub.tenant;
      ++row.arrivals;
      enqueue(sub, pending.time);
      --left;
      if (left > 0) {
        pending = arrivals.next();
      } else {
        have = false;
      }
    }
    now_ = tick_end;

    apply_fault(now_);
    release_due(now_);
    steal_pass(now_);
    drain_pass(now_);
    update_ladder();

    // Keep ticking after the last completion until the ladder settles:
    // idle ticks decay both EWMAs geometrically, so this terminates.
    if (!have && queue_.empty() && parked_.empty() && in_flight_.empty() &&
        completions_.empty() && ladder_.rung() == 0) {
      break;
    }
  }

  // The loop breaks right after drain_pass, whose apply_audits() already
  // folded this tick's completions in; this is a belt-and-braces flush so
  // no captured audit can outlive the run.
  apply_audits();

  ServiceReport report;
  stats_.final_rung = ladder_.rung();
  stats_.still_queued = queue_.size();
  if (ledger_ != nullptr) {
    stats_.audits = ledger_->audits();
    stats_.penalties = ledger_->penalties();
    stats_.credits_granted = ledger_->total_granted();
    stats_.credits_spent = ledger_->total_spent();
  }
  report.stats = stats_;
  report.admission_latency = latency_;
  report.elapsed_seconds = last_completion_ > 0.0 ? last_completion_ : now_;
  if (report.elapsed_seconds > 0.0) {
    report.goodput_per_second =
        static_cast<double>(stats_.completed) / report.elapsed_seconds;
    report.work_per_second = completed_work_ / report.elapsed_seconds;
  }
  report.peak_outstanding = peak_outstanding_;
  for (const auto& core : cores_) report.admission += core->stats();
  report.checksum = checksum_;
  report.tenants.reserve(tenant_rows_.size());
  for (const auto& [tenant, row] : tenant_rows_) {
    TenantSummary out = row;
    if (ledger_ != nullptr) {
      out.rung = ledger_->rung(tenant);
      out.honesty = ledger_->honesty(tenant);
      out.credits = ledger_->credits_balance(tenant);
    }
    report.tenants.push_back(out);
  }
  if (ledger_ != nullptr) {
    report.ledger_fingerprint = ledger_->fingerprint();
    report.credits_conserved = ledger_->credits_conserved();
  }
  return report;
}

}  // namespace rda::service
