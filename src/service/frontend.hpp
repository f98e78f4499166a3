// ServiceFrontEnd — the traffic-scale admission front end (ROADMAP item 2).
//
// Wires the open-loop arrival stream into the sharded AdmissionCore the way
// a production service would: arrivals join one FIFO of fresh submissions;
// the drain loop runs on a fixed virtual-time cadence and, per pass, (1)
// releases every period whose service completed, (2) lets an idle node
// steal a parked tenant batch, (3) takes the whole requeue list (steals
// and node-death reroutes, in the order they were decided) and then fresh
// submissions up to the batch cap, routes each submission to a node, and
// admits each node's share with ONE admit_batch/release_batch call — so
// the slow-lane mutex, the waitlist rescan, and the wake delivery are paid
// once per node per pass instead of once per period. Displaced work thus
// re-enters the drain ahead of fresh arrivals, in the order it was
// displaced (the paper's one wait queue per resource, woken in order).
//
// Placement is locality-aware: a tenant's periods follow its home node (the
// one already holding its LLC working set — warm periods run in 0.6× the
// service time), parking on the home's waitlist up to two deep before
// spilling cold to the least-loaded node, and falling back to least-loaded
// when the home is down. Whole-tenant-batch work stealing keeps a rejoined
// node from idling without shearing any tenant's working set across two
// LLCs.
//
// Overload control is a core::EscalationLadder (the admission watchdog's
// and the tenant ledger's rung machine), keyed off the backlog and
// admission-latency EWMAs: each hot tick climbs one rung, each cool tick
// descends one:
//   rung 0  normal admission,
//   rung 1  clamp: demands capped to half the node LLC (easier to admit,
//           at a 1.25× service-time penalty for the clamped period),
//   rung 2  forced oversubscription: declared demand is additionally
//           halved (the paper's Compromise x = 2), packing ~2 tenants'
//           working sets per LLC (every rung-2 period pays the 1.5×
//           thrash penalty),
//   rung 3  shed: drained submissions are dropped before admission.
// The ladder's backlog and latency EWMAs weight each new sample 0.25, and
// the drain loop ticks every millisecond of virtual time.
//
// Demands are LLC bytes only: the node cores gate the LLC, as the paper
// does. Multi-resource admission stays in the core, for the sim and
// native gates.
//
// The whole simulation is virtual-time and single-threaded: a (config,
// arrival seed) pair reproduces the run bit-for-bit, which the tier-1
// byte-determinism stage depends on. The wall-clock counterpart (real
// producer threads against one core) lives in service/pump.hpp.
//
// Once warm, a run allocates nothing per arrival: the fresh queue is a ring
// that only grows, the drain and release passes fill member scratch that is
// cleared and keeps its capacity, the books keyed by tenant or flight are
// util::FlatMaps, and each request's demand buffer comes back in its
// release ticket and is reused for a later request.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <string_view>
#include <tuple>
#include <vector>

#include "core/admission.hpp"
#include "core/ladder.hpp"
#include "obs/histogram.hpp"
#include "obs/sink.hpp"
#include "service/arrival.hpp"
#include "service/tenant_ledger.hpp"
#include "util/flat_map.hpp"
#include "util/rng.hpp"

namespace rda::service {

enum class RoutePolicy {
  kLocalityAware,  ///< tenant-home placement + whole-batch stealing
  kRandom,         ///< uniform random over up nodes (the strawman)
};

std::string_view to_string(RoutePolicy policy);

struct LadderOptions {
  /// Escalate one rung when the backlog EWMA (queued + parked) exceeds
  /// this, or the admission-latency EWMA exceeds latency_high_seconds.
  double queue_high = 512.0;
  double latency_high_seconds = 0.050;
  /// De-escalation happens when BOTH EWMAs fall below half their
  /// thresholds (hysteresis keeps the ladder from flapping).
};

/// Node death at full load (the fault-matrix cell): the node goes down at
/// fail_at (parked periods are cancelled, admitted ones reaped; both are
/// re-queued) and rejoins idle at recover_at (<= fail_at = never).
struct NodeFault {
  int node = -1;
  double fail_at_seconds = 0.0;
  double recover_at_seconds = 0.0;
};

struct ServiceConfig {
  int nodes = 4;
  /// Unused: the front end drains one queue. Kept only because the
  /// benchmark's service workload still sets it; it goes in the next change
  /// that may edit that workload. (The wall-clock pump's drain threads are
  /// PumpConfig::shards.)
  int drain_shards = 0;
  /// Per-node LLC capacity the admission cores gate against.
  double node_llc_bytes = 15360.0 * 1024.0;
  RoutePolicy routing = RoutePolicy::kLocalityAware;
  /// Overflow bound: a push is dropped when this many fresh submissions
  /// are already queued (requeued and parked work does not count).
  std::size_t queue_capacity = 1 << 16;
  LadderOptions ladder{};
  /// Rung-3 SLO-aware shedding: keep the floor(fraction × batch) drained
  /// submissions carrying the MOST declared work (demand × service time)
  /// and shed the cheap tail — under overload the expensive admissions are
  /// the ones goodput cannot afford to rebuild. 0 = shed the whole batch
  /// (the old drop-all behavior, kept as the regression baseline).
  double shed_keep_fraction = 0.25;
  /// Shared sink for service events AND the node cores' lifecycle events
  /// (non-owning; nullptr = tracing off). Period ids are per-node, so the
  /// per-period obs::reconcile applies per node; the queue-side ledger
  /// (obs::reconcile_service) applies to the combined stream.
  obs::TraceSink* trace_sink = nullptr;
  NodeFault fault{};
  /// Tenant-truth enforcement (DESIGN §17): audit every completion against
  /// its tenant's declaration, run the credit fair-share economy, and apply
  /// the per-tenant penalty ladder in the drain loop — quota sheds, then
  /// haircuts, then credit-priced bursts, then deprioritization. Off by
  /// default so pre-existing runs (and the committed BENCH baselines) stay
  /// byte-identical.
  bool enforce = false;
  /// Occupancy model for the audit path: a completed period reports
  /// min(its TRUE working set, node LLC) as observed peak (true demand 0 =
  /// the declaration was truthful). Also arms the thrash model — a period
  /// admitted while its node's TRUE placed demand exceeds the LLC pays
  /// the 1.5× rung-2 thrash penalty — so an under-declarer does real
  /// damage whether or not enforcement is on. Off = audits see declared ==
  /// observed.
  bool model_true_occupancy = false;
};

struct ServiceStats {
  std::uint64_t enqueued = 0;   ///< kEnqueue events (incl. re-queues)
  std::uint64_t drains = 0;     ///< drain passes that popped anything
  std::uint64_t drained = 0;    ///< submissions popped across all drains
  std::uint64_t shed = 0;       ///< overload rung-3 + quota_denied sheds
  std::uint64_t steals = 0;     ///< tenant batches moved to an idle node
  std::uint64_t stolen = 0;     ///< submissions inside those batches
  std::uint64_t reroutes = 0;   ///< submissions re-queued by a node death
  /// Submissions appended to the requeue list. Every displaced
  /// submission is requeued exactly once, so mailboxed == stolen +
  /// reroutes (the ledger obs::reconcile_service checks).
  std::uint64_t mailboxed = 0;
  std::uint64_t admitted = 0;   ///< periods admitted (immediately or woken)
  std::uint64_t woken = 0;      ///< subset admitted off a waitlist
  std::uint64_t completed = 0;  ///< periods that finished service
  std::uint64_t clamped = 0;         ///< rung-1 demand caps applied
  std::uint64_t oversubscribed = 0;  ///< rung-2 under-declared admissions
  std::uint64_t escalations = 0;
  std::uint64_t deescalations = 0;
  std::uint64_t overflow_drops = 0;  ///< queue-full pushes (not enqueued)
  std::uint64_t max_backlog = 0;     ///< peak queued + parked
  int final_rung = 0;
  std::uint64_t still_queued = 0;  ///< fresh submissions left at report time
  // Tenant-truth enforcement (all zero when ServiceConfig::enforce is off).
  std::uint64_t audits = 0;           ///< completed-period audits applied
  std::uint64_t penalties = 0;        ///< ledger rung escalations
  std::uint64_t haircuts = 0;         ///< rung-1 demand rescales applied
  std::uint64_t deprioritized = 0;    ///< rung-3 submissions sent batch-back
  std::uint64_t quota_denied = 0;     ///< rung-4 sheds (subset of `shed`)
  std::uint64_t burst_clamps = 0;     ///< over-fair-share bursts unfunded
  std::uint64_t credits_granted = 0;  ///< ledger lifetime grant units
  std::uint64_t credits_spent = 0;    ///< ledger lifetime spend units
};

/// Per-tenant outcome ledger, tracked in every run (enforcement on or off)
/// so a bench can compare the same tenant across both. completed + shed <=
/// arrivals only transiently; at quiescence the difference is overflow
/// drops, which carry no tenant attribution.
struct TenantSummary {
  std::uint64_t tenant = 0;
  std::uint64_t arrivals = 0;     ///< fresh submissions (requeues excluded)
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;         ///< ladder + quota sheds
  double work = 0.0;              ///< completed base service seconds
  std::uint64_t admissions = 0;
  double latency_sum = 0.0;       ///< enqueue → admission, summed
  // Ledger view at report time (defaults when enforcement is off).
  int rung = 0;
  double honesty = 1.0;
  std::uint64_t credits = 0;      ///< outstanding balance (units)
};

struct ServiceReport {
  ServiceStats stats;
  /// Enqueue → admission (immediate or wake) per period.
  obs::LatencyHistogram admission_latency;
  /// Peak declared LLC bytes outstanding on any one node; the strict
  /// per-node bound keeps it at or below node_llc_bytes.
  double peak_outstanding = 0.0;
  double elapsed_seconds = 0.0;     ///< virtual time of the last completion
  double goodput_per_second = 0.0;  ///< completed periods / elapsed
  double work_per_second = 0.0;     ///< completed base service-sec / elapsed
  /// Node cores' stats summed (the begins==ends+cancels+reclaims ledger).
  core::MonitorStats admission;
  /// Order-sensitive fingerprint of (seq, node, admit time, completion
  /// time) — equal checksums mean byte-identical runs.
  std::uint64_t checksum = 0;
  /// Per-tenant rows, sorted by tenant id (always populated).
  std::vector<TenantSummary> tenants;
  /// TenantLedger digest (0 when enforcement is off): equal fingerprints
  /// mean the same audit order, streaks, rungs and credit balances.
  std::uint64_t ledger_fingerprint = 0;
  /// Exact credit conservation: granted == spent + outstanding, in integer
  /// units, checked at report time (trivially true when enforcement is off).
  bool credits_conserved = true;
};

class ServiceFrontEnd {
 public:
  /// Seed of the kRandom routing draw (arrivals carry their own seed).
  static constexpr std::uint64_t kSeed = 1;

  explicit ServiceFrontEnd(ServiceConfig config);

  /// Feeds `count` arrivals from `arrivals` through the queue → drain →
  /// admit → complete lifecycle, then drains to quiescence. One-shot.
  ServiceReport run(ArrivalSource& arrivals, std::uint64_t count);

  // Introspection for tests.
  int tenant_home(std::uint64_t tenant) const;
  bool node_up(int node) const {
    return node_up_[static_cast<std::size_t>(node)];
  }
  const core::AdmissionCore& node_core(int node) const {
    return *cores_[static_cast<std::size_t>(node)];
  }

 private:
  /// One queued submission.
  struct Sub {
    std::uint64_t seq = 0;
    std::uint64_t tenant = 1;
    double demand = 0.0;  ///< declared LLC bytes
    double service = 0.0;
    double enqueue_time = 0.0;
    /// LLC bytes the request actually touches (0 = the declaration is the
    /// truth). Feeds the audit observation and the thrash model; never the
    /// admission predicate — the whole point is that admission only sees
    /// declarations.
    double true_demand = 0.0;
  };
  /// A period parked on some node's waitlist, waiting for its wake.
  struct Parked {
    Sub sub;
    int node = -1;
    double declared = 0.0;  ///< LLC bytes as charged to the core
    double penalty = 1.0;
    bool warm = false;
  };
  /// An admitted period until its completion is released. Keeps the whole
  /// submission so a node death can re-queue the work it was carrying.
  struct Flight {
    Sub sub;
    int node = -1;
    sim::ThreadId thread = sim::kInvalidThread;
    double declared = 0.0;
    double done_at = 0.0;  ///< virtual completion time
  };
  /// One submission routed to a node in the current drain pass.
  struct Placement {
    const Sub* sub = nullptr;  ///< into popped_
    double declared = 0.0;     ///< LLC bytes as charged to the core
    double penalty = 1.0;
    bool warm = false;
  };
  /// One node's share of a drain or release pass. Cleared every pass; the
  /// buffers keep their capacity.
  struct NodeScratch {
    std::vector<core::AdmitRequest> requests;  ///< admit_batch input
    std::vector<Placement> placed;             ///< placed[i] is requests[i]
    std::vector<core::PeriodId> due;           ///< release_batch input
  };
  /// A parked period in steal_pass's per-(node, tenant) aggregation.
  struct ParkedRef {
    int node = -1;
    std::uint64_t tenant = 0;
    std::uint64_t key = 0;
    bool operator<(const ParkedRef& o) const {
      return std::tie(node, tenant, key) < std::tie(o.node, o.tenant, o.key);
    }
  };
  /// FIFO of fresh submissions on a power-of-two ring that doubles when
  /// full and never shrinks.
  class SubRing {
   public:
    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }
    const Sub& front() const { return slots_[head_]; }
    Sub& push_back(const Sub& sub);
    void pop_front() {
      head_ = (head_ + 1) & (slots_.size() - 1);
      --size_;
    }

   private:
    std::vector<Sub> slots_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
  };
  struct Completion {
    double time = 0.0;
    std::uint64_t key = 0;  ///< node/period composite, tie-break
    bool operator>(const Completion& o) const {
      return time != o.time ? time > o.time : key > o.key;
    }
  };

  static std::uint64_t flight_key(int node, core::PeriodId period);

  void enqueue(const Sub& sub, double at);
  /// Re-enqueues a displaced submission (steal or node-death reroute):
  /// counts and traces the kEnqueue and appends it to the requeue list.
  void requeue(const Sub& sub, double at);
  /// Withdraws a parked period from its node and drops it from the parked
  /// books. Returns its submission, or nullopt when an earlier withdrawal
  /// already woke (admitted) it.
  std::optional<Sub> withdraw_parked(std::uint64_t key, double now);
  void trace_service(obs::EventKind kind, double at, std::uint64_t seq,
                     std::uint64_t tenant, double demand);
  /// Routes one shaped submission; returns the chosen node (always an up
  /// node) and whether the placement is warm (landed on the tenant home).
  int route(std::uint64_t tenant, double declared, bool& warm);
  int least_loaded() const;
  /// Fills `request`'s demand vector with one LLC demand, in a recycled
  /// buffer when one is spare.
  void set_llc_demand(core::AdmitRequest& request, double declared);
  /// Applies the current rung's transformation to the submission's
  /// declared LLC bytes: rung 1 clamps, rung 2 under-declares.
  double shape_demand(const Sub& sub, double& penalty, bool& clamped,
                      bool& oversubscribed) const;
  void charge_outstanding(int node, double declared, double sign);
  void record_admission(const Sub& sub, int node, core::PeriodId period,
                        double declared, double penalty, bool warm,
                        bool from_wake);
  void on_wakes(int node, const std::vector<core::ProgressMonitor::WakeGrant>&
                              grants);
  void release_due(double now);
  void apply_fault(double now);
  void steal_pass(double now);
  void drain_pass(double now);
  void update_ladder();
  /// The LLC bytes a submission will actually occupy on a node.
  double true_occupancy(const Sub& sub) const;
  /// Feeds the audits settled since the last pass to the ledger, in
  /// settle order. Runs at the TOP of each drain pass — and once more
  /// after the run loop exits — so enforcement always acts on last pass's
  /// completions and no audit is stranded.
  void apply_audits();
  /// Rung-4 quota + credit-priced burst gate for one drained submission.
  /// Returns false when the submission must be shed (quota exceeded);
  /// otherwise may clamp the declared LLC bytes to the fair share
  /// (unfunded burst) and records the credit spend.
  bool enforce_ledger(const Sub& sub, double& declared);
  /// Queued work not yet drained: fresh + parked. (The requeue list is
  /// empty outside a tick: drain_pass takes all of it.)
  std::size_t backlog() const;
  void fold_checksum(std::uint64_t a, std::uint64_t b);

  ServiceConfig config_;
  std::vector<std::unique_ptr<core::AdmissionCore>> cores_;
  /// Fresh submissions in arrival order; queue_capacity bounds it.
  SubRing queue_;
  /// Displaced submissions (steals, node-death reroutes) in the order they
  /// were decided, filled by apply_fault and steal_pass and taken whole by
  /// the same tick's drain_pass, ahead of queue_.
  std::vector<Sub> requeued_;
  /// The current drain pass's submissions (swaps buffers with requeued_).
  std::vector<Sub> popped_;
  /// Overload-shedding and deprioritization scratch.
  std::vector<std::size_t> shed_order_;
  std::vector<char> shed_kept_;
  std::vector<Sub> deprioritized_;
  std::vector<NodeScratch> node_scratch_;  ///< one per node
  std::vector<core::AdmitTicket> admit_tickets_;
  std::vector<core::ReleaseTicket> release_tickets_;
  std::vector<ParkedRef> steal_scratch_;
  /// Demand buffers harvested from release tickets, reused by requests.
  std::vector<std::vector<core::ResourceDemand>> spare_demands_;
  util::Rng rng_;
  double now_ = 0.0;

  std::vector<bool> node_up_;
  std::vector<double> outstanding_;  ///< declared LLC bytes per node
  double peak_outstanding_ = 0.0;    ///< max over nodes and time
  std::vector<std::uint64_t> in_flight_count_;
  std::vector<std::size_t> parked_depth_;  ///< parked periods per node
  util::FlatMap<int> tenant_home_;
  util::FlatMap<Parked> parked_;     ///< by flight key
  util::FlatMap<Flight> in_flight_;  ///< by flight key
  std::priority_queue<Completion, std::vector<Completion>,
                      std::greater<Completion>>
      completions_;

  core::EscalationLadder ladder_;  ///< overload rung (worse = hot tick)
  double depth_ewma_ = 0.0;
  double latency_ewma_ = 0.0;
  bool fault_down_ = false;
  bool fault_done_ = false;

  /// Enforcement state (null / empty unless config_.enforce).
  std::unique_ptr<TenantLedger> ledger_;
  /// Audits settled since the last drain pass, in settle order.
  std::vector<AuditRecord> pending_audits_;
  /// Open (admitted + parked) submissions per tenant — the rung-4 quota
  /// denominator. Displaced work (reroute/steal) leaves the count while
  /// requeued and rejoins it on re-admission.
  util::FlatMap<std::uint64_t> tenant_open_;
  /// TRUE placed LLC bytes per node (model_true_occupancy only): the
  /// physical load the thrash model compares against capacity.
  std::vector<double> true_outstanding_;
  /// Per-tenant outcome rows (always tracked; ordered for the report).
  std::map<std::uint64_t, TenantSummary> tenant_rows_;

  ServiceStats stats_;
  obs::LatencyHistogram latency_;
  double last_completion_ = 0.0;
  double completed_work_ = 0.0;
  std::uint64_t checksum_ = 0x9e3779b97f4a7c15ull;
  bool ran_ = false;
};

}  // namespace rda::service
