#include "service/frontend.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "obs/recorder.hpp"
#include "obs/reconcile.hpp"

namespace rda::service {
namespace {

constexpr double kMB = 1024.0 * 1024.0;

ArrivalConfig calm_arrivals(std::uint64_t seed = 3) {
  ArrivalConfig a;
  a.shape = ArrivalShape::kPoisson;
  a.rate = 5000.0;
  a.seed = seed;
  a.tenants = 4;
  a.demand_mean_bytes = 2.0 * kMB;
  a.service_mean_seconds = 2.0e-3;
  return a;
}

ServiceConfig small_service() {
  ServiceConfig cfg;
  cfg.nodes = 4;
  cfg.node_llc_bytes = 15.0 * kMB;
  return cfg;
}

TEST(ServiceFrontEnd, CalmRunCompletesEveryArrival) {
  ArrivalGenerator gen(calm_arrivals());
  ServiceFrontEnd service(small_service());
  const ServiceReport report = service.run(gen, 20000);

  // A stolen batch re-enqueues its submissions, so enqueues exceed the
  // arrival count by exactly the stolen periods.
  EXPECT_EQ(report.stats.enqueued, 20000u + report.stats.stolen);
  EXPECT_EQ(report.stats.completed, 20000u);
  EXPECT_EQ(report.stats.shed, 0u);
  EXPECT_EQ(report.stats.overflow_drops, 0u);
  EXPECT_EQ(report.stats.still_queued, 0u);
  EXPECT_EQ(report.stats.reroutes, 0u);
  EXPECT_EQ(report.stats.admitted, 20000u);
  // The core ledger balances: steal withdrawals cancel, all else ends.
  EXPECT_EQ(report.admission.begins, 20000u + report.admission.cancels);
  EXPECT_EQ(report.admission.ends, 20000u);
  // ~5000/s offered, all completed: goodput lands near the offered rate.
  EXPECT_GT(report.goodput_per_second, 4000.0);
  EXPECT_LT(report.goodput_per_second, 6000.0);
  // Latency histogram saw every admission; admission waits at least one
  // drain tick, so p50 is at or above the drain interval.
  EXPECT_EQ(report.admission_latency.count(), 20000u);
  EXPECT_GE(report.admission_latency.p50(), 0.5e-3);
}

TEST(ServiceFrontEnd, RunsAreByteDeterministic) {
  ServiceConfig cfg = small_service();
  ArrivalConfig arr = calm_arrivals(17);
  arr.shape = ArrivalShape::kBursty;

  ArrivalGenerator g1(arr);
  ServiceFrontEnd s1(cfg);
  const ServiceReport r1 = s1.run(g1, 10000);

  ArrivalGenerator g2(arr);
  ServiceFrontEnd s2(cfg);
  const ServiceReport r2 = s2.run(g2, 10000);

  EXPECT_EQ(r1.checksum, r2.checksum);
  EXPECT_EQ(r1.stats.completed, r2.stats.completed);
  EXPECT_EQ(r1.stats.drains, r2.stats.drains);
  EXPECT_EQ(r1.elapsed_seconds, r2.elapsed_seconds);
  EXPECT_EQ(r1.admission_latency.p99(), r2.admission_latency.p99());
}

TEST(ServiceFrontEnd, QueueLedgerReconcilesAgainstServiceEvents) {
  obs::EventRecorder recorder(1 << 18);
  ServiceConfig cfg = small_service();
  cfg.trace_sink = &recorder;
  ArrivalGenerator gen(calm_arrivals(5));
  ServiceFrontEnd service(cfg);
  const ServiceReport report = service.run(gen, 5000);
  ASSERT_EQ(recorder.dropped(), 0u);

  obs::ServiceStatsCheck check;
  check.enqueued = report.stats.enqueued;
  check.drains = report.stats.drains;
  check.steals = report.stats.steals;
  check.stolen = report.stats.stolen;
  check.reroutes = report.stats.reroutes;
  check.mailboxed = report.stats.mailboxed;
  check.shed = report.stats.shed;
  check.still_queued = report.stats.still_queued;
  const auto events = recorder.events();
  const obs::ReconcileReport ledger =
      obs::reconcile_service(events, check);
  EXPECT_TRUE(ledger.ok) << ledger.message;
}

TEST(ServiceFrontEnd, RequeuedWorkReentersAheadOfFreshInDecisionOrder) {
  // A node death (reroutes) and a rejoin (steals) on two loaded nodes.
  // Every displaced submission must enter a node core again (its next
  // kBegin) in the drain pass right after its requeue, in the order the
  // requeues were decided (their kMailbox order), ahead of fresh work.
  // admit_batch runs node by node, so a pass's kBegins are its drain order
  // grouped by node: the requeued seqs must read as at most one ascending
  // run of decision order per up node. With one node up that is exactly
  // one run, and no fresh submission may enter before it ends.
  ArrivalConfig arr = calm_arrivals(37);
  arr.rate = 1500.0;
  arr.demand_mean_bytes = 6.0 * kMB;
  arr.service_mean_seconds = 5.0e-3;
  ServiceConfig cfg;
  cfg.nodes = 2;
  cfg.node_llc_bytes = 15.0 * kMB;
  cfg.ladder.queue_high = 1.0e9;  // keep the ladder quiet: no shedding
  cfg.ladder.latency_high_seconds = 1.0e9;
  cfg.fault.node = 1;
  cfg.fault.fail_at_seconds = 0.2;
  cfg.fault.recover_at_seconds = 0.35;
  obs::EventRecorder recorder(1 << 18);
  cfg.trace_sink = &recorder;
  ArrivalGenerator gen(arr);
  ServiceFrontEnd service(cfg);
  const ServiceReport report = service.run(gen, 1200);
  ASSERT_EQ(recorder.dropped(), 0u);
  ASSERT_GE(report.stats.steals, 1u);
  ASSERT_GT(report.stats.reroutes, 0u);
  EXPECT_EQ(report.stats.mailboxed,
            report.stats.stolen + report.stats.reroutes);

  std::uint64_t decided = 0;  // kMailbox events seen
  std::map<std::uint64_t, std::uint64_t> pending;  // seq -> decision index
  std::uint64_t reentered = 0;
  // The pass being replayed: requeues it still owes, its up nodes, and
  // the descents in decision order among its re-entries so far.
  std::size_t owed = 0;
  int pass_nodes_up = 0;
  int descents = 0;
  std::uint64_t last_index = 0;
  int nodes_up = cfg.nodes;
  std::size_t single_node_passes = 0;
  const auto close_pass = [&] {
    EXPECT_EQ(owed, 0u) << "a requeue outlived the pass after it";
    EXPECT_LT(descents, std::max(pass_nodes_up, 1));
  };
  for (const obs::Event& e : recorder.events()) {
    const auto seq = static_cast<std::uint64_t>(e.thread);
    switch (e.kind) {
      case obs::EventKind::kNodeDown: --nodes_up; break;
      case obs::EventKind::kNodeUp: ++nodes_up; break;
      case obs::EventKind::kMailbox: pending[seq] = decided++; break;
      case obs::EventKind::kBatchDrain:
        close_pass();
        owed = pending.size();
        pass_nodes_up = nodes_up;
        descents = 0;
        last_index = 0;
        if (owed > 0 && nodes_up == 1) ++single_node_passes;
        break;
      case obs::EventKind::kBegin: {
        const auto it = pending.find(seq);
        if (it == pending.end()) {
          if (pass_nodes_up == 1) {
            EXPECT_EQ(owed, 0u) << "fresh seq " << seq
                                << " entered ahead of requeued work";
          }
          break;
        }
        if (it->second < last_index) ++descents;
        last_index = it->second;
        pending.erase(it);
        ++reentered;
        if (owed > 0) --owed;
        break;
      }
      default: break;
    }
  }
  close_pass();
  EXPECT_TRUE(pending.empty());
  EXPECT_EQ(decided, report.stats.mailboxed);
  EXPECT_EQ(reentered, decided);
  EXPECT_GT(single_node_passes, 0u);
}

TEST(ServiceFrontEnd, GlobalQueueCapacityIsTheOnlyOverflowBound) {
  // Bursts that outrun the drain against a 64-deep bound: pushes beyond
  // the bound are dropped, and every arrival is completed, shed or
  // dropped — nothing else loses work.
  ArrivalConfig arr = calm_arrivals(43);
  arr.shape = ArrivalShape::kBursty;
  arr.rate = 25000.0;
  ServiceConfig cfg = small_service();
  cfg.queue_capacity = 64;
  constexpr std::uint64_t kArrivals = 20000;
  ArrivalGenerator gen(arr);
  ServiceFrontEnd service(cfg);
  const ServiceStats s = service.run(gen, kArrivals).stats;
  EXPECT_GT(s.overflow_drops, 0u);
  EXPECT_EQ(s.completed + s.shed + s.overflow_drops, kArrivals);
  EXPECT_EQ(s.enqueued, kArrivals - s.overflow_drops + s.mailboxed);
  EXPECT_EQ(s.still_queued, 0u);
}

TEST(ServiceFrontEnd, SloSheddingKeepsGoodputAtOrAboveDropAll) {
  // Bursty overload that pins the ladder at rung 3 long enough to shed
  // thousands. shed_keep_fraction 0 is the old drop-all rung; 0.25 keeps
  // the quarter of each drained batch carrying the most declared work.
  // Shedding cheapest-first must not cost goodput — the kept periods are
  // exactly the ones whose completed work is hardest to replace.
  ArrivalConfig arr = calm_arrivals(23);
  arr.shape = ArrivalShape::kBursty;
  arr.rate = 25000.0;
  arr.demand_mean_bytes = 8.0 * kMB;

  ServiceConfig cfg = small_service();
  cfg.ladder.queue_high = 64.0;

  cfg.shed_keep_fraction = 0.0;
  ArrivalGenerator g1(arr);
  ServiceFrontEnd drop_all(cfg);
  const ServiceReport base = drop_all.run(g1, 30000);

  cfg.shed_keep_fraction = 0.25;
  ArrivalGenerator g2(arr);
  ServiceFrontEnd slo(cfg);
  const ServiceReport kept = slo.run(g2, 30000);

  ASSERT_GT(base.stats.shed, 0u);
  ASSERT_GT(kept.stats.shed, 0u);
  // Both resolve every arrival exactly once.
  EXPECT_EQ(base.stats.completed + base.stats.shed, 30000u);
  EXPECT_EQ(kept.stats.completed + kept.stats.shed, 30000u);
  // SLO-aware shedding sheds fewer and completes more...
  EXPECT_LT(kept.stats.shed, base.stats.shed);
  EXPECT_GT(kept.stats.completed, base.stats.completed);
  // ...and goodput does not regress against the drop-all baseline.
  EXPECT_GE(kept.goodput_per_second, base.goodput_per_second);
  EXPECT_GE(kept.work_per_second, base.work_per_second);
}

TEST(ServiceFrontEnd, OverloadClimbsTheLadderAndShedsAtTheTop) {
  // ~4 MB demands on 15 MB nodes with 2 ms service: the fleet sustains
  // roughly 6k/s at rung 0. Offer 4x that: the backlog EWMA crosses the
  // (deliberately low) threshold, the ladder climbs through clamp and
  // forced-oversub to shed, and de-escalates once arrivals stop.
  ArrivalConfig arr = calm_arrivals(23);
  arr.rate = 25000.0;
  arr.demand_mean_bytes = 8.0 * kMB;  // above the rung-1 clamp cap
  ServiceConfig cfg = small_service();
  cfg.ladder.queue_high = 64.0;
  ArrivalGenerator gen(arr);
  ServiceFrontEnd service(cfg);
  const ServiceReport report = service.run(gen, 30000);

  EXPECT_GT(report.stats.escalations, 0u);
  EXPECT_GT(report.stats.shed, 0u);
  EXPECT_GT(report.stats.clamped, 0u);
  EXPECT_GT(report.stats.oversubscribed, 0u);
  EXPECT_GT(report.stats.max_backlog, 64u);
  // Every arrival resolves exactly one way.
  EXPECT_EQ(report.stats.completed + report.stats.shed, 30000u);
  // Load is gone at the end: the ladder walked back down.
  EXPECT_EQ(report.stats.final_rung, 0);
  EXPECT_GT(report.stats.deescalations, 0u);
  // The outstanding mirror settles completions before release_batch wakes
  // parked work, so its peak never reads above the strict per-node bound.
  EXPECT_GT(report.peak_outstanding, 0.0);
  EXPECT_LE(report.peak_outstanding, cfg.node_llc_bytes * (1 + 1e-9));
}

TEST(ServiceFrontEnd, OverloadedLocalityRunIsPinned) {
  // Golden pin: a bursty overload that walks the ladder through clamp,
  // oversubscription and shedding under locality routing. The checksum
  // folds every admission's node and completion time, so it moves when
  // any routing, shaping, shedding or service-time decision moves.
  ArrivalConfig arr = calm_arrivals(23);
  arr.shape = ArrivalShape::kBursty;
  arr.rate = 25000.0;
  arr.demand_mean_bytes = 8.0 * kMB;
  ServiceConfig cfg = small_service();
  cfg.ladder.queue_high = 64.0;
  ArrivalGenerator gen(arr);
  ServiceFrontEnd service(cfg);
  const ServiceReport report = service.run(gen, 20000);

  EXPECT_GT(report.stats.clamped, 0u);
  EXPECT_GT(report.stats.oversubscribed, 0u);
  EXPECT_GT(report.stats.shed, 0u);
  EXPECT_EQ(report.stats.completed, 4277u);
  EXPECT_EQ(report.stats.steals, 18u);
  EXPECT_EQ(report.checksum, 0x492289d0f73b896eull);
}

TEST(ServiceFrontEnd, LocalityRoutingBeatsRandomOnTheSameTrace) {
  // Hot tenants re-hitting their home node's warm LLC run at 0.6x service
  // time; random placement forfeits most of those hits. Same arrival
  // stream, same fleet — only the routing policy differs.
  ArrivalConfig arr = calm_arrivals(29);
  arr.rate = 9000.0;
  arr.hot_tenant_share = 0.5;

  ServiceConfig cfg = small_service();
  cfg.routing = RoutePolicy::kLocalityAware;
  ArrivalGenerator g1(arr);
  ServiceFrontEnd locality(cfg);
  const ServiceReport with_locality = locality.run(g1, 20000);

  cfg.routing = RoutePolicy::kRandom;
  ArrivalGenerator g2(arr);
  ServiceFrontEnd random(cfg);
  const ServiceReport with_random = random.run(g2, 20000);

  ASSERT_EQ(with_locality.stats.shed, 0u);
  ASSERT_EQ(with_random.stats.shed, 0u);
  EXPECT_GT(with_locality.work_per_second, with_random.work_per_second);
  EXPECT_LT(with_locality.admission_latency.p99(),
            with_random.admission_latency.p99() + 1.0e-9);
}

TEST(ServiceFrontEnd, NodeDeathAtFullLoadLosesNoWork) {
  obs::EventRecorder recorder(1 << 18);
  ArrivalConfig arr = calm_arrivals(31);
  arr.rate = 8000.0;
  ServiceConfig cfg = small_service();
  cfg.trace_sink = &recorder;
  cfg.fault.node = 1;
  cfg.fault.fail_at_seconds = 0.2;
  cfg.fault.recover_at_seconds = 0.6;
  ArrivalGenerator gen(arr);
  ServiceFrontEnd service(cfg);
  const ServiceReport report = service.run(gen, 16000);

  // The dead node's parked AND admitted periods were re-queued and then
  // completed elsewhere; nothing vanished and nothing ran twice.
  EXPECT_GT(report.stats.reroutes, 0u);
  EXPECT_EQ(report.stats.completed, 16000u);
  EXPECT_EQ(report.stats.shed, 0u);
  EXPECT_EQ(recorder.count(obs::EventKind::kNodeDown), 1u);
  EXPECT_EQ(recorder.count(obs::EventKind::kNodeUp), 1u);
  // Fleet-wide admission ledger: every begin resolved exactly once.
  EXPECT_EQ(report.admission.begins,
            report.admission.ends + report.admission.cancels +
                report.admission.reclaims);
  // The extra begins are exactly the re-submissions of rerouted work.
  EXPECT_EQ(report.admission.begins,
            16000u + report.admission.cancels + report.admission.reclaims);
}

TEST(ServiceFrontEnd, RejoinedIdleNodeStealsAParkedTenantBatch) {
  // Two overloaded nodes; node 1 dies and rejoins while the survivor is
  // drowning in parked periods from several tenants. The steal pass hands
  // the rejoined idle node a whole tenant batch.
  ArrivalConfig arr = calm_arrivals(37);
  arr.rate = 1500.0;
  arr.demand_mean_bytes = 6.0 * kMB;  // ~2 concurrent per 15 MB node
  arr.service_mean_seconds = 5.0e-3;
  ServiceConfig cfg;
  cfg.nodes = 2;
  cfg.node_llc_bytes = 15.0 * kMB;
  cfg.ladder.queue_high = 1.0e9;  // keep the ladder quiet: no shedding
  cfg.ladder.latency_high_seconds = 1.0e9;
  cfg.fault.node = 1;
  cfg.fault.fail_at_seconds = 0.2;
  cfg.fault.recover_at_seconds = 0.35;
  obs::EventRecorder recorder(1 << 18);
  cfg.trace_sink = &recorder;
  ArrivalGenerator gen(arr);
  ServiceFrontEnd service(cfg);
  const ServiceReport report = service.run(gen, 1200);

  EXPECT_GE(report.stats.steals, 1u);
  EXPECT_GE(report.stats.stolen, 1u);
  EXPECT_EQ(recorder.count(obs::EventKind::kSteal), report.stats.steals);
  EXPECT_EQ(report.stats.shed, 0u);
  EXPECT_EQ(report.stats.completed, 1200u);
}

TEST(ServiceFrontEnd, MultiResourceRunReportsPerResourceHeadroom) {
  // The front end gates one resource, the node's LLC bytes; its headroom
  // is node_llc_bytes - peak_outstanding and must never go negative.
  ServiceConfig cfg = small_service();
  ArrivalGenerator gen(calm_arrivals(11));
  ServiceFrontEnd service(cfg);
  const ServiceReport report = service.run(gen, 15000);

  EXPECT_EQ(report.stats.completed, 15000u);
  EXPECT_EQ(report.stats.still_queued, 0u);
  EXPECT_GT(report.peak_outstanding, 0.0);
  EXPECT_LE(report.peak_outstanding, cfg.node_llc_bytes * (1 + 1e-9));

  ArrivalGenerator twin_gen(calm_arrivals(11));
  ServiceFrontEnd twin(cfg);
  EXPECT_EQ(twin.run(twin_gen, 15000).checksum, report.checksum);
}

}  // namespace
}  // namespace rda::service
