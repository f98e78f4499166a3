#include "service/frontend.hpp"

#include <gtest/gtest.h>

#include <bit>

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

TEST(ServiceFrontEnd, ShardedDrainIsByteIdenticalAcrossShardCounts) {
  // The config exercises every cross-shard path: a node death (reroutes),
  // a rejoin (steals), and enough load that shard queues stay non-trivial.
  // The lockstep merge must make K invisible: any shard count replays the
  // same canonical order, so checksum, stats, and percentiles all match.
  ArrivalConfig arr = calm_arrivals(37);
  arr.rate = 1500.0;
  arr.demand_mean_bytes = 6.0 * kMB;
  arr.service_mean_seconds = 5.0e-3;
  ServiceConfig cfg;
  cfg.nodes = 2;
  cfg.node_llc_bytes = 15.0 * kMB;
  cfg.ladder.queue_high = 1.0e9;
  cfg.ladder.latency_high_seconds = 1.0e9;
  cfg.fault.node = 1;
  cfg.fault.fail_at_seconds = 0.2;
  cfg.fault.recover_at_seconds = 0.35;

  std::vector<ServiceReport> reports;
  for (const int shards : {1, 4, 16}) {
    cfg.drain_shards = shards;
    ArrivalGenerator gen(arr);
    ServiceFrontEnd service(cfg);
    reports.push_back(service.run(gen, 1200));
    EXPECT_EQ(reports.back().drain_shards, shards);
    EXPECT_EQ(reports.back().shards.size(),
              static_cast<std::size_t>(shards));
  }
  const ServiceReport& base = reports.front();
  EXPECT_GE(base.stats.steals, 1u);
  EXPECT_GT(base.stats.reroutes, 0u);
  for (const ServiceReport& r : reports) {
    EXPECT_EQ(r.checksum, base.checksum);
    EXPECT_EQ(r.stats.completed, base.stats.completed);
    EXPECT_EQ(r.stats.drains, base.stats.drains);
    EXPECT_EQ(r.stats.stolen, base.stats.stolen);
    EXPECT_EQ(r.stats.reroutes, base.stats.reroutes);
    EXPECT_EQ(r.stats.mailboxed, base.stats.mailboxed);
    EXPECT_EQ(r.elapsed_seconds, base.elapsed_seconds);
    EXPECT_EQ(r.admission_latency.p99(), base.admission_latency.p99());

    // Mailbox ledger: every displaced submission took exactly one hop.
    EXPECT_EQ(r.stats.mailboxed, r.stats.stolen + r.stats.reroutes);
    // Per-shard counters partition the global stats exactly.
    std::uint64_t enqueued = 0, drained = 0, mail_in = 0, mail_out = 0;
    for (const ShardCounters& c : r.shards) {
      enqueued += c.enqueued;
      drained += c.drained;
      mail_in += c.mail_in;
      mail_out += c.mail_out;
    }
    EXPECT_EQ(enqueued, r.stats.enqueued - r.stats.mailboxed);
    EXPECT_EQ(drained, r.stats.drained);
    EXPECT_EQ(mail_in, r.stats.mailboxed);
    EXPECT_EQ(mail_out, r.stats.mailboxed);
  }
}

TEST(ServiceFrontEnd, GlobalQueueCapacityIsTheOnlyOverflowBound) {
  // Bursts that outrun the drain against a 64-deep global bound: pushes
  // beyond the bound are dropped, whichever shard the tenant hashes to.
  // The drop decision reads only the global backlog, so the drops, and
  // everything downstream of them, are the same for any K.
  ArrivalConfig arr = calm_arrivals(43);
  arr.shape = ArrivalShape::kBursty;
  arr.rate = 25000.0;
  ServiceConfig cfg = small_service();
  cfg.queue_capacity = 64;
  constexpr std::uint64_t kArrivals = 20000;

  std::vector<ServiceReport> reports;
  for (const int shards : {1, 4, 16}) {
    cfg.drain_shards = shards;
    ArrivalGenerator gen(arr);
    ServiceFrontEnd service(cfg);
    reports.push_back(service.run(gen, kArrivals));
  }
  const ServiceReport& base = reports.front();
  EXPECT_GT(base.stats.overflow_drops, 0u);
  for (const ServiceReport& r : reports) {
    const ServiceStats& s = r.stats;
    EXPECT_EQ(s.completed + s.shed + s.overflow_drops, kArrivals);
    EXPECT_EQ(s.still_queued, 0u);
    EXPECT_EQ(r.checksum, base.checksum);
    EXPECT_EQ(s.enqueued, base.stats.enqueued);
    EXPECT_EQ(s.drains, base.stats.drains);
    EXPECT_EQ(s.drained, base.stats.drained);
    EXPECT_EQ(s.shed, base.stats.shed);
    EXPECT_EQ(s.steals, base.stats.steals);
    EXPECT_EQ(s.stolen, base.stats.stolen);
    EXPECT_EQ(s.mailboxed, base.stats.mailboxed);
    EXPECT_EQ(s.admitted, base.stats.admitted);
    EXPECT_EQ(s.woken, base.stats.woken);
    EXPECT_EQ(s.completed, base.stats.completed);
    EXPECT_EQ(s.clamped, base.stats.clamped);
    EXPECT_EQ(s.oversubscribed, base.stats.oversubscribed);
    EXPECT_EQ(s.escalations, base.stats.escalations);
    EXPECT_EQ(s.deescalations, base.stats.deescalations);
    EXPECT_EQ(s.overflow_drops, base.stats.overflow_drops);
    EXPECT_EQ(s.max_backlog, base.stats.max_backlog);
    EXPECT_EQ(s.final_rung, base.stats.final_rung);
    EXPECT_EQ(r.elapsed_seconds, base.elapsed_seconds);
    EXPECT_EQ(r.admission_latency.p99(), base.admission_latency.p99());
    ASSERT_EQ(r.tenants.size(), base.tenants.size());
    for (std::size_t i = 0; i < r.tenants.size(); ++i) {
      const TenantSummary& x = r.tenants[i];
      const TenantSummary& y = base.tenants[i];
      EXPECT_EQ(x.tenant, y.tenant);
      EXPECT_EQ(x.arrivals, y.arrivals);
      EXPECT_EQ(x.completed, y.completed);
      EXPECT_EQ(x.shed, y.shed);
      EXPECT_EQ(x.work, y.work);
      EXPECT_EQ(x.admissions, y.admissions);
      EXPECT_EQ(x.latency_sum, y.latency_sum);
    }
  }
}

TEST(ServiceFrontEnd, ShardCountersArePinnedAtFourShards) {
  // Every per-shard counter of one fixed run (values recorded before the
  // shard queues became plain FIFOs). peak_staged and backlog_ewma see
  // the shard's unmerged depth, so a change to how a shard holds its
  // submissions shows up here even when the merged order does not move.
  ArrivalConfig arr = calm_arrivals(37);
  arr.rate = 1500.0;
  arr.demand_mean_bytes = 6.0 * kMB;
  arr.service_mean_seconds = 5.0e-3;
  ServiceConfig cfg;
  cfg.nodes = 2;
  cfg.drain_shards = 4;
  cfg.node_llc_bytes = 15.0 * kMB;
  cfg.drain_batch_max = 4;
  cfg.ladder.queue_high = 1.0e9;
  cfg.ladder.latency_high_seconds = 1.0e9;
  cfg.fault.node = 1;
  cfg.fault.fail_at_seconds = 0.2;
  cfg.fault.recover_at_seconds = 0.35;
  ArrivalGenerator gen(arr);
  ServiceFrontEnd service(cfg);
  const ServiceReport report = service.run(gen, 1200);

  struct Expected {
    std::uint64_t enqueued, drained, mail_in, mail_out, peak_staged;
    std::uint64_t backlog_ewma_bits;
  };
  const Expected expected[] = {
      {224, 289, 65, 152, 3, 0x365e684fa3b057acull},
      {240, 289, 49, 46, 3, 0x36994f981fbbc784ull},
      {240, 295, 55, 0, 3, 0x310026c296146e9full},
      {496, 525, 29, 0, 4, 0x35aa5c70052c13d0ull},
  };
  ASSERT_EQ(report.shards.size(), 4u);
  for (std::size_t k = 0; k < 4; ++k) {
    SCOPED_TRACE(k);
    const ShardCounters& c = report.shards[k];
    EXPECT_EQ(c.enqueued, expected[k].enqueued);
    EXPECT_EQ(c.drained, expected[k].drained);
    EXPECT_EQ(c.mail_in, expected[k].mail_in);
    EXPECT_EQ(c.mail_out, expected[k].mail_out);
    EXPECT_EQ(c.peak_staged, expected[k].peak_staged);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(c.backlog_ewma),
              expected[k].backlog_ewma_bits);
  }
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
                report.admission.reclaims + report.admission.rejections);
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
