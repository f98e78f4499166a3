// Adversarial arrival shapes and the ServiceFrontEnd's TenantLedger
// enforcement path (DESIGN §17): the overlay must leave honest tenants'
// sub-streams bit-identical, and the ledger must engage only on liars.
// tests/service/adversary_quick.expected pins every cell's checksum and
// ledger fingerprint.
#include <gtest/gtest.h>

#include <vector>

#include "obs/reconcile.hpp"
#include "obs/recorder.hpp"
#include "service/arrival.hpp"
#include "service/frontend.hpp"

namespace rda::service {
namespace {

constexpr double kMB = 1024.0 * 1024.0;

ArrivalConfig base_arrivals(std::uint64_t seed = 29) {
  ArrivalConfig a;
  a.shape = ArrivalShape::kPoisson;
  a.rate = 12000.0;
  a.seed = seed;
  a.tenants = 8;
  a.hot_tenant_share = 0.4;
  a.demand_mean_bytes = 2.0 * kMB;
  a.service_mean_seconds = 2.0e-3;
  return a;
}

ServiceConfig enforced_service() {
  ServiceConfig cfg;
  cfg.nodes = 4;
  cfg.node_llc_bytes = 15.0 * kMB;
  cfg.model_true_occupancy = true;
  cfg.enforce = true;
  return cfg;
}

// --- adversary overlay ------------------------------------------------------

TEST(Adversary, OverlayLeavesHonestTenantsBitIdentical) {
  ArrivalConfig honest = base_arrivals();
  ArrivalConfig attacked = base_arrivals();
  attacked.adversary.kind = AdversaryKind::kWssInflator;
  attacked.adversary.tenant = 1;
  attacked.adversary.factor = 8.0;

  ArrivalGenerator g1(honest);
  ArrivalGenerator g2(attacked);
  for (int i = 0; i < 5000; ++i) {
    const Arrival a = g1.next();
    const Arrival b = g2.next();
    ASSERT_EQ(a.time, b.time);
    ASSERT_EQ(a.tenant, b.tenant);
    ASSERT_EQ(a.service_seconds, b.service_seconds);
    if (a.tenant == 1) {
      // The inflator's declaration is scaled; its truth is the base draw.
      ASSERT_EQ(b.demand_bytes, a.demand_bytes * 8.0);
      ASSERT_EQ(b.true_demand_bytes, a.demand_bytes);
    } else {
      // Honest tenants must not be able to tell the adversary exists.
      ASSERT_EQ(b.demand_bytes, a.demand_bytes);
      ASSERT_EQ(b.true_demand_bytes, 0.0);
    }
  }
}

TEST(Adversary, UnderDeclarerKeepsItsDeclarationAndHidesItsTruth) {
  ArrivalConfig cfg = base_arrivals();
  cfg.adversary.kind = AdversaryKind::kUnderDeclarer;
  cfg.adversary.tenant = 1;
  cfg.adversary.factor = 8.0;
  ArrivalGenerator gen(cfg);
  int seen = 0;
  for (int i = 0; i < 2000 && seen < 100; ++i) {
    const Arrival a = gen.next();
    if (a.tenant != 1) continue;
    ++seen;
    // Declares the honest-looking draw, actually touches 8x as much.
    EXPECT_EQ(a.true_demand_bytes, a.demand_bytes * 8.0);
  }
  EXPECT_GE(seen, 100);
}

TEST(Adversary, ChurnSplitsServiceTimeAcrossPiecesAtOneInstant) {
  ArrivalConfig cfg = base_arrivals();
  cfg.adversary.kind = AdversaryKind::kChurn;
  cfg.adversary.tenant = 1;
  cfg.adversary.churn_pieces = 8;
  ArrivalGenerator gen(cfg);

  std::uint64_t last_seq = 0;
  bool first = true;
  for (int i = 0; i < 2000; ++i) {
    const Arrival a = gen.next();
    if (!first) {
      EXPECT_EQ(a.seq, last_seq + 1);
    }
    last_seq = a.seq;
    first = false;
    if (a.tenant != 1) continue;
    // Pieces 2..8 of each churned period share the head's timestamp and
    // demand; the head already carries the split service time, so a full
    // group is 8 arrivals with identical time.
    std::vector<Arrival> group{a};
    while (group.size() < 8) {
      const Arrival piece = gen.next();
      EXPECT_EQ(piece.seq, last_seq + 1);
      last_seq = piece.seq;
      ASSERT_EQ(piece.tenant, 1u);
      ASSERT_EQ(piece.time, a.time);
      ASSERT_EQ(piece.demand_bytes, a.demand_bytes);
      ASSERT_EQ(piece.service_seconds, a.service_seconds);
      group.push_back(piece);
    }
  }
}

// --- front-end enforcement --------------------------------------------------

TEST(Adversary, EnforcementIsInertOnAnAllHonestFleet) {
  ArrivalConfig arr = base_arrivals();

  ServiceConfig off = enforced_service();
  off.enforce = false;
  ArrivalGenerator g1(arr);
  ServiceFrontEnd s1(off);
  const ServiceReport plain = s1.run(g1, 8000);

  ArrivalGenerator g2(arr);
  ServiceFrontEnd s2(enforced_service());
  const ServiceReport enforced = s2.run(g2, 8000);

  // Honest declarations: no penalties, no quota denials, no clamps, and
  // the service outcome itself is byte-identical to enforcement off.
  EXPECT_EQ(enforced.stats.penalties, 0u);
  EXPECT_EQ(enforced.stats.quota_denied, 0u);
  EXPECT_EQ(enforced.stats.haircuts, 0u);
  EXPECT_EQ(enforced.stats.burst_clamps, 0u);
  EXPECT_GT(enforced.stats.audits, 0u);
  EXPECT_EQ(enforced.checksum, plain.checksum);
  EXPECT_EQ(enforced.stats.completed, plain.stats.completed);
  EXPECT_TRUE(enforced.credits_conserved);
}

TEST(Adversary, InflatorClimbsTheLadderAndVictimsRecover) {
  ArrivalConfig arr = base_arrivals();
  arr.adversary.kind = AdversaryKind::kWssInflator;
  arr.adversary.tenant = 1;
  arr.adversary.factor = 8.0;

  ServiceConfig off = enforced_service();
  off.enforce = false;
  ArrivalGenerator g1(arr);
  ServiceFrontEnd s1(off);
  const ServiceReport unenforced = s1.run(g1, 8000);

  ArrivalGenerator g2(arr);
  ServiceFrontEnd s2(enforced_service());
  const ServiceReport enforced = s2.run(g2, 8000);

  const auto honest_completed = [](const ServiceReport& r) {
    std::uint64_t sum = 0;
    for (const TenantSummary& row : r.tenants) {
      if (row.tenant != 1) sum += row.completed;
    }
    return sum;
  };
  EXPECT_GT(enforced.stats.penalties, 0u);
  EXPECT_GT(enforced.stats.haircuts, 0u);
  EXPECT_GT(honest_completed(enforced), honest_completed(unenforced));
  for (const TenantSummary& row : enforced.tenants) {
    if (row.tenant == 1) {
      EXPECT_GE(row.rung, 1);
      EXPECT_LT(row.honesty, 0.5);
    } else {
      EXPECT_EQ(row.rung, 0);
    }
  }
  EXPECT_TRUE(enforced.credits_conserved);
}

TEST(Adversary, EnforcedInflatorRunIsPinned) {
  // Golden pin: bursty traffic with one 8x WSS inflator under enforcement.
  // The checksum pins every admission and completion; the fingerprint pins
  // the ledger's audit order, streaks, rungs and credit balances.
  ArrivalConfig arr = base_arrivals();
  arr.shape = ArrivalShape::kBursty;
  arr.adversary.kind = AdversaryKind::kWssInflator;
  arr.adversary.tenant = 1;
  arr.adversary.factor = 8.0;
  ArrivalGenerator gen(arr);
  ServiceFrontEnd service(enforced_service());
  const ServiceReport report = service.run(gen, 6000);

  EXPECT_GT(report.stats.haircuts, 0u);
  EXPECT_GT(report.stats.quota_denied, 0u);
  EXPECT_EQ(report.stats.penalties, 4u);
  EXPECT_EQ(report.stats.credits_spent, 0u);
  EXPECT_EQ(report.checksum, 0x5cc680c1d855eb33ull);
  EXPECT_EQ(report.ledger_fingerprint, 0x468ff0148c5e65e4ull);
}

TEST(Adversary, PerTenantReconcileRowsSumToTotals) {
  obs::EventRecorder recorder(1 << 20);
  ServiceConfig cfg = enforced_service();
  cfg.trace_sink = &recorder;
  ArrivalConfig arr = base_arrivals();
  arr.adversary.kind = AdversaryKind::kWssInflator;
  arr.adversary.tenant = 1;
  arr.adversary.factor = 8.0;
  ArrivalGenerator gen(arr);
  ServiceFrontEnd service(cfg);
  const ServiceReport report = service.run(gen, 6000);
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
  const obs::ReconcileReport ledger = obs::reconcile_service(events, check);
  EXPECT_TRUE(ledger.ok) << ledger.message;

  // The per-tenant columns are cross-checked against the totals inside
  // reconcile_service; here pin that the adversary's sheds landed on the
  // adversary's row, not somewhere anonymous.
  ASSERT_FALSE(ledger.tenants.empty());
  std::uint64_t shed_total = 0;
  for (const obs::TenantLedgerRow& row : ledger.tenants) {
    shed_total += row.sheds;
    if (row.tenant == 1) {
      EXPECT_GT(row.sheds, 0u);
    }
  }
  EXPECT_EQ(shed_total, report.stats.shed);
}

}  // namespace
}  // namespace rda::service
