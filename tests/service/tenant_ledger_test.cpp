// TenantLedger — demand-truth auditing, Karma credits, and the penalty
// ladder (DESIGN §17): escalation only on sustained divergence, guaranteed
// recovery for honest-but-contended tenants, and exact credit
// conservation.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/feedback.hpp"
#include "service/tenant_ledger.hpp"

namespace rda::service {
namespace {

/// One credit unit of unused reservation, in bytes.
constexpr double kUnit = TenantLedger::kCreditUnitBytes;
constexpr int kEscalate = static_cast<int>(TenantLedger::kEscalateAfter);
constexpr int kRecover = static_cast<int>(TenantLedger::kRecoverAfter);

/// Audits `n` periods for `tenant`, all with the same declared/observed.
void audit_n(TenantLedger& ledger, std::uint64_t tenant, int n,
             double declared, double observed, bool contended = false) {
  for (int i = 0; i < n; ++i) {
    ledger.audit(tenant, declared, observed, contended, static_cast<double>(i));
  }
}

TEST(TenantLedger, UnknownTenantIsTrusted) {
  TenantLedger ledger;
  EXPECT_EQ(ledger.rung(7), 0);
  EXPECT_DOUBLE_EQ(ledger.honesty(7), 1.0);
  EXPECT_DOUBLE_EQ(ledger.demand_correction(7), 1.0);
  EXPECT_DOUBLE_EQ(ledger.credit_price(7), 1.0);
  EXPECT_FALSE(ledger.deprioritized(7));
  EXPECT_TRUE(ledger.within_quota(7, 1'000'000));
  EXPECT_EQ(ledger.spend(7, 10, 0.0), 0u);
}

TEST(TenantLedger, AnonymousOrUnpricedWorkIsNotAuditable) {
  TenantLedger ledger;
  EXPECT_FALSE(ledger.audit(0, 100.0, 50.0, false, 0.0));
  EXPECT_FALSE(ledger.audit(5, 0.0, 50.0, false, 0.0));
  EXPECT_EQ(ledger.audits(), 0u);
}

TEST(TenantLedger, HonestAuditsStayTrustedAndMintCredits) {
  TenantLedger ledger;
  // Declared 100 units, used 80: inside the 30% band, 20 units unused.
  audit_n(ledger, 1, 5, 100.0 * kUnit, 80.0 * kUnit);
  EXPECT_EQ(ledger.rung(1), 0);
  EXPECT_DOUBLE_EQ(ledger.honesty(1), 1.0);
  // 20 credits per audit, 5 audits.
  EXPECT_EQ(ledger.credits_balance(1), 100u);
  EXPECT_TRUE(ledger.credits_conserved());
}

TEST(TenantLedger, DivergentAuditsGrantNothing) {
  TenantLedger ledger;
  // Inflated 8x: far outside the band — unused budget must NOT mint.
  audit_n(ledger, 1, 5, 800.0, 100.0);
  EXPECT_EQ(ledger.credits_balance(1), 0u);
  EXPECT_EQ(ledger.total_granted(), 0u);
}

TEST(TenantLedger, InflatorClimbsTheFullLadder) {
  TenantLedger ledger;
  // Each rung needs kEscalateAfter consecutive divergent audits.
  for (int r = 1; r <= 4; ++r) {
    audit_n(ledger, 1, kEscalate, 800.0, 100.0);
    EXPECT_EQ(ledger.rung(1), r);
  }
  // Rung is capped at 4; further divergence cannot push past it.
  audit_n(ledger, 1, 10, 800.0, 100.0);
  EXPECT_EQ(ledger.rung(1), 4);

  // Rung 1+: the haircut charges the inflator what it uses (ratio 1/8 —
  // the decayed running max has converged there by 22 audits).
  EXPECT_NEAR(ledger.demand_correction(1), 0.125, 1e-9);
  // Rung 2+: bursts pay the surcharge.
  EXPECT_DOUBLE_EQ(ledger.credit_price(1), TenantLedger::kSurcharge);
  // Rung 3+: back of every batch.
  EXPECT_TRUE(ledger.deprioritized(1));
  // Rung 4: hard quota on open submissions.
  EXPECT_TRUE(ledger.within_quota(1, 0));
  EXPECT_FALSE(ledger.within_quota(1, TenantLedger::kQuotaOutstanding));
  EXPECT_LT(ledger.honesty(1), 0.1);
}

TEST(TenantLedger, UnderDeclarerIsChargedWhatItTakes) {
  TenantLedger ledger;
  audit_n(ledger, 1, kEscalate, 100.0, 600.0);  // takes 6x what it declared
  EXPECT_EQ(ledger.rung(1), 1);
  EXPECT_NEAR(ledger.demand_correction(1), 6.0, 1e-9);
  // The haircut clamps at correction_max even for wilder lies.
  audit_n(ledger, 2, kEscalate, 100.0, 100.0 * 1e6);
  EXPECT_DOUBLE_EQ(ledger.demand_correction(2),
                   TenantLedger::kCorrectionMax);
}

TEST(TenantLedger, OneNoisyPeriodDoesNotBrandATenant) {
  static_assert(TenantLedger::kEscalateAfter > 1);
  TenantLedger ledger;
  // Divergent audits one short of the streak leave the tenant trusted...
  audit_n(ledger, 1, kEscalate - 1, 800.0, 100.0);
  EXPECT_EQ(ledger.rung(1), 0);
  EXPECT_EQ(ledger.penalties(), 0u);
  // ...and one honest audit in between restarts the count.
  ledger.audit(1, 100.0, 100.0, false, 0.0);
  audit_n(ledger, 1, kEscalate - 1, 800.0, 100.0);
  EXPECT_EQ(ledger.rung(1), 0);
  // Only a full streak escalates.
  ledger.audit(1, 800.0, 100.0, false, 0.0);
  EXPECT_EQ(ledger.rung(1), 1);
}

TEST(TenantLedger, HonestBehaviorDescendsTheLadder) {
  TenantLedger ledger;
  audit_n(ledger, 1, 4 * kEscalate, 800.0, 100.0);  // climb to rung 4
  ASSERT_EQ(ledger.rung(1), 4);
  // kRecoverAfter honest audits per rung: one short of four rungs' worth
  // leaves the tenant at rung 1; the last walks it back to trusted.
  audit_n(ledger, 1, 4 * kRecover - 1, 100.0, 100.0);
  EXPECT_EQ(ledger.rung(1), 1);
  ledger.audit(1, 100.0, 100.0, false, 0.0);
  EXPECT_EQ(ledger.rung(1), 0);
  EXPECT_DOUBLE_EQ(ledger.demand_correction(1), 1.0);
  EXPECT_TRUE(ledger.within_quota(1, 1'000'000));
}

// Both ends of the ladder saturate without losing count: the divergent
// streak keeps running at the top rung and the honest streak at the floor,
// and fingerprint() mixes both. A ladder that restarted a streak on a
// refused move would change these pins.
TEST(TenantLedger, FingerprintIsPinnedThroughSaturation) {
  TenantLedger ledger;
  // 20 divergent audits (8x inflation): the top rung at audit 12, then 8
  // more counted past it.
  for (int i = 0; i < 20; ++i) {
    ledger.audit(1, 80.0 * kUnit, 10.0 * kUnit, false, i);
  }
  EXPECT_EQ(ledger.rung(1), 4);
  EXPECT_EQ(ledger.penalties(), 4u);
  EXPECT_EQ(ledger.fingerprint(), 0xffef972425784f6bull);

  // 40 honest audits, each leaving 2 units unused: the floor at audit 24,
  // then 16 more counted there. A spend in the middle moves only credits.
  for (int i = 0; i < 40; ++i) {
    ledger.audit(1, 10.0 * kUnit, 8.0 * kUnit, false, 20 + i);
    if (i == 20) {
      EXPECT_EQ(ledger.spend(1, 5, 40.5), 5u);
    }
  }
  EXPECT_EQ(ledger.rung(1), 0);
  EXPECT_EQ(ledger.penalties(), 4u);
  EXPECT_EQ(ledger.credits_balance(1), 75u);
  EXPECT_TRUE(ledger.credits_conserved());
  EXPECT_EQ(ledger.fingerprint(), 0xa1fac55857020a6dull);
}

TEST(TenantLedger, ContendedLowerBoundNeverEscalates) {
  TenantLedger ledger;
  // Contended periods whose occupancy stayed below the declaration prove
  // nothing: the tenant may simply have been squeezed. A lifetime of them
  // must not move the ladder — this is the recoverability guarantee.
  audit_n(ledger, 1, 50, 800.0, 100.0, /*contended=*/true);
  EXPECT_EQ(ledger.rung(1), 0);
  EXPECT_DOUBLE_EQ(ledger.honesty(1), 1.0);
  // A contended period that still EXCEEDED its declaration is a lie and
  // counts (observed > declared cannot be explained by contention).
  audit_n(ledger, 1, kEscalate, 100.0, 600.0, /*contended=*/true);
  EXPECT_EQ(ledger.rung(1), 1);
}

TEST(TenantLedger, ContendedAuditsDoNotResetAnHonestStreak) {
  TenantLedger ledger;
  audit_n(ledger, 1, 4 * kEscalate, 800.0, 100.0);  // rung 4
  ASSERT_EQ(ledger.rung(1), 4);
  // Interleave honest audits with contended lower bounds: the streak must
  // survive the uncounted audits, so recovery still happens.
  for (int i = 0; i < 4 * kRecover; ++i) {
    ledger.audit(1, 100.0, 100.0, false, 0.0);
    ledger.audit(1, 800.0, 100.0, true, 0.0);
  }
  EXPECT_EQ(ledger.rung(1), 0);
}

// Both estimators run core::update_usage_ratio; they differ only in what
// counts as a lower bound. For the corrector every contended observation
// is one; for the ledger only a contended audit BELOW its declaration is —
// a contended period that still used at least what it declared is a full
// measurement, counted and decayed.
TEST(TenantLedger, SharesTheCorrectorsRatioRule) {
  EXPECT_DOUBLE_EQ(core::update_usage_ratio(2.0, 1.0, 0.5, false), 1.0);
  EXPECT_DOUBLE_EQ(core::update_usage_ratio(2.0, 1.0, 0.5, true), 2.0);
  EXPECT_DOUBLE_EQ(core::update_usage_ratio(2.0, 3.0, 0.5, true), 3.0);

  // Corrector: learn 2x, then a contended period using exactly its
  // declaration (ratio 1) must not shrink the correction.
  core::FeedbackOptions feedback;
  feedback.enable = true;
  feedback.decay = 0.5;
  core::DemandCorrector corrector(feedback);
  corrector.observe("pp", 100.0, 200.0, false);
  corrector.observe("pp", 100.0, 200.0, false);
  ASSERT_DOUBLE_EQ(corrector.correction("pp"), 2.0);
  corrector.observe("pp", 100.0, 100.0, true);
  EXPECT_DOUBLE_EQ(corrector.correction("pp"), 2.0);

  // Ledger: three divergent 2x audits reach the haircut rung, where
  // demand_correction exposes the ratio.
  TenantLedger ledger;
  audit_n(ledger, 5, kEscalate, 100.0, 200.0);
  ASSERT_EQ(ledger.rung(5), 1);
  ASSERT_DOUBLE_EQ(ledger.demand_correction(5), 2.0);
  // Contended below the declaration: a lower bound, not counted.
  EXPECT_FALSE(ledger.audit(5, 100.0, 50.0, true, 3.0));
  EXPECT_DOUBLE_EQ(ledger.demand_correction(5), 2.0);
  // Contended at the declaration: counted, and the ratio decays.
  EXPECT_TRUE(ledger.audit(5, 100.0, 100.0, true, 4.0));
  EXPECT_DOUBLE_EQ(ledger.demand_correction(5),
                   2.0 * TenantLedger::kRatioDecay);
}

TEST(CreditConservation, ExactAcrossGrantsAndSpends) {
  TenantLedger ledger;
  audit_n(ledger, 1, 4, 100.0 * kUnit, 80.0 * kUnit);  // 80 credits
  audit_n(ledger, 2, 2, 50.0 * kUnit, 40.0 * kUnit);   // 20 credits
  EXPECT_EQ(ledger.total_granted(), 100u);

  // Spend caps at the balance; the caller learns the deficit.
  EXPECT_EQ(ledger.spend(1, 30, 0.0), 30u);
  EXPECT_EQ(ledger.spend(2, 100, 0.0), 20u);
  EXPECT_EQ(ledger.spend(2, 5, 0.0), 0u);

  EXPECT_EQ(ledger.credits_balance(1), 50u);
  EXPECT_EQ(ledger.credits_balance(2), 0u);
  EXPECT_EQ(ledger.total_spent(), 50u);
  EXPECT_EQ(ledger.total_outstanding(), 50u);
  EXPECT_TRUE(ledger.credits_conserved());
}

TEST(CreditConservation, GrantsTruncateAtTheCap) {
  TenantLedger ledger;
  // One honest audit leaving twice the cap unused grants exactly the cap,
  // and a second one grants nothing more.
  const double cap = static_cast<double>(TenantLedger::kCreditCap);
  audit_n(ledger, 1, 2, 10.0 * cap * kUnit, 8.0 * cap * kUnit);
  EXPECT_EQ(ledger.credits_balance(1), TenantLedger::kCreditCap);
  EXPECT_EQ(ledger.total_granted(), TenantLedger::kCreditCap);
  EXPECT_TRUE(ledger.credits_conserved());
}

TEST(TenantLedger, FingerprintSeparatesDifferentHistories) {
  TenantLedger a;
  TenantLedger b;
  audit_n(a, 1, 3, 100.0, 100.0);
  audit_n(b, 1, 3, 100.0, 99.0);
  EXPECT_NE(a.fingerprint(), b.fingerprint());
}

// Concurrent audit-vs-admit: drain threads audit and grant while admission
// threads query corrections, quotas, and spend credits. Run under TSan by
// tier1.sh; the assertions here pin conservation across the race.
TEST(TenantLedger, ConcurrentAuditVsAdmitStress) {
  TenantLedger ledger;
  constexpr int kAuditors = 4;
  constexpr int kAdmitters = 4;
  constexpr int kOpsPerThread = 2'000;
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;

  for (int a = 0; a < kAuditors; ++a) {
    threads.emplace_back([&ledger, &go, a] {
      while (!go.load(std::memory_order_acquire)) {}
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::uint64_t tenant = 1 + static_cast<std::uint64_t>(i % 8);
        const bool lie = (i + a) % 4 == 0;
        ledger.audit(tenant, 100.0 * kUnit,
                     lie ? 10.0 * kUnit : 90.0 * kUnit, i % 5 == 0,
                     static_cast<double>(i));
      }
    });
  }
  std::atomic<std::uint64_t> spent_by_admitters{0};
  for (int w = 0; w < kAdmitters; ++w) {
    threads.emplace_back([&ledger, &go, &spent_by_admitters, w] {
      while (!go.load(std::memory_order_acquire)) {}
      std::uint64_t local = 0;
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::uint64_t tenant = 1 + static_cast<std::uint64_t>(i % 8);
        (void)ledger.demand_correction(tenant);
        (void)ledger.within_quota(tenant, static_cast<std::uint64_t>(i % 3));
        (void)ledger.deprioritized(tenant);
        if ((i + w) % 16 == 0) {
          local += ledger.spend(tenant, 2, static_cast<double>(i));
        }
      }
      spent_by_admitters.fetch_add(local, std::memory_order_relaxed);
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(ledger.audits(),
            static_cast<std::uint64_t>(kAuditors) * kOpsPerThread);
  EXPECT_EQ(ledger.total_spent(), spent_by_admitters.load());
  EXPECT_TRUE(ledger.credits_conserved());
}

}  // namespace
}  // namespace rda::service
