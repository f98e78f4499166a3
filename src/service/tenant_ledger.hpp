// TenantLedger — the tenant-truth enforcement tier above the admission
// predicate (ROADMAP item 1).
//
// The paper's predicate trusts every pp_begin declaration, so one greedy
// tenant that inflates its declared WSS hoards LLC capacity and starves
// honest neighbours, and one that under-declares thrashes them. The ledger
// closes that gap with three mechanisms layered over the per-LABEL
// DemandCorrector (which fixes honest mistakes; the ledger judges
// per-TENANT intent):
//
//   1. Demand-truth auditing. Every completed period's measured peak
//      occupancy is compared against what its tenant declared. An audit is
//      honest when |log(observed/declared)| stays inside the tolerance
//      band; each verdict feeds a decayed per-tenant honesty score and the
//      consecutive-divergence streaks that drive the penalty ladder. The
//      audited usage ratio follows the same update_usage_ratio rule
//      (core/feedback.hpp) as the per-label DemandCorrector. A contended
//      observation whose peak is BELOW the declaration is a lower bound,
//      not a lie (the period may simply have been unable to grow its
//      occupancy) — it may grow the ratio but never moves a streak, which
//      is what makes a contended-but-honest tenant recoverable by
//      construction.
//
//   2. Karma-style credit accounting. A tenant whose honest audit shows it
//      reserved more than it used donates the unused budget as credits
//      (integer units, so conservation is exact: Σgranted == Σspent +
//      Σoutstanding at all times); a tenant bursting over its long-term
//      fair share spends credits. Fair share is thereby a long-term
//      average, not an instantaneous cap — bursty-but-honest tenants ride
//      their own banked slack. Divergent audits grant nothing, so inflating
//      a declaration can never mint credits.
//
//   3. A per-tenant penalty ladder (a core::EscalationLadder), engaging
//      only on SUSTAINED divergence (kEscalateAfter = 3 consecutive
//      divergent audits per rung) and decaying back on honest behaviour
//      (kRecoverAfter = 6 consecutive honest audits per rung):
//        rung 0  trusted — declarations taken at face value,
//        rung 1  haircut — declared demand is rescaled by the audited
//                usage ratio (an inflator is charged what it uses; an
//                under-declarer is charged what it takes),
//        rung 2  credit surcharge — bursts cost kSurcharge× the credits,
//        rung 3  deprioritized — the tenant's submissions go to the back
//                of every admission batch,
//        rung 4  hard quota — at most kQuotaOutstanding submissions open
//                (admitted or parked) at once; the excess is shed.
//      Rungs compose downward: rung 4 also pays the haircut, surcharge,
//      and deprioritization.
//
// Determinism: ledger state depends only on the order of audit() calls.
// ServiceFrontEnd, the ledger's only owner and the only place its haircut
// is applied, settles completions into one pending-audit list and feeds it
// to audit() in settle order at the top of the next drain pass; the
// admission core and the cluster layer never see the ledger. The ledger is
// internally synchronized (one mutex; state is tiny and off every fast
// path), so audits, spends and admission-side queries may come from
// different threads. The front end calls it from one thread; the one
// concurrent caller today is TenantLedger.ConcurrentAuditVsAdmitStress.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>

#include "core/ladder.hpp"
#include "obs/sink.hpp"

namespace rda::service {

/// One captured audit: a completed period's declared primary demand vs the
/// peak occupancy the counters (or the service's occupancy model) saw,
/// held until the front end feeds it to TenantLedger::audit.
struct AuditRecord {
  std::uint64_t tenant = 0;
  double declared = 0.0;
  double observed = 0.0;
  bool contended = false;
  double time = 0.0;
};

class TenantLedger {
 public:
  /// Honest band: |log(observed/declared)| <= log(1 + kTolerance).
  static constexpr double kTolerance = 0.30;
  /// Per-audit EMA weight of the PREVIOUS honesty score (1 − this is the
  /// weight of the fresh verdict).
  static constexpr double kHonestyDecay = 0.80;
  /// Decay for the audited usage ratio (update_usage_ratio in
  /// core/feedback.hpp: the haircut only relaxes under repeated consistent
  /// evidence).
  static constexpr double kRatioDecay = 0.90;
  /// Haircut clamp (rung >= 1): declared × clamp(ratio, min, max).
  static constexpr double kCorrectionMin = 0.10;
  static constexpr double kCorrectionMax = 8.0;
  /// Rung >= 2: bursts cost this multiple of the base credit price.
  static constexpr double kSurcharge = 4.0;
  /// Rung 4: max open (admitted + parked) submissions per tenant.
  static constexpr std::uint64_t kQuotaOutstanding = 2;
  /// Consecutive divergent audits to climb one rung. A tenant therefore
  /// needs at least this many audits before any penalty engages — one
  /// noisy period cannot brand it.
  static constexpr std::uint32_t kEscalateAfter = 3;
  /// Consecutive honest audits to descend one rung.
  static constexpr std::uint32_t kRecoverAfter = 6;
  /// Bytes of unused honest reservation per credit unit.
  static constexpr double kCreditUnitBytes = 64.0 * 1024.0;
  /// Per-tenant credit balance cap (units); grants truncate here so one
  /// idle tenant cannot bank unbounded burst rights.
  static constexpr std::uint64_t kCreditCap = 1u << 20;

  /// `sink` receives kPenalty / kCreditGrant / kCreditSpend (non-owning;
  /// nullptr = tracing off).
  explicit TenantLedger(obs::TraceSink* sink = nullptr) : sink_(sink) {}

  TenantLedger(const TenantLedger&) = delete;
  TenantLedger& operator=(const TenantLedger&) = delete;

  /// Audits one completed period and applies its consequences (honesty
  /// EMA, streaks, rung moves, credit grant). Returns false for an audit
  /// that moves no streak: anonymous or unpriced work, or a contended
  /// lower bound. Thread-safe.
  bool audit(std::uint64_t tenant, double declared, double observed,
             bool contended, double now);

  /// Current penalty rung of a tenant (0 = trusted / unknown).
  int rung(std::uint64_t tenant) const;

  /// Declared-demand multiplier (rung >= 1): the audited usage ratio,
  /// clamped — < 1 shrinks an inflator's reservation to what it uses,
  /// > 1 grows an under-declarer's to what it takes. 1.0 below rung 1.
  double demand_correction(std::uint64_t tenant) const;

  /// Decayed honesty score in [0, 1]; 1.0 for unknown tenants.
  double honesty(std::uint64_t tenant) const;

  /// Credit price multiplier for a burst (surcharge at rung >= 2, else 1).
  double credit_price(std::uint64_t tenant) const;

  /// True when the tenant is past the deprioritization rung.
  bool deprioritized(std::uint64_t tenant) const { return rung(tenant) >= 3; }

  /// Rung-4 quota check: may this tenant open one more submission given
  /// `open` already admitted or parked? Always true below rung 4.
  bool within_quota(std::uint64_t tenant, std::uint64_t open) const;

  /// Spends up to `want` credit units; returns the units actually spent
  /// (the whole balance when it falls short — the caller learns the
  /// deficit from the difference). Thread-safe.
  std::uint64_t spend(std::uint64_t tenant, std::uint64_t want, double now);

  /// --- Conservation + determinism ----------------------------------------

  std::uint64_t credits_balance(std::uint64_t tenant) const;
  std::uint64_t total_granted() const;
  std::uint64_t total_spent() const;
  std::uint64_t total_outstanding() const;
  /// Σgranted == Σspent + Σoutstanding, exactly (integer units).
  bool credits_conserved() const;

  std::uint64_t audits() const;
  std::uint64_t penalties() const;  ///< rung escalations applied

  /// Order-sensitive digest of the full per-tenant state (tenants walked in
  /// id order). Equal fingerprints mean byte-identical ledgers.
  std::uint64_t fingerprint() const;

 private:
  struct TenantState {
    double honesty = 1.0;          ///< decayed EMA of honest verdicts
    double ratio = 1.0;            ///< decayed audited observed/declared
    std::uint32_t audit_count = 0;
    /// Penalty rung; worse = divergent audit, better = honest audit.
    core::EscalationLadder ladder;
    std::uint64_t credits = 0;         ///< outstanding balance (units)
    std::uint64_t granted = 0;         ///< lifetime grants (units)
    std::uint64_t spent = 0;           ///< lifetime spends (units)
  };

  void trace(obs::EventKind kind, double now, std::uint64_t tenant,
             double demand) const;

  obs::TraceSink* sink_;
  mutable std::mutex mu_;
  /// Ordered so fingerprint() and iteration are deterministic without a
  /// per-call sort.
  std::map<std::uint64_t, TenantState> tenants_;
  std::uint64_t audits_ = 0;
  std::uint64_t penalties_ = 0;
  std::uint64_t total_granted_ = 0;
  std::uint64_t total_spent_ = 0;
};

}  // namespace rda::service
