#include "service/tenant_ledger.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "core/feedback.hpp"

namespace rda::service {

void TenantLedger::trace(obs::EventKind kind, double now,
                         std::uint64_t tenant, double demand) const {
  if (sink_ == nullptr) return;
  obs::Event e;
  e.time = now;
  e.kind = kind;
  e.process = static_cast<sim::ProcessId>(tenant);
  e.demand = demand;
  sink_->record(e);
}

bool TenantLedger::audit(std::uint64_t tenant, double declared,
                         double observed, bool contended, double now) {
  std::lock_guard<std::mutex> lock(mu_);
  // Anonymous or unpriced work is not auditable.
  if (tenant == 0 || declared <= 0.0) return false;
  ++audits_;
  TenantState& state = tenants_[tenant];
  ++state.audit_count;

  const double ratio = std::max(observed, 0.0) / declared;
  const double band = std::log1p(kTolerance);
  // ratio == 0 means the counters saw nothing resident — treat as maximal
  // inflation rather than feeding log(0) through the band test.
  const bool honest =
      ratio > 0.0 && std::abs(std::log(ratio)) <= band;

  // Contended lower bound: the period may have been unable to grow its
  // occupancy, so an apparent over-declaration proves nothing. A contended
  // period that still used at least its declaration is a full measurement.
  const bool lower_bound = contended && ratio < 1.0;
  state.ratio = core::update_usage_ratio(state.ratio, ratio, kRatioDecay,
                                         lower_bound);
  if (lower_bound) {
    // Record the audit (the ratio may still GROW toward 1) but touch no
    // streak and no score — this is the recoverability guarantee for
    // honest-but-contended tenants.
    return false;
  }

  state.honesty = kHonestyDecay * state.honesty +
                  (1.0 - kHonestyDecay) * (honest ? 1.0 : 0.0);

  if (honest) {
    // Karma donation: honest unused reservation becomes credits. Truncation
    // (floor + cap) happens at grant time so conservation stays exact.
    if (declared > observed) {
      const double unused = declared - observed;
      auto units = static_cast<std::uint64_t>(unused / kCreditUnitBytes);
      const std::uint64_t room =
          state.credits >= kCreditCap ? 0 : kCreditCap - state.credits;
      units = std::min(units, room);
      if (units > 0) {
        state.credits += units;
        state.granted += units;
        total_granted_ += units;
        trace(obs::EventKind::kCreditGrant, now, tenant,
              static_cast<double>(units));
      }
    }
  }
  const bool moved = honest ? state.ladder.better(kRecoverAfter)
                            : state.ladder.worse(kEscalateAfter, 4);
  if (moved) {
    if (!honest) ++penalties_;
    trace(obs::EventKind::kPenalty, now, tenant,
          static_cast<double>(state.ladder.rung()));
  }
  return true;
}

int TenantLedger::rung(std::uint64_t tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = tenants_.find(tenant);
  return it == tenants_.end() ? 0 : it->second.ladder.rung();
}

double TenantLedger::demand_correction(std::uint64_t tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = tenants_.find(tenant);
  if (it == tenants_.end() || it->second.ladder.rung() < 1) return 1.0;
  return std::clamp(it->second.ratio, kCorrectionMin, kCorrectionMax);
}

double TenantLedger::honesty(std::uint64_t tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = tenants_.find(tenant);
  return it == tenants_.end() ? 1.0 : it->second.honesty;
}

double TenantLedger::credit_price(std::uint64_t tenant) const {
  return rung(tenant) >= 2 ? kSurcharge : 1.0;
}

bool TenantLedger::within_quota(std::uint64_t tenant,
                                std::uint64_t open) const {
  if (rung(tenant) < 4) return true;
  return open < kQuotaOutstanding;
}

std::uint64_t TenantLedger::spend(std::uint64_t tenant, std::uint64_t want,
                                  double now) {
  if (want == 0) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = tenants_.find(tenant);
  if (it == tenants_.end()) return 0;
  const std::uint64_t paid = std::min(want, it->second.credits);
  if (paid == 0) return 0;
  it->second.credits -= paid;
  it->second.spent += paid;
  total_spent_ += paid;
  trace(obs::EventKind::kCreditSpend, now, tenant,
        static_cast<double>(paid));
  return paid;
}

std::uint64_t TenantLedger::credits_balance(std::uint64_t tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = tenants_.find(tenant);
  return it == tenants_.end() ? 0 : it->second.credits;
}

std::uint64_t TenantLedger::total_granted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_granted_;
}

std::uint64_t TenantLedger::total_spent() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_spent_;
}

std::uint64_t TenantLedger::total_outstanding() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t sum = 0;
  for (const auto& [tenant, state] : tenants_) sum += state.credits;
  return sum;
}

bool TenantLedger::credits_conserved() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t outstanding = 0;
  std::uint64_t granted = 0;
  std::uint64_t spent = 0;
  for (const auto& [tenant, state] : tenants_) {
    outstanding += state.credits;
    granted += state.granted;
    spent += state.spent;
    // Per-tenant conservation implies the global identity; check both so a
    // compensating pair of corruptions cannot cancel out.
    if (state.granted != state.spent + state.credits) return false;
  }
  return granted == total_granted_ && spent == total_spent_ &&
         total_granted_ == total_spent_ + outstanding;
}

std::uint64_t TenantLedger::audits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return audits_;
}

std::uint64_t TenantLedger::penalties() const {
  std::lock_guard<std::mutex> lock(mu_);
  return penalties_;
}

std::uint64_t TenantLedger::fingerprint() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t h = 0x9e3779b97f4a7c15ull;
  const auto mix = [&h](std::uint64_t x) {
    h ^= x + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  };
  const auto mix_double = [&](double d) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(d));
    std::memcpy(&bits, &d, sizeof(bits));
    mix(bits);
  };
  for (const auto& [tenant, state] : tenants_) {
    mix(tenant);
    mix_double(state.honesty);
    mix_double(state.ratio);
    mix(state.audit_count);
    mix(state.ladder.worse_streak());
    mix(state.ladder.better_streak());
    mix(static_cast<std::uint64_t>(state.ladder.rung()));
    mix(state.credits);
    mix(state.granted);
    mix(state.spent);
  }
  mix(audits_);
  mix(penalties_);
  mix(total_granted_);
  mix(total_spent_);
  return h;
}

}  // namespace rda::service
