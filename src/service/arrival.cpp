#include "service/arrival.hpp"

#include <cmath>
#include <numbers>

#include "util/check.hpp"

namespace rda::service {

std::string_view to_string(ArrivalShape shape) {
  switch (shape) {
    case ArrivalShape::kPoisson: return "poisson";
    case ArrivalShape::kDiurnal: return "diurnal";
    case ArrivalShape::kBursty: return "bursty";
  }
  return "?";
}

std::string_view to_string(AdversaryKind kind) {
  switch (kind) {
    case AdversaryKind::kNone: return "none";
    case AdversaryKind::kWssInflator: return "wss-inflator";
    case AdversaryKind::kUnderDeclarer: return "under-declarer";
    case AdversaryKind::kChurn: return "churn";
  }
  return "?";
}

namespace {

/// kDiurnal: one "day" lasts this long; the rate swings ±amplitude around
/// the mean. The amplitude stays below 1 so λ(t) never goes negative.
constexpr double kDiurnalPeriodSeconds = 1.0;
constexpr double kDiurnalAmplitude = 0.8;
/// kBursty: the ON-state rate is this multiple of the OFF-state rate; the
/// process spends kBurstFraction of its time ON, in episodes lasting
/// kBurstMeanSeconds on average.
constexpr double kBurstMultiplier = 8.0;
constexpr double kBurstFraction = 0.125;
constexpr double kBurstMeanSeconds = 0.02;
static_assert(kDiurnalAmplitude >= 0.0 && kDiurnalAmplitude < 1.0);
static_assert(kBurstFraction > 0.0 && kBurstFraction < 1.0);
static_assert(kBurstMultiplier >= 1.0);

/// Exponential gap with mean 1/rate. 1 - u is in (0, 1], so the log is
/// finite and the gap strictly positive.
double exponential_gap(util::Rng& rng, double rate) {
  return -std::log(1.0 - rng.next_double()) / rate;
}

}  // namespace

ArrivalGenerator::ArrivalGenerator(ArrivalConfig config)
    : config_(config), rng_(config.seed) {
  RDA_CHECK_MSG(config_.rate > 0.0, "arrival rate must be positive");
  RDA_CHECK_MSG(config_.tenants >= 1, "need at least one tenant");
  RDA_CHECK_MSG(config_.adversary.factor > 0.0,
                "adversary factor must be positive");
  RDA_CHECK_MSG(config_.adversary.churn_pieces >= 1,
                "churn must emit at least one piece");
}

double ArrivalGenerator::next_gap() {
  switch (config_.shape) {
    case ArrivalShape::kPoisson:
      return exponential_gap(rng_, config_.rate);
    case ArrivalShape::kDiurnal: {
      // Thinning (Lewis & Shedler): propose at the peak rate, accept a
      // proposal at t with probability λ(t)/λ_max. Rejected proposals
      // advance time, so the accepted stream follows λ(t) exactly.
      const double peak = config_.rate * (1.0 + kDiurnalAmplitude);
      double t = time_;
      for (;;) {
        t += exponential_gap(rng_, peak);
        const double phase =
            2.0 * std::numbers::pi * t / kDiurnalPeriodSeconds;
        const double lambda =
            config_.rate * (1.0 + kDiurnalAmplitude * std::sin(phase));
        if (rng_.next_double() * peak < lambda) return t - time_;
      }
    }
    case ArrivalShape::kBursty: {
      // Two-state MMPP with the long-run mean pinned to config_.rate:
      //   rate = f·on + (1-f)·off   with   on = m·off
      // ⇒ off = rate / (f·m + 1 - f).
      constexpr double f = kBurstFraction;
      constexpr double m = kBurstMultiplier;
      const double off_rate = config_.rate / (f * m + 1.0 - f);
      const double on_rate = m * off_rate;
      constexpr double on_hold = kBurstMeanSeconds;
      const double off_hold = on_hold * (1.0 - f) / f;
      double t = time_;
      for (;;) {
        if (t >= state_ends_) {
          // Entering a fresh state (the stream starts quiet); draw its
          // exponential holding time.
          burst_on_ = state_ends_ == 0.0 ? false : !burst_on_;
          state_ends_ =
              t + exponential_gap(rng_, 1.0 / (burst_on_ ? on_hold
                                                         : off_hold));
        }
        const double gap =
            exponential_gap(rng_, burst_on_ ? on_rate : off_rate);
        if (t + gap <= state_ends_) return t + gap - time_;
        t = state_ends_;  // gap crossed the state boundary: redraw there
      }
    }
  }
  RDA_CHECK_MSG(false, "unreachable arrival shape");
  return 0.0;
}

Arrival ArrivalGenerator::next() {
  if (!pending_.empty()) {
    Arrival stub = pending_.front();
    pending_.pop_front();
    stub.seq = seq_++;
    return stub;
  }
  time_ += next_gap();

  Arrival a;
  a.time = time_;
  a.seq = seq_++;
  if (config_.tenants == 1 || rng_.next_bool(config_.hot_tenant_share)) {
    a.tenant = 1;
  } else {
    a.tenant = 2 + rng_.next_below(config_.tenants - 1);
  }
  const auto jitter = [&](double mean, double spread) {
    return mean * (1.0 - spread + 2.0 * spread * rng_.next_double());
  };
  a.demand_bytes = jitter(config_.demand_mean_bytes, config_.demand_spread);
  a.service_seconds =
      jitter(config_.service_mean_seconds, config_.service_spread);

  // Adversary overlay: transforms the already-drawn arrival, so RNG
  // consumption — and every honest tenant's sub-stream — is untouched.
  const AdversaryConfig& adv = config_.adversary;
  if (adv.kind != AdversaryKind::kNone && a.tenant == adv.tenant) {
    switch (adv.kind) {
      case AdversaryKind::kNone:
        break;
      case AdversaryKind::kWssInflator:
        a.true_demand_bytes = a.demand_bytes;
        a.demand_bytes *= adv.factor;
        break;
      case AdversaryKind::kUnderDeclarer:
        a.true_demand_bytes = a.demand_bytes * adv.factor;
        break;
      case AdversaryKind::kChurn: {
        a.service_seconds /= static_cast<double>(adv.churn_pieces);
        for (std::uint32_t p = 1; p < adv.churn_pieces; ++p) {
          pending_.push_back(a);  // seq assigned at emission
        }
        break;
      }
    }
  }
  return a;
}

}  // namespace rda::service
