#include "sim/perf_model.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace rda::sim {

namespace {

/// Rate under a queueing factor q applied to the miss stall.
PhaseRate rate_with_queueing(const Calibration& calib, ReuseLevel reuse,
                             double resident_fraction, double q) {
  const double f = std::clamp(resident_fraction, 0.0, 1.0);
  const double stream_mpf = calib.stream_misses_per_flop(reuse);
  const double reuse_mpf = calib.reuse_misses_per_flop(reuse) * (1.0 - f);
  const double mpf = stream_mpf + reuse_mpf;
  const double time_per_flop = calib.flop_time() + mpf * calib.miss_stall * q;

  PhaseRate rate;
  rate.flops_per_sec = 1.0 / time_per_flop;
  rate.dram_bytes_per_sec = rate.flops_per_sec * mpf * calib.line_bytes;
  rate.residency_bytes_per_sec =
      rate.flops_per_sec * reuse_mpf * calib.line_bytes * calib.fill_efficiency;
  rate.streaming_bytes_per_sec =
      rate.flops_per_sec * stream_mpf * calib.line_bytes;
  return rate;
}

}  // namespace

PhaseRate compute_rate(const Calibration& calib, ReuseLevel reuse,
                       double resident_fraction) {
  return rate_with_queueing(calib, reuse, resident_fraction, 1.0);
}

std::vector<PhaseRate> compute_rates_capped(
    const Calibration& calib, const std::vector<RateRequest>& requests,
    double bandwidth) {
  std::vector<PhaseRate> rates;
  RateSolver solver;
  solver.solve(calib, requests, bandwidth, rates);
  return rates;
}

double RateSolver::aggregate_traffic(const Calibration& calib,
                                     double q) const {
  // Same expression tree as rate_with_queueing's dram_bytes_per_sec:
  // miss_seconds is (mpf * miss_stall), so flop_time + miss_seconds * q
  // reproduces flop_time + mpf * miss_stall * q bit-for-bit.
  double total = 0.0;
  for (const Term& t : terms_) {
    const double time_per_flop = calib.flop_time() + t.miss_seconds * q;
    total += 1.0 / time_per_flop * t.mpf * calib.line_bytes;
  }
  return total;
}

RateSolver::Probe RateSolver::probe(const Calibration& calib, double q) const {
  // d/dq [w / (a + m q)] = -w m / (a + m q)^2: the slope reuses the reciprocal.
  const double flop_time = calib.flop_time();
  Probe p;
  for (const Term& t : terms_) {
    const double inv = 1.0 / (flop_time + t.miss_seconds * q);
    const double traffic = inv * t.mpf * calib.line_bytes;
    p.aggregate += traffic;
    p.slope += traffic * inv * t.miss_seconds;
  }
  return p;
}

RateSolver::Band RateSolver::root_band(const Calibration& calib,
                                       double bandwidth) const {
  // Newton on g(q) = aggregate(q) - bandwidth from q = 1, where g > 0. g is
  // convex and decreasing, so the iterates rise toward the root r without
  // overshooting it, and a step of s leaves an error of at most ~2 s^2 / r.
  constexpr int kMaxNewton = 100;
  constexpr double kStepTol = 1e-5;  // |r_est - r| <~ 2e-10 r
  // Probes within this relative distance of r are always computed: the last
  // ~7 halvings of the bisection (it stops at 1e-9), 500x the Newton error.
  constexpr double kMinBand = 1e-7;
  double q = 1.0;
  Probe p = probe(calib, q);
  for (int iter = 0; iter < kMaxNewton; ++iter) {
    const double step = (p.aggregate - bandwidth) / p.slope;
    if (!std::isfinite(step)) break;
    if (std::abs(step) <= kStepTol * q) {
      const double r = q + step;
      // Relative change of the aggregate per relative change of q at r. The
      // computed aggregate is within (n+4) ulps of the true one, so a probe
      // whose true aggregate is further than that from the bandwidth cannot
      // round to the other side; the factor 64 is the safety margin.
      const double elasticity = p.slope * r / bandwidth;
      const double n = static_cast<double>(terms_.size());
      const double band =
          std::max(kMinBand, 64.0 * (n + 4.0) * 2.3e-16 / elasticity);
      // A wide band loses the bound on the right of r (the slope decays as
      // 1/q^2 there): compute every probe instead.
      if (!(band <= 0.25)) break;
      return {r * (1.0 - band), r * (1.0 + band)};
    }
    q += step;
    p = probe(calib, q);
  }
  return {};
}

void RateSolver::solve(const Calibration& calib,
                       const std::vector<RateRequest>& requests,
                       double bandwidth, std::vector<PhaseRate>& out) {
  RDA_CHECK(bandwidth > 0.0);
  terms_.clear();
  terms_.reserve(requests.size());
  for (const RateRequest& r : requests) {
    const double f = std::clamp(r.resident_fraction, 0.0, 1.0);
    Term t;
    t.mpf = calib.stream_misses_per_flop(r.reuse) +
            calib.reuse_misses_per_flop(r.reuse) * (1.0 - f);
    t.miss_seconds = t.mpf * calib.miss_stall;
    terms_.push_back(t);
  }

  double q = 1.0;
  if (aggregate_traffic(calib, 1.0) > bandwidth) {
    // The bisection below decides each "aggregate(mid) > bandwidth" by the
    // side of the root mid lies on, and computes the aggregate only inside
    // the guard band, which holds every probe whose comparison rounding
    // could flip. Every decision, and so q, is the one the computed
    // aggregate gives.
    const Band band = root_band(calib, bandwidth);
    const auto above = [&](double x) {
      if (x < band.lo) return true;
      if (x > band.hi) return false;
      return aggregate_traffic(calib, x) > bandwidth;
    };
    // Aggregate traffic is strictly decreasing in q; bracket then bisect.
    double lo = 1.0, hi = 2.0;
    while (above(hi) && hi < 1e6) {
      hi *= 2.0;
    }
    for (int iter = 0; iter < 60 && hi - lo > 1e-9 * hi; ++iter) {
      const double mid = 0.5 * (lo + hi);
      if (above(mid)) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    q = hi;
  }
  out.clear();
  out.reserve(requests.size());
  for (const RateRequest& r : requests) {
    out.push_back(rate_with_queueing(calib, r.reuse, r.resident_fraction, q));
  }
}

}  // namespace rda::sim
