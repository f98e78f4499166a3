#include "sim/perf_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <random>

namespace rda::sim {
namespace {

TEST(PerfModel, FullyResidentHighReuseNearPeak) {
  Calibration calib;
  const PhaseRate rate = compute_rate(calib, ReuseLevel::kHigh, 1.0);
  // Only the small streaming term remains: within a few % of peak.
  EXPECT_GT(rate.flops_per_sec, 0.95 * calib.core_flops);
  EXPECT_DOUBLE_EQ(rate.residency_bytes_per_sec, 0.0);
}

TEST(PerfModel, EvictionSlowsHighReuseMoreThanLow) {
  Calibration calib;
  const double high_resident =
      compute_rate(calib, ReuseLevel::kHigh, 1.0).flops_per_sec;
  const double high_evicted =
      compute_rate(calib, ReuseLevel::kHigh, 0.0).flops_per_sec;
  const double low_resident =
      compute_rate(calib, ReuseLevel::kLow, 1.0).flops_per_sec;
  const double low_evicted =
      compute_rate(calib, ReuseLevel::kLow, 0.0).flops_per_sec;
  const double high_slowdown = high_resident / high_evicted;
  const double low_slowdown = low_resident / low_evicted;
  EXPECT_GT(high_slowdown, low_slowdown);
  EXPECT_GT(high_slowdown, 1.5);  // losing the cache must hurt a lot
  EXPECT_LT(low_slowdown, 1.2);   // streaming barely cares
}

TEST(PerfModel, RateMonotonicInResidency) {
  Calibration calib;
  double prev = 0.0;
  for (double f = 0.0; f <= 1.0; f += 0.1) {
    const double rate = compute_rate(calib, ReuseLevel::kHigh, f).flops_per_sec;
    EXPECT_GT(rate, prev);
    prev = rate;
  }
}

TEST(PerfModel, TrafficConsistentWithMissRates) {
  Calibration calib;
  const PhaseRate r = compute_rate(calib, ReuseLevel::kMedium, 0.5);
  EXPECT_NEAR(r.dram_bytes_per_sec,
              r.residency_bytes_per_sec / calib.fill_efficiency +
                  r.streaming_bytes_per_sec,
              1e-6 * r.dram_bytes_per_sec);
}

TEST(PerfModel, ResidentFractionClamped) {
  Calibration calib;
  const PhaseRate below = compute_rate(calib, ReuseLevel::kHigh, -0.5);
  const PhaseRate zero = compute_rate(calib, ReuseLevel::kHigh, 0.0);
  EXPECT_DOUBLE_EQ(below.flops_per_sec, zero.flops_per_sec);
  const PhaseRate above = compute_rate(calib, ReuseLevel::kHigh, 1.5);
  const PhaseRate one = compute_rate(calib, ReuseLevel::kHigh, 1.0);
  EXPECT_DOUBLE_EQ(above.flops_per_sec, one.flops_per_sec);
}

TEST(PerfModel, BandwidthCapScalesAggregateTraffic) {
  Calibration calib;
  // 12 fully-evicted low-reuse (streaming) threads oversubscribe DRAM.
  std::vector<RateRequest> requests(12, {ReuseLevel::kLow, 0.0});
  const double bw = 10e9;
  const auto rates = compute_rates_capped(calib, requests, bw);
  double total = 0.0;
  for (const PhaseRate& r : rates) total += r.dram_bytes_per_sec;
  EXPECT_LE(total, bw * 1.001);
  EXPECT_GT(total, bw * 0.98);  // the cap binds, not over-throttles
}

TEST(PerfModel, NoCapWhenTrafficFits) {
  Calibration calib;
  std::vector<RateRequest> requests(2, {ReuseLevel::kHigh, 1.0});
  const auto capped = compute_rates_capped(calib, requests, 100e9);
  const PhaseRate solo = compute_rate(calib, ReuseLevel::kHigh, 1.0);
  EXPECT_DOUBLE_EQ(capped[0].flops_per_sec, solo.flops_per_sec);
}

TEST(PerfModel, CapHitsMemoryBoundThreadsHarder) {
  Calibration calib;
  std::vector<RateRequest> requests = {
      {ReuseLevel::kLow, 0.0},   // streaming, memory bound
      {ReuseLevel::kHigh, 1.0},  // resident, compute bound
  };
  // Add streaming threads until the cap binds.
  for (int i = 0; i < 10; ++i) requests.push_back({ReuseLevel::kLow, 0.0});
  const auto capped = compute_rates_capped(calib, requests, 8e9);
  const double stream_uncapped =
      compute_rate(calib, ReuseLevel::kLow, 0.0).flops_per_sec;
  const double compute_uncapped =
      compute_rate(calib, ReuseLevel::kHigh, 1.0).flops_per_sec;
  const double stream_loss = capped[0].flops_per_sec / stream_uncapped;
  const double compute_loss = capped[1].flops_per_sec / compute_uncapped;
  EXPECT_LT(stream_loss, 0.9);           // memory-bound thread throttled
  EXPECT_GT(compute_loss, stream_loss);  // compute-bound one less affected
}

TEST(PerfModel, EmptyRequestListOk) {
  Calibration calib;
  EXPECT_TRUE(compute_rates_capped(calib, {}, 1e9).empty());
}

// Property sweep over reuse levels and residency: rates and traffic always
// positive and finite.
class PerfSweep
    : public ::testing::TestWithParam<std::tuple<ReuseLevel, double>> {};

TEST_P(PerfSweep, RatesFiniteAndPositive) {
  Calibration calib;
  const auto [reuse, fraction] = GetParam();
  const PhaseRate r = compute_rate(calib, reuse, fraction);
  EXPECT_GT(r.flops_per_sec, 0.0);
  EXPECT_GE(r.dram_bytes_per_sec, 0.0);
  EXPECT_GE(r.residency_bytes_per_sec, 0.0);
  EXPECT_GE(r.streaming_bytes_per_sec, 0.0);
  EXPECT_LT(r.flops_per_sec, calib.core_flops * 1.0001);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PerfSweep,
    ::testing::Combine(::testing::Values(ReuseLevel::kLow, ReuseLevel::kMedium,
                                         ReuseLevel::kHigh),
                       ::testing::Values(0.0, 0.25, 0.5, 0.75, 1.0)));

// --- Differential test: RateSolver against an unguided bisection ---------

/// Reference: the queueing-rate model and the bracket-and-bisect search for
/// the bandwidth cap with the aggregate computed at every probe. RateSolver
/// must agree with it bit for bit.
struct OracleSolve {
  double q = 1.0;
  std::vector<PhaseRate> rates;
};

PhaseRate oracle_rate(const Calibration& calib, ReuseLevel reuse,
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

double oracle_aggregate(const Calibration& calib,
                        const std::vector<RateRequest>& requests, double q) {
  double total = 0.0;
  for (const RateRequest& r : requests) {
    const double f = std::clamp(r.resident_fraction, 0.0, 1.0);
    const double mpf = calib.stream_misses_per_flop(r.reuse) +
                       calib.reuse_misses_per_flop(r.reuse) * (1.0 - f);
    const double miss_seconds = mpf * calib.miss_stall;
    const double time_per_flop = calib.flop_time() + miss_seconds * q;
    total += 1.0 / time_per_flop * mpf * calib.line_bytes;
  }
  return total;
}

OracleSolve oracle_solve(const Calibration& calib,
                         const std::vector<RateRequest>& requests,
                         double bandwidth) {
  OracleSolve out;
  if (oracle_aggregate(calib, requests, 1.0) > bandwidth) {
    double lo = 1.0, hi = 2.0;
    while (oracle_aggregate(calib, requests, hi) > bandwidth && hi < 1e6) {
      hi *= 2.0;
    }
    for (int iter = 0; iter < 60 && hi - lo > 1e-9 * hi; ++iter) {
      const double mid = 0.5 * (lo + hi);
      if (oracle_aggregate(calib, requests, mid) > bandwidth) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    out.q = hi;
  }
  for (const RateRequest& r : requests) {
    out.rates.push_back(oracle_rate(calib, r.reuse, r.resident_fraction, out.q));
  }
  return out;
}

static_assert(sizeof(PhaseRate) == 4 * sizeof(double),
              "PhaseRate compared with memcmp must have no padding");

/// Number of rates that differ from the oracle's in any bit of any field.
int bitwise_mismatches(const std::vector<PhaseRate>& got,
                       const std::vector<PhaseRate>& want) {
  if (got.size() != want.size()) return -1;
  int mismatches = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::memcmp(&got[i], &want[i], sizeof(PhaseRate)) != 0) ++mismatches;
  }
  return mismatches;
}

std::vector<RateRequest> streaming_threads(int n) {
  return std::vector<RateRequest>(static_cast<std::size_t>(n),
                                  {ReuseLevel::kLow, 0.0});
}

TEST(RateSolverDifferential, BracketCapMatchesOracle) {
  Calibration calib;
  const std::vector<RateRequest> requests = streaming_threads(64);
  // Far below what even q = 2^20 brings the streams down to.
  const double bandwidth = 1e-7 * oracle_aggregate(calib, requests, 1.0);
  const OracleSolve want = oracle_solve(calib, requests, bandwidth);
  ASSERT_EQ(want.q, 1048576.0);  // the doubling stopped at the 1e6 cap
  RateSolver solver;
  std::vector<PhaseRate> got;
  solver.solve(calib, requests, bandwidth, got);
  EXPECT_EQ(bitwise_mismatches(got, want.rates), 0);
}

TEST(RateSolverDifferential, BandwidthWithinOneUlpOfUncappedTraffic) {
  Calibration calib;
  const std::vector<RateRequest> requests = {{ReuseLevel::kLow, 0.0},
                                             {ReuseLevel::kMedium, 0.5},
                                             {ReuseLevel::kHigh, 0.0}};
  const double at_one = oracle_aggregate(calib, requests, 1.0);
  RateSolver solver;
  std::vector<PhaseRate> got;
  const double below = std::nextafter(at_one, 0.0);
  for (const double bandwidth : {below, at_one, std::nextafter(at_one, 2 * at_one)}) {
    const OracleSolve want = oracle_solve(calib, requests, bandwidth);
    EXPECT_EQ(want.q > 1.0, bandwidth == below) << bandwidth;
    solver.solve(calib, requests, bandwidth, got);
    EXPECT_EQ(bitwise_mismatches(got, want.rates), 0) << bandwidth;
  }
}

/// Seeded random sweep over thread count, residency, reuse, calibration and
/// how far the bandwidth sits from the uncapped traffic.
TEST(RateSolverDifferential, SeededSweepBitIdentical) {
  std::mt19937_64 rng(20180813);
  const auto unit = [&rng] {
    return static_cast<double>(rng() >> 11) * 0x1.0p-53;
  };
  const auto log_uniform = [&unit](double lo, double hi) {
    return lo * std::pow(hi / lo, unit());
  };
  constexpr int kSolves = 60000;
  RateSolver solver;  // one solver: its scratch is reused across solves
  std::vector<RateRequest> requests;
  std::vector<PhaseRate> got;
  int capped = 0, mismatched = 0;
  for (int i = 0; i < kSolves; ++i) {
    Calibration calib;
    if (i % 2 == 1) {
      calib.core_flops = log_uniform(1e8, 1e11);
      calib.miss_stall = log_uniform(1e-11, 1e-6);
    }
    if (i % 97 == 0) calib.miss_stall = 0.0;  // traffic does not fall with q
    requests.clear();
    const int n = 1 + static_cast<int>(rng() % 64);
    for (int t = 0; t < n; ++t) {
      RateRequest r;
      r.reuse = static_cast<ReuseLevel>(rng() % 3);
      switch (rng() % 3) {
        case 0: r.resident_fraction = 0.0; break;
        case 1: r.resident_fraction = 1.0; break;
        default: r.resident_fraction = unit(); break;
      }
      requests.push_back(r);
    }
    const double at_one = oracle_aggregate(calib, requests, 1.0);
    const double sign = rng() % 2 ? 1.0 : -1.0;
    double bandwidth = 0.0;
    switch (rng() % 6) {
      case 0: bandwidth = at_one * unit() * 1.5; break;
      case 1: bandwidth = at_one * log_uniform(1e-9, 1.0); break;
      case 2: bandwidth = at_one * 1e-9; break;  // q reaches the bracket cap
      case 3: bandwidth = at_one * (1.0 + sign * 1e-12); break;
      case 4: bandwidth = at_one * (1.0 + sign * 1e-6); break;
      default: {
        // The aggregate at a point the bisection probes (the q it returns
        // for another bandwidth), or one ulp either side: the comparison
        // there is decided by rounding alone.
        const double probed = oracle_solve(calib, requests, at_one * unit()).q;
        bandwidth = oracle_aggregate(calib, requests, probed);
        if (rng() % 3 != 0) bandwidth = std::nextafter(bandwidth, sign * at_one);
        break;
      }
    }
    if (!(bandwidth > 0.0)) bandwidth = at_one;
    const OracleSolve want = oracle_solve(calib, requests, bandwidth);
    capped += want.q > 1.0 ? 1 : 0;
    solver.solve(calib, requests, bandwidth, got);
    if (bitwise_mismatches(got, want.rates) != 0) {
      ++mismatched;
      ADD_FAILURE() << "solve " << i << ": n=" << n << " bandwidth=" << bandwidth
                    << " oracle q=" << want.q;
      if (mismatched >= 5) break;
    }
  }
  EXPECT_EQ(mismatched, 0);
  EXPECT_GT(capped, kSolves / 2);  // the sweep mostly exercises the cap
}

}  // namespace
}  // namespace rda::sim
