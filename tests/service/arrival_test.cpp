#include "service/arrival.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "service/frontend.hpp"

namespace rda::service {
namespace {

std::vector<Arrival> take(ArrivalGenerator& gen, std::size_t n) {
  std::vector<Arrival> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(gen.next());
  return out;
}

TEST(Arrival, SameSeedReproducesTheStreamBitForBit) {
  ArrivalConfig cfg;
  cfg.shape = ArrivalShape::kBursty;
  cfg.seed = 42;
  ArrivalGenerator a(cfg);
  ArrivalGenerator b(cfg);
  for (int i = 0; i < 1000; ++i) {
    const Arrival x = a.next();
    const Arrival y = b.next();
    EXPECT_EQ(x.time, y.time);
    EXPECT_EQ(x.seq, y.seq);
    EXPECT_EQ(x.tenant, y.tenant);
    EXPECT_EQ(x.demand_bytes, y.demand_bytes);
    EXPECT_EQ(x.service_seconds, y.service_seconds);
  }
}

TEST(Arrival, DifferentSeedsDiverge) {
  ArrivalConfig cfg;
  ArrivalGenerator a(cfg);
  cfg.seed = 2;
  ArrivalGenerator b(cfg);
  EXPECT_NE(a.next().time, b.next().time);
}

TEST(Arrival, EveryShapeHoldsItsMeanRate) {
  // 50k arrivals at rate 20k/s should span ~2.5 s for every shape (the
  // diurnal/bursty modulations preserve the long-run mean by design).
  for (const ArrivalShape shape :
       {ArrivalShape::kPoisson, ArrivalShape::kDiurnal,
        ArrivalShape::kBursty}) {
    ArrivalConfig cfg;
    cfg.shape = shape;
    cfg.rate = 20000.0;
    cfg.seed = 7;
    ArrivalGenerator gen(cfg);
    const auto arrivals = take(gen, 50000);
    const double span = arrivals.back().time;
    const double empirical_rate = 50000.0 / span;
    EXPECT_NEAR(empirical_rate, cfg.rate, 0.15 * cfg.rate)
        << to_string(shape);
    // Time is strictly increasing and seq is dense.
    for (std::size_t i = 1; i < arrivals.size(); ++i) {
      ASSERT_LT(arrivals[i - 1].time, arrivals[i].time);
      ASSERT_EQ(arrivals[i].seq, i);
    }
  }
}

TEST(Arrival, BurstyIsBurstierThanPoisson) {
  // Compare the squared coefficient of variation of inter-arrival gaps:
  // Poisson gives ~1; an MMPP with an 8x ON state is clearly above it.
  const auto cv2 = [](ArrivalShape shape) {
    ArrivalConfig cfg;
    cfg.shape = shape;
    cfg.seed = 11;
    ArrivalGenerator gen(cfg);
    const auto arrivals = take(gen, 40000);
    double prev = 0.0, sum = 0.0, sum2 = 0.0;
    for (const Arrival& a : arrivals) {
      const double gap = a.time - prev;
      prev = a.time;
      sum += gap;
      sum2 += gap * gap;
    }
    const double n = static_cast<double>(arrivals.size());
    const double mean = sum / n;
    return (sum2 / n - mean * mean) / (mean * mean);
  };
  EXPECT_NEAR(cv2(ArrivalShape::kPoisson), 1.0, 0.2);
  EXPECT_GT(cv2(ArrivalShape::kBursty), 1.5);
}

TEST(Arrival, HotTenantGetsItsShare) {
  ArrivalConfig cfg;
  cfg.tenants = 8;
  cfg.hot_tenant_share = 0.4;
  cfg.seed = 13;
  ArrivalGenerator gen(cfg);
  std::size_t hot = 0;
  const std::size_t n = 20000;
  for (std::size_t i = 0; i < n; ++i) {
    const Arrival a = gen.next();
    ASSERT_GE(a.tenant, 1u);
    ASSERT_LE(a.tenant, cfg.tenants);
    if (a.tenant == 1) ++hot;
  }
  EXPECT_NEAR(static_cast<double>(hot) / static_cast<double>(n), 0.4, 0.03);
}

TEST(Arrival, DemandAndServiceStayInsideTheSpread) {
  ArrivalConfig cfg;
  cfg.demand_mean_bytes = 1.0e6;
  cfg.demand_spread = 0.5;
  cfg.service_mean_seconds = 1.0e-3;
  cfg.service_spread = 0.25;
  ArrivalGenerator gen(cfg);
  for (int i = 0; i < 5000; ++i) {
    const Arrival a = gen.next();
    ASSERT_GE(a.demand_bytes, 0.5e6);
    ASSERT_LE(a.demand_bytes, 1.5e6);
    ASSERT_GE(a.service_seconds, 0.75e-3);
    ASSERT_LE(a.service_seconds, 1.25e-3);
  }
}

/// Forwards to a generator and counts the calls, the way a wrapper that
/// times each next() does.
class CountingSource final : public ArrivalSource {
 public:
  explicit CountingSource(ArrivalSource& inner) : inner_(inner) {}
  Arrival next() override {
    ++calls;
    return inner_.next();
  }
  std::uint64_t calls = 0;

 private:
  ArrivalSource& inner_;
};

TEST(Arrival, WrappedSourceDrivesTheFrontEndLikeTheGenerator) {
  // The service layer sees only ArrivalSource: a forwarding wrapper yields
  // the same run as the bare generator, and run() asks for exactly the
  // arrivals it was told to feed.
  ArrivalConfig arr;
  arr.shape = ArrivalShape::kPoisson;
  arr.rate = 5000.0;
  arr.seed = 53;
  arr.tenants = 4;
  arr.demand_mean_bytes = 2.0 * 1024.0 * 1024.0;
  arr.service_mean_seconds = 2.0e-3;
  ServiceConfig cfg;
  cfg.nodes = 4;
  cfg.node_llc_bytes = 15.0 * 1024.0 * 1024.0;

  ArrivalGenerator live(arr);
  ServiceFrontEnd live_service(cfg);
  const ServiceReport live_report = live_service.run(live, 5000);

  ArrivalGenerator inner(arr);
  CountingSource wrapped(inner);
  ServiceFrontEnd wrapped_service(cfg);
  const ServiceReport wrapped_report = wrapped_service.run(wrapped, 5000);

  EXPECT_EQ(wrapped.calls, 5000u);
  EXPECT_EQ(wrapped_report.checksum, live_report.checksum);
  EXPECT_EQ(wrapped_report.stats.completed, live_report.stats.completed);
  EXPECT_EQ(wrapped_report.stats.enqueued, live_report.stats.enqueued);
  EXPECT_EQ(wrapped_report.elapsed_seconds, live_report.elapsed_seconds);
  EXPECT_EQ(wrapped_report.admission_latency.p99(),
            live_report.admission_latency.p99());
}

}  // namespace
}  // namespace rda::service
