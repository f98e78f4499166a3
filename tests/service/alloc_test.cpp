// The virtual service front end allocates nothing per arrival once warm:
// the fresh queue is a ring, the drain and release passes reuse member
// scratch, the books are flat tables, and each request's demand buffer
// comes back through its release ticket. Counted by replacing the global
// operator new for this binary (its own executable, so the other service
// tests keep the sanitizers' allocator checks).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "obs/recorder.hpp"
#include "service/arrival.hpp"
#include "service/frontend.hpp"

namespace {

std::atomic<std::uint64_t> g_news{0};

void* counted_alloc(std::size_t size) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace rda::service {
namespace {

constexpr std::uint64_t kArrivals = 40'000;
/// The counted window: from this arrival (warm) ...
constexpr std::uint64_t kFrom = 10'000;
/// ... to this one, so the drain to quiescence is not counted.
constexpr std::uint64_t kTo = 30'000;

/// Passes arrivals through and reads the allocation counter as arrival
/// kFrom and arrival kTo are drawn.
class SnapshotSource final : public ArrivalSource {
 public:
  explicit SnapshotSource(ArrivalSource& inner) : inner_(inner) {}
  Arrival next() override {
    ++drawn_;
    if (drawn_ == kFrom) from_ = g_news.load();
    if (drawn_ == kTo) to_ = g_news.load();
    return inner_.next();
  }
  std::uint64_t counted() const { return to_ - from_; }

 private:
  ArrivalSource& inner_;
  std::uint64_t drawn_ = 0;
  std::uint64_t from_ = 0;
  std::uint64_t to_ = 0;
};

TEST(ServiceSteadyState, CounterSeesAllocations) {
  const std::uint64_t before = g_news.load();
  ::operator delete(::operator new(16));
  EXPECT_EQ(g_news.load() - before, 1u);
}

// The benchmark's service_adversarial configuration: bursty traffic from
// eight tenants, one inflating its working set 8x, on four nodes with
// locality routing, enforcement, true occupancy and a recorder attached.
TEST(ServiceSteadyState, AdversarialRunAllocatesNothingPerArrival) {
  obs::EventRecorder recorder(kArrivals * 8);
  ArrivalConfig a;
  a.shape = ArrivalShape::kBursty;
  a.rate = 6000.0;
  a.seed = 1;
  a.tenants = 8;
  a.hot_tenant_share = 0.4;
  a.demand_mean_bytes = 2.0 * 1024.0 * 1024.0;
  a.service_mean_seconds = 2.0e-3;
  a.adversary.kind = AdversaryKind::kWssInflator;
  a.adversary.tenant = 1;
  a.adversary.factor = 8.0;
  ArrivalGenerator generator(a);
  SnapshotSource source(generator);

  ServiceConfig c;
  c.nodes = 4;
  c.node_llc_bytes = 15360.0 * 1024.0;
  c.routing = RoutePolicy::kLocalityAware;
  c.enforce = true;
  c.model_true_occupancy = true;
  c.trace_sink = &recorder;
  ServiceFrontEnd frontend(c);
  const ServiceReport report = frontend.run(source, kArrivals);

  // The counted window saw the whole pipeline at work: parks and wakes on
  // the slow lane, audits, quota sheds and traced events.
  EXPECT_EQ(report.stats.completed + report.stats.shed, kArrivals);
  EXPECT_GT(report.admission.blocks, 0u);
  EXPECT_GT(report.admission.wakes, 0u);
  EXPECT_GT(report.stats.audits, 0u);
  EXPECT_GT(report.stats.quota_denied, 0u);
  EXPECT_EQ(recorder.dropped(), 0u);

  const double per_arrival = static_cast<double>(source.counted()) /
                             static_cast<double>(kTo - kFrom);
  EXPECT_LE(per_arrival, 0.05) << source.counted() << " allocations over "
                               << kTo - kFrom << " arrivals";
}

}  // namespace
}  // namespace rda::service
