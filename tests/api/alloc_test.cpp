// The calm begin/end round trip allocates nothing once warm: the demands
// travel in the calling thread's recycled buffer and the registry reuses
// its slots. A blocked round trip allocates nothing either: the wake batch
// travels in recycled buffers. Counted by replacing the global operator new
// for this binary.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <thread>

#include "api/pp.hpp"

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

namespace rda::api {
namespace {

using rda::util::MB;

constexpr int kWarm = 100;
constexpr int kCounted = 10'000;

/// operator new calls made by kCounted runs of `round_trip` after kWarm
/// warm-up runs.
template <typename Fn>
std::uint64_t news_per_counted_runs(Fn&& round_trip) {
  for (int i = 0; i < kWarm; ++i) round_trip();
  const std::uint64_t before = g_news.load();
  for (int i = 0; i < kCounted; ++i) round_trip();
  return g_news.load() - before;
}

TEST(CalmRoundTrip, CounterSeesAllocations) {
  const std::uint64_t before = g_news.load();
  ::operator delete(::operator new(16));
  EXPECT_EQ(g_news.load() - before, 1u);
}

TEST(CalmRoundTrip, ApiSingleResourceFormAllocatesNothing) {
  EXPECT_EQ(news_per_counted_runs([] {
              pp_end(pp_begin(RESOURCE_LLC, MB(1), REUSE_HIGH));
            }),
            0u);
}

TEST(CalmRoundTrip, ApiDemandVectorFormAllocatesNothing) {
  const core::ResourceDemand demands[] = {
      {RESOURCE_LLC, static_cast<double>(MB(1))}};
  EXPECT_EQ(news_per_counted_runs(
                [&] { pp_end(pp_begin(demands, REUSE_HIGH)); }),
            0u);
}

TEST(CalmRoundTrip, GateBeginEndAllocatesNothing) {
  rt::GateConfig cfg;
  cfg.llc_capacity_bytes = static_cast<double>(MB(15));
  cfg.bandwidth_capacity = 30e9;
  rt::AdmissionGate gate(cfg);
  EXPECT_EQ(news_per_counted_runs([&] {
              gate.end(gate.begin(RESOURCE_LLC, static_cast<double>(MB(1)),
                                  REUSE_HIGH));
            }),
            0u);
  const core::ResourceDemand two[] = {
      {RESOURCE_LLC, static_cast<double>(MB(1))},
      {ResourceKind::kMemBandwidth, 1e9}};
  EXPECT_EQ(news_per_counted_runs(
                [&] { gate.end(gate.begin_multi(two, REUSE_HIGH)); }),
            0u);
  EXPECT_EQ(gate.stats().monitor.blocks, 0u);  // the calm lane served all
}

// Two threads whose demands (10 MB each on a 15 MB LLC) never fit together
// hand the cache back and forth: every round, the helper parks behind the
// main thread's period and is granted when it ends. The grant allocates
// nothing: the gate overwrites the helper's wait-channel entry in place,
// and the core's wake batch swaps between the monitor's pending list and
// the releasing thread's spare buffer.
TEST(BlockedRoundTrip, GrantAllocatesNothing) {
  rt::GateConfig cfg;
  cfg.llc_capacity_bytes = static_cast<double>(MB(15));
  rt::AdmissionGate gate(cfg);
  const double demand = static_cast<double>(MB(10));
  std::atomic<int> started{0};
  std::atomic<int> finished{0};
  std::atomic<bool> stop{false};
  std::thread helper([&] {
    for (int round = 1;; ++round) {
      while (started.load() < round) {
        if (stop.load()) return;
        std::this_thread::yield();
      }
      gate.end(gate.begin(RESOURCE_LLC, demand, REUSE_HIGH));
      finished.store(round);
    }
  });
  int round = 0;
  const std::uint64_t news = news_per_counted_runs([&] {
    const core::PeriodId held = gate.begin(RESOURCE_LLC, demand, REUSE_HIGH);
    started.store(++round);
    while (gate.waiting() == 0) std::this_thread::yield();
    gate.end(held);
    while (finished.load() < round) std::this_thread::yield();
  });
  stop.store(true);
  helper.join();
  const rt::GateStats stats = gate.stats();
  EXPECT_EQ(stats.monitor.blocks, static_cast<std::uint64_t>(round));
  EXPECT_EQ(stats.waits, stats.monitor.blocks);
  EXPECT_EQ(news, 0u);
}

}  // namespace
}  // namespace rda::api
