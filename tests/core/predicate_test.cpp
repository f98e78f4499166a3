// SchedulingPredicate contract (multi-resource admission): a demand vector
// is admitted only when every row fits its bound, the charge is
// all-or-nothing with exact rollback, would_admit implies try_schedule when
// serialized under every policy factor, and the per-kind budget invariant
// Σusage + Σfree − overdraft == bound holds under fuzz and 16-thread churn.
// The suite is named `Combiner`: the predicate combines the per-row verdicts
// into one. The policy suites below pin apply_policy itself: the factor each
// PolicyKind maps to and would_admit's verdict at the factor's boundary.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <thread>
#include <utility>
#include <vector>

#include "core/admission.hpp"
#include "core/predicate.hpp"
#include "core/resource_monitor.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace rda::core {
namespace {

using util::MB;

constexpr double kLlcCap = 15.0 * 1024.0 * 1024.0;
constexpr double kBwCap = 30e9;
constexpr double kWattsCap = 20.0;

constexpr ResourceKind kKinds[] = {ResourceKind::kLLC,
                                   ResourceKind::kMemBandwidth,
                                   ResourceKind::kEnergyBudget};

constexpr double kInf = std::numeric_limits<double>::infinity();

struct PredicateFixture {
  explicit PredicateFixture(double factor = 1.0)
      : predicate(factor, resources) {
    const auto configure = [&](ResourceKind kind, double capacity) {
      resources.set_capacity(kind, capacity);
      resources.set_admission_bound(kind, predicate.bound(capacity));
    };
    configure(ResourceKind::kLLC, kLlcCap);
    configure(ResourceKind::kMemBandwidth, kBwCap);
    configure(ResourceKind::kEnergyBudget, kWattsCap);
  }

  /// The per-kind budget conservation law, checked for every kind with a
  /// finite bound.
  void expect_invariant() const {
    for (const ResourceKind kind : kKinds) {
      const double bound = resources.admission_bound(kind);
      if (std::isinf(bound)) continue;
      const double lhs = resources.usage(kind) + resources.total_free(kind) -
                         resources.overdraft(kind);
      EXPECT_NEAR(lhs, bound, 1e-3 * std::max(1.0, bound))
          << to_string(kind);
    }
  }

  void expect_all_zero_usage() const {
    for (const ResourceKind kind : kKinds) {
      EXPECT_NEAR(resources.usage(kind), 0.0, 1e-6) << to_string(kind);
      EXPECT_NEAR(resources.overdraft(kind), 0.0, 1e-6) << to_string(kind);
    }
  }

  ResourceMonitor resources;
  SchedulingPredicate predicate;
};

TEST(Combiner, AllMustFitRejectsWhenAnyResourceOverflows) {
  PredicateFixture fx;
  // Watts over its cap; the LLC component fits easily.
  const std::vector<ResourceDemand> demands = {
      {ResourceKind::kLLC, static_cast<double>(MB(1))},
      {ResourceKind::kEnergyBudget, kWattsCap + 5.0}};
  EXPECT_FALSE(fx.predicate.would_admit(demands));
  EXPECT_FALSE(fx.predicate.try_schedule(demands, 0));
  // Atomicity: the fitting LLC component must NOT have been charged.
  fx.expect_all_zero_usage();
  fx.expect_invariant();
}

TEST(Combiner, AllMustFitChargesAndReleasesEveryKind) {
  PredicateFixture fx;
  const std::vector<ResourceDemand> demands = {
      {ResourceKind::kLLC, static_cast<double>(MB(4))},
      {ResourceKind::kMemBandwidth, 10e9},
      {ResourceKind::kEnergyBudget, 8.0}};
  ASSERT_TRUE(fx.predicate.would_admit(demands));
  ASSERT_TRUE(fx.predicate.try_schedule(demands, 3));
  EXPECT_NEAR(fx.resources.usage(ResourceKind::kLLC),
              static_cast<double>(MB(4)), 1.0);
  EXPECT_NEAR(fx.resources.usage(ResourceKind::kMemBandwidth), 10e9, 1.0);
  EXPECT_NEAR(fx.resources.usage(ResourceKind::kEnergyBudget), 8.0, 1e-9);
  fx.expect_invariant();
  for (const ResourceDemand& d : demands) {
    fx.resources.decrement_load(d.resource, d.amount, 3);
  }
  fx.expect_all_zero_usage();
  fx.expect_invariant();
}

TEST(Combiner, WouldAdmitImpliesTryScheduleWhenSerialized) {
  // The slow-lane rescan admits a waiter iff would_admit passes, then calls
  // try_schedule — a would_admit that passes where try_schedule fails would
  // wake a thread into a denial. Fuzz the implication under Strict, under
  // Compromise at every x ablate_oversub sweeps, and under the infinite
  // factor (Linux default).
  for (const double factor : {1.0, 1.25, 1.5, 2.0, 8.0, kInf}) {
    SCOPED_TRACE(testing::Message() << "factor " << factor);
    PredicateFixture fx(factor);
    util::Rng rng(42);

    struct Held {
      std::vector<ResourceDemand> demands;
      std::uint32_t stripe;
    };
    std::vector<Held> held;
    std::size_t denied = 0;
    for (int step = 0; step < 2000; ++step) {
      if (!held.empty() && rng.next_bool(0.45)) {
        const std::size_t pick = rng.next_below(held.size());
        for (const ResourceDemand& d : held[pick].demands) {
          fx.resources.decrement_load(d.resource, d.amount,
                                      held[pick].stripe);
        }
        held.erase(held.begin() + static_cast<std::ptrdiff_t>(pick));
        continue;
      }
      Held h;
      h.stripe = static_cast<std::uint32_t>(rng.next_below(16));
      h.demands.push_back(
          {ResourceKind::kLLC, rng.next_double(0.0, 0.4 * kLlcCap)});
      if (rng.next_bool(0.7)) {
        h.demands.push_back({ResourceKind::kMemBandwidth,
                             rng.next_double(0.0, 0.4 * kBwCap)});
      }
      if (rng.next_bool(0.7)) {
        h.demands.push_back({ResourceKind::kEnergyBudget,
                             rng.next_double(0.0, 0.4 * kWattsCap)});
      }
      const bool would = fx.predicate.would_admit(h.demands);
      const bool did = fx.predicate.try_schedule(h.demands, h.stripe);
      EXPECT_TRUE(!would || did)
          << "would_admit passed but try_schedule failed at step " << step;
      if (did) {
        held.push_back(std::move(h));
      } else {
        ++denied;
      }
    }
    // The bound binds for every finite factor the sweep covers, so the
    // implication is exercised on both verdicts.
    if (std::isinf(factor)) {
      EXPECT_EQ(denied, 0u);
    } else {
      EXPECT_GT(denied, 0u);
    }
    for (const Held& h : held) {
      for (const ResourceDemand& d : h.demands) {
        fx.resources.decrement_load(d.resource, d.amount, h.stripe);
      }
    }
    fx.expect_all_zero_usage();
    fx.expect_invariant();
  }
}

TEST(Combiner, PerKindInvariantFuzz) {
  // Random acquire / forced-charge / release traffic across all three kinds
  // and all 16 stripes; the per-kind conservation law must hold at every
  // checkpoint, not just at quiescence.
  PredicateFixture fx;
  util::Rng rng(7);
  struct Charge {
    ResourceKind kind;
    double amount;
    std::uint32_t stripe;
  };
  std::vector<Charge> charges;
  for (int step = 0; step < 5000; ++step) {
    const double roll = rng.next_double();
    if (roll < 0.4 || charges.empty()) {
      Charge c;
      c.kind = kKinds[rng.next_below(3)];
      c.amount =
          rng.next_double(0.0, 0.3 * fx.resources.capacity(c.kind));
      c.stripe = static_cast<std::uint32_t>(rng.next_below(16));
      if (fx.resources.try_acquire(c.kind, c.amount, c.stripe)) {
        charges.push_back(c);
      }
    } else if (roll < 0.55) {
      // Forced charge (the watchdog/pool path): may overdraft.
      Charge c;
      c.kind = kKinds[rng.next_below(3)];
      c.amount =
          rng.next_double(0.0, 0.5 * fx.resources.capacity(c.kind));
      c.stripe = static_cast<std::uint32_t>(rng.next_below(16));
      fx.resources.increment_load(c.kind, c.amount, c.stripe);
      charges.push_back(c);
    } else {
      const std::size_t pick = rng.next_below(charges.size());
      fx.resources.decrement_load(charges[pick].kind, charges[pick].amount,
                                  charges[pick].stripe);
      charges.erase(charges.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    if (step % 100 == 0) fx.expect_invariant();
  }
  for (const Charge& c : charges) {
    fx.resources.decrement_load(c.kind, c.amount, c.stripe);
  }
  fx.expect_all_zero_usage();
  fx.expect_invariant();
}

// Suite name deliberately starts with "AdmissionCore" so the tier-1 TSan
// stage's filter picks this race test up.
TEST(AdmissionCoreMultiKindRollback, FailedAcquireRollsBackExactlyUnderChurn) {
  // 16 threads hammer all-or-nothing multi-kind acquires sized so that the
  // energy row (4 x 5 W fits, 16 x 5 W does not) forces constant failures
  // mid-claim: a failed acquire must roll back its partial LLC/bandwidth
  // claims exactly, or the final ledger drifts.
  PredicateFixture fx;
  constexpr int kThreads = 16;
  constexpr int kIters = 2000;
  std::atomic<std::uint64_t> admitted{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&fx, &admitted, t] {
      const auto stripe = static_cast<std::uint32_t>(t);
      const std::vector<ResourceDemand> demands = {
          {ResourceKind::kLLC, static_cast<double>(MB(2))},
          {ResourceKind::kMemBandwidth, 5e9},
          {ResourceKind::kEnergyBudget, 5.0}};
      for (int i = 0; i < kIters; ++i) {
        if (fx.predicate.try_schedule(demands, stripe)) {
          admitted.fetch_add(1, std::memory_order_relaxed);
          for (const ResourceDemand& d : demands) {
            fx.resources.decrement_load(d.resource, d.amount, stripe);
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_GT(admitted.load(), 0u);
  fx.expect_all_zero_usage();
  fx.expect_invariant();
  for (const ResourceKind kind : kKinds) {
    EXPECT_NEAR(fx.resources.total_free(kind),
                fx.resources.admission_bound(kind),
                1e-3 * std::max(1.0, fx.resources.admission_bound(kind)))
        << to_string(kind);
  }
}

// apply_policy of Algorithm 1 on one LLC row: does a `demand` fit a
// resource of `capacity` (0 = never configured) already carrying `usage`,
// under `factor`?
bool admits(double factor, double capacity, double usage, double demand) {
  ResourceMonitor monitor;
  if (capacity > 0.0) monitor.set_capacity(ResourceKind::kLLC, capacity);
  if (usage > 0.0) monitor.increment_load(ResourceKind::kLLC, usage);
  const SchedulingPredicate predicate(factor, monitor);
  return predicate.would_admit({{ResourceKind::kLLC, demand}});
}

TEST(StrictPolicy, AllowsExactlyUpToCapacity) {
  const double strict = policy_factor(PolicyKind::kStrict, 2.0);
  EXPECT_TRUE(admits(strict, 100.0, 40.0, 60.0));   // fills exactly
  EXPECT_TRUE(admits(strict, 100.0, 40.0, 0.0));    // plenty of room
  EXPECT_FALSE(admits(strict, 100.0, 40.0, 61.0));  // one byte over
}

TEST(CompromisePolicy, AllowsUpToFactorTimesCapacity) {
  // usage + demand <= 2*capacity <=> outcome >= -capacity.
  const double x2 = policy_factor(PolicyKind::kCompromise, 2.0);
  EXPECT_TRUE(admits(x2, 100.0, 150.0, 50.0));   // lands exactly at 2x
  EXPECT_TRUE(admits(x2, 100.0, 150.0, 0.0));
  EXPECT_FALSE(admits(x2, 100.0, 150.0, 50.1));  // just over 2x
}

TEST(CompromisePolicy, FactorOneEqualsStrict) {
  const double one = policy_factor(PolicyKind::kCompromise, 1.0);
  const double strict = policy_factor(PolicyKind::kStrict, 2.0);
  EXPECT_EQ(one, strict);
  // capacity 64, usage 10: outcomes -10, -0.1, 0, 0.1 and 30.
  for (double demand : {64.0, 54.1, 54.0, 53.9, 24.0}) {
    EXPECT_EQ(admits(one, 64.0, 10.0, demand),
              admits(strict, 64.0, 10.0, demand))
        << demand;
  }
}

TEST(CompromisePolicy, SubUnityFactorRejected) {
  EXPECT_THROW(policy_factor(PolicyKind::kCompromise, 0.5),
               util::CheckFailure);
  AdmissionConfig config;
  config.policy = PolicyKind::kCompromise;
  config.oversubscription = 0.5;
  EXPECT_THROW(AdmissionCore{config}, util::CheckFailure);
}

TEST(AlwaysAdmitPolicy, AdmitsAnything) {
  const double linux_default = policy_factor(PolicyKind::kLinuxDefault, 2.0);
  EXPECT_TRUE(admits(linux_default, 1.0, 1e18, 1e18));
  // Even a resource nobody configured (capacity 0: inf × 0 is NaN).
  EXPECT_TRUE(admits(linux_default, 0.0, 0.0, 1.0));
}

TEST(PolicyFactory, MapsKinds) {
  EXPECT_EQ(policy_factor(PolicyKind::kStrict, 2.0), 1.0);
  EXPECT_EQ(policy_factor(PolicyKind::kCompromise, 2.0), 2.0);
  EXPECT_EQ(policy_factor(PolicyKind::kCompromise, 1.25), 1.25);
  EXPECT_TRUE(std::isinf(policy_factor(PolicyKind::kLinuxDefault, 2.0)));
  // The core's stripe budget is the factor's bound on each capacity.
  for (const PolicyKind kind : {PolicyKind::kStrict, PolicyKind::kCompromise,
                                PolicyKind::kLinuxDefault}) {
    AdmissionConfig config;
    config.policy = kind;
    config.oversubscription = 1.5;
    config.bandwidth_capacity = kBwCap;
    const AdmissionCore core(config);
    const double factor = policy_factor(kind, 1.5);
    for (const auto& [res, cap] :
         {std::pair{ResourceKind::kLLC, config.llc_capacity_bytes},
          std::pair{ResourceKind::kMemBandwidth, kBwCap}}) {
      const double bound = core.resources().admission_bound(res);
      if (std::isinf(factor)) {
        EXPECT_TRUE(std::isinf(bound)) << to_string(kind);
      } else {
        EXPECT_EQ(bound, factor * cap) << to_string(kind);
      }
    }
  }
}

TEST(PolicyNames, HumanReadable) {
  EXPECT_EQ(to_string(PolicyKind::kLinuxDefault), "Linux default");
  EXPECT_EQ(to_string(PolicyKind::kStrict), "RDA:Strict");
  EXPECT_EQ(to_string(PolicyKind::kCompromise), "RDA:Compromise");
}

// Algorithm-1 semantics sweep with a real monitor: strict admits while
// usage + demand <= capacity, compromise while <= 2x capacity.
class PolicySweep : public ::testing::TestWithParam<double> {};

TEST_P(PolicySweep, StrictVsCompromiseBoundary) {
  const double demand = GetParam();
  const double capacity = static_cast<double>(MB(15));
  const double usage = static_cast<double>(MB(10));
  EXPECT_EQ(admits(policy_factor(PolicyKind::kStrict, 2.0), capacity, usage,
                   demand),
            usage + demand <= capacity + 1e-9);
  EXPECT_EQ(admits(policy_factor(PolicyKind::kCompromise, 2.0), capacity,
                   usage, demand),
            usage + demand <= 2.0 * capacity + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Demands, PolicySweep,
    ::testing::Values(0.0, static_cast<double>(MB(1)),
                      static_cast<double>(MB(5)),
                      static_cast<double>(MB(5.0001)),
                      static_cast<double>(MB(15)),
                      static_cast<double>(MB(20)),
                      static_cast<double>(MB(20.0001)),
                      static_cast<double>(MB(40))));

}  // namespace
}  // namespace rda::core
