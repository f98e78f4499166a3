// Shard-accounting invariants of the sharded admission core: the id/shard
// mapping contracts, the sharded registry bookkeeping, and —
// at quiescence — the agreement between the striped lock-free counters and
// the registry ground truth that AdmissionCore::audit() formalizes.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <set>
#include <vector>

#include "core/admission.hpp"
#include "core/sharding.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace rda::core {
namespace {

using util::MB;

TEST(Sharding, PeriodIdsNameTheirIssuingShard) {
  ShardedRegistry registry;
  for (sim::ThreadId t = 1; t <= 200; ++t) {
    PeriodRecord record;
    record.thread = t;
    record.process = static_cast<sim::ProcessId>(t);
    record.demands = {{ResourceKind::kLLC, 1.0}};
    const PeriodId id = registry.insert(std::move(record));
    // The id's residue class IS the shard: no shared counter consulted.
    EXPECT_EQ(shard_of_period(id), shard_of_thread(t))
        << "thread " << t << " period " << id;
    // The record remembers the budget stripe its admission must charge.
    const PeriodRecord* found = registry.find(id);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->stripe, shard_of_period(id));
  }
  EXPECT_EQ(registry.active_count(), 200u);
}

TEST(Sharding, IdsAreUniqueAndStridedPerShard) {
  ShardedRegistry registry;
  std::set<PeriodId> seen;
  std::array<PeriodId, kNumShards> last{};
  for (sim::ThreadId t = 1; t <= 500; ++t) {
    PeriodRecord record;
    record.thread = t;
    record.demands = {{ResourceKind::kLLC, 1.0}};
    const PeriodId id = registry.insert(std::move(record));
    EXPECT_TRUE(seen.insert(id).second) << "duplicate id " << id;
    const std::uint32_t shard = shard_of_period(id);
    if (last[shard] != kInvalidPeriod) {
      // Within one shard ids grow by exactly the shard stride.
      EXPECT_EQ(id, last[shard] + kNumShards);
    } else {
      EXPECT_EQ(id, static_cast<PeriodId>(shard + 1));
    }
    last[shard] = id;
    registry.remove(id);  // frees the thread for its next period
  }
}

TEST(Sharding, TakeIfCalmClaimsOnlyCalmRecords) {
  ShardedRegistry registry;
  PeriodRecord parked;
  parked.thread = 1;
  parked.demands = {{ResourceKind::kLLC, 1.0}};
  const PeriodId parked_id = registry.insert(std::move(parked));

  PeriodRecord oversub;
  oversub.thread = 2;
  oversub.demands = {{ResourceKind::kLLC, 1.0}};
  oversub.admitted = true;
  oversub.oversub = true;
  const PeriodId oversub_id = registry.insert(std::move(oversub));

  PeriodRecord calm;
  calm.thread = 3;
  calm.demands = {{ResourceKind::kLLC, 1.0}};
  calm.admitted = true;
  const PeriodId calm_id = registry.insert(std::move(calm));

  // Waitlisted and force-oversubscribed records must route to the slow
  // lane; only the plain admitted record may be claimed lock-free.
  EXPECT_FALSE(registry.take_if_calm(parked_id).has_value());
  EXPECT_FALSE(registry.take_if_calm(oversub_id).has_value());
  const auto claimed = registry.take_if_calm(calm_id);
  ASSERT_TRUE(claimed.has_value());
  EXPECT_EQ(claimed->id, calm_id);
  // The claim removed it: a second claim (double pp_end) finds nothing.
  EXPECT_FALSE(registry.take_if_calm(calm_id).has_value());
  EXPECT_EQ(registry.active_count(), 2u);
}

/// The first `count` thread ids (from 1) that hash onto `shard`.
std::vector<sim::ThreadId> threads_of_shard(std::uint32_t shard,
                                            std::size_t count) {
  std::vector<sim::ThreadId> out;
  for (sim::ThreadId t = 1; out.size() < count; ++t) {
    if (shard_of_thread(t) == shard) out.push_back(t);
  }
  return out;
}

PeriodRecord admitted_record(sim::ThreadId thread, double demand = 1.0) {
  PeriodRecord record;
  record.thread = thread;
  record.process = static_cast<sim::ProcessId>(thread);
  record.demands = {{ResourceKind::kLLC, demand}};
  record.admitted = true;
  return record;
}

TEST(Sharding, OneShardHoldsManyLivePeriods) {
  constexpr std::uint32_t kShard = 5;
  ShardedRegistry registry;
  const std::vector<sim::ThreadId> threads = threads_of_shard(kShard, 80);
  std::vector<PeriodId> ids;
  for (const sim::ThreadId t : threads) {
    ids.push_back(registry.insert(admitted_record(t)));
    EXPECT_EQ(shard_of_period(ids.back()), kShard);
  }
  EXPECT_EQ(registry.active_count(), threads.size());
  for (std::size_t i = 0; i < threads.size(); ++i) {
    EXPECT_EQ(registry.active_for_thread(threads[i]), ids[i]);
    // Nested begin on a full shard still throws, and leaves no trace.
    EXPECT_THROW(registry.insert(admitted_record(threads[i])),
                 util::CheckFailure);
  }
  EXPECT_EQ(registry.active_count(), threads.size());
  // A forged id in this shard's residue class, never issued.
  const PeriodId forged = ids.back() + 64 * kNumShards;
  EXPECT_EQ(shard_of_period(forged), kShard);
  EXPECT_EQ(registry.find(forged), nullptr);
  EXPECT_THROW(registry.remove(forged), util::CheckFailure);
  EXPECT_FALSE(registry.try_remove(forged).has_value());
  EXPECT_FALSE(registry.take_if_calm(forged).has_value());
  for (const PeriodId id : ids) {
    ASSERT_TRUE(registry.take_if_calm(id).has_value());
  }
  EXPECT_EQ(registry.active_count(), 0u);
}

TEST(Sharding, FoundPointerSurvivesChurnInItsShard) {
  constexpr std::uint32_t kShard = 11;
  ShardedRegistry registry;
  const std::vector<sim::ThreadId> threads = threads_of_shard(kShard, 33);
  const PeriodId held = registry.insert(admitted_record(threads[0], 7.0));
  const PeriodRecord* pinned = registry.find(held);
  ASSERT_NE(pinned, nullptr);
  // 1000 inserts and removes on the same shard, up to 32 other records
  // live at once; ids keep the shard's residue class throughout.
  std::vector<std::pair<PeriodId, sim::ThreadId>> live;
  std::vector<sim::ThreadId> idle(threads.begin() + 1, threads.end());
  for (int i = 0; i < 1000; ++i) {
    if (!idle.empty() && i % 4 != 3) {
      const sim::ThreadId t = idle.back();
      idle.pop_back();
      const PeriodId id = registry.insert(admitted_record(t));
      EXPECT_EQ(shard_of_period(id), kShard);
      live.emplace_back(id, t);
    } else {
      const auto [id, t] = live.front();
      live.erase(live.begin());
      EXPECT_TRUE(registry.take_if_calm(id).has_value());
      idle.push_back(t);
    }
    ASSERT_EQ(registry.find(held), pinned) << "after step " << i;
  }
  EXPECT_EQ(pinned->id, held);
  EXPECT_EQ(pinned->thread, threads[0]);
  EXPECT_DOUBLE_EQ(pinned->primary_demand(), 7.0);
}

TEST(Sharding, SnapshotIsSortedByIdAcrossShards) {
  ShardedRegistry registry;
  std::vector<PeriodId> ids;
  for (sim::ThreadId t = 1; t <= 120; ++t) {
    ids.push_back(registry.insert(admitted_record(t)));
  }
  // Vacate slots in every shard, then refill them with newer ids.
  for (std::size_t i = 0; i < ids.size(); i += 3) registry.remove(ids[i]);
  for (sim::ThreadId t = 1; t <= 120; t += 3) {
    registry.insert(admitted_record(t));
  }
  const std::vector<PeriodRecord> snapshot = registry.snapshot();
  ASSERT_EQ(snapshot.size(), 120u);
  for (std::size_t i = 1; i < snapshot.size(); ++i) {
    EXPECT_LT(snapshot[i - 1].id, snapshot[i].id);
  }
}

TEST(Sharding, StripedBudgetConservedUnderRandomCharges) {
  ResourceMonitor resources;
  const double capacity = static_cast<double>(MB(16));
  resources.set_capacity(ResourceKind::kLLC, capacity);
  resources.set_admission_bound(ResourceKind::kLLC, capacity);

  util::Rng rng(11);
  // Ground-truth mirror of every charge the monitor accepted.
  std::vector<std::pair<double, std::uint32_t>> held;
  double ground = 0.0;
  double oversub_ground = 0.0;
  for (int round = 0; round < 2000; ++round) {
    const auto stripe = static_cast<std::uint32_t>(
        rng.next_below(kNumShards));
    const double roll = rng.next_double();
    if (roll < 0.5) {
      const double demand = static_cast<double>(MB(1)) * rng.next_double();
      if (resources.try_acquire(ResourceKind::kLLC, demand, stripe)) {
        held.push_back({demand, stripe});
        ground += demand;
      }
    } else if (roll < 0.6) {
      // Forced charge (watchdog rung 2): always booked, may overdraft.
      const double demand = static_cast<double>(MB(2)) * rng.next_double();
      resources.increment_load(ResourceKind::kLLC, demand, stripe);
      resources.add_oversubscribed(ResourceKind::kLLC, demand);
      held.push_back({demand, stripe});
      ground += demand;
      oversub_ground += demand;
    } else if (!held.empty()) {
      const std::size_t pick = rng.next_below(held.size());
      const auto [demand, at] = held[pick];
      resources.decrement_load(ResourceKind::kLLC, demand, at);
      ground -= demand;
      held[pick] = held.back();
      held.pop_back();
    }
    // Striped usage always sums to the ground truth...
    ASSERT_NEAR(resources.usage(ResourceKind::kLLC), ground, 1.0);
    // ...and the budget identity holds with the overdraft term:
    //   Σ usage + Σ free − overdraft == admission_bound.
    const double budget = resources.usage(ResourceKind::kLLC) +
                          resources.total_free(ResourceKind::kLLC) -
                          resources.overdraft(ResourceKind::kLLC);
    ASSERT_NEAR(budget, capacity, 1.0) << "round " << round;
  }
  for (const auto& [demand, at] : held) {
    resources.decrement_load(ResourceKind::kLLC, demand, at);
  }
  resources.remove_oversubscribed(ResourceKind::kLLC, oversub_ground);
  EXPECT_TRUE(resources.effectively_free(ResourceKind::kLLC));
  EXPECT_NEAR(resources.oversubscribed(ResourceKind::kLLC), 0.0, 1e-6);
  EXPECT_NEAR(resources.overdraft(ResourceKind::kLLC), 0.0, 1.0);
}

TEST(Sharding, CoreAuditHoldsThroughRandomSerializedLifecycle) {
  AdmissionConfig config;
  config.llc_capacity_bytes = static_cast<double>(MB(15));
  config.policy = PolicyKind::kCompromise;
  AdmissionCore core(config);

  util::Rng rng(13);
  struct Active {
    sim::ThreadId thread;
    PeriodId id;
  };
  std::vector<Active> admitted;
  std::vector<Active> parked;
  double now = 0.0;
  sim::ThreadId next_thread = 1;
  for (int round = 0; round < 400; ++round) {
    now += 1.0;
    const double roll = rng.next_double();
    if (roll < 0.5) {
      AdmitRequest request;
      request.thread = next_thread++;
      request.process = static_cast<sim::ProcessId>(request.thread);
      request.demands = {{ResourceKind::kLLC,
                          static_cast<double>(MB(1 + rng.next_below(7)))}};
      request.reuse = ReuseLevel::kHigh;
      const AdmitTicket ticket = core.admit(std::move(request), now);
      (ticket.admitted ? admitted : parked)
          .push_back({static_cast<sim::ThreadId>(next_thread - 1), ticket.id});
    } else if (roll < 0.85 && !admitted.empty()) {
      const std::size_t pick = rng.next_below(admitted.size());
      core.release(admitted[pick].id, {}, now);
      admitted[pick] = admitted.back();
      admitted.pop_back();
      // The release may have granted parked periods; reclassify.
      for (std::size_t i = 0; i < parked.size();) {
        if (core.is_admitted(parked[i].id)) {
          admitted.push_back(parked[i]);
          parked[i] = parked.back();
          parked.pop_back();
        } else {
          ++i;
        }
      }
    } else if (!parked.empty()) {
      const std::size_t pick = rng.next_below(parked.size());
      // A parked period may have been admitted by an earlier release.
      if (core.is_admitted(parked[pick].id)) {
        admitted.push_back(parked[pick]);
      } else {
        EXPECT_TRUE(core.withdraw(parked[pick].id, now));
      }
      parked[pick] = parked.back();
      parked.pop_back();
    }
    const AdmissionCore::AuditReport audit = core.audit();
    ASSERT_TRUE(audit.ok) << "round " << round << ": " << audit.detail;
  }
  // Drain everything; the audit and the free-pool must both come home.
  while (!admitted.empty() || !parked.empty()) {
    now += 1.0;
    if (!admitted.empty()) {
      core.release(admitted.back().id, {}, now);
      admitted.pop_back();
    } else {
      if (core.is_admitted(parked.back().id)) {
        admitted.push_back(parked.back());
      } else {
        EXPECT_TRUE(core.withdraw(parked.back().id, now));
      }
      parked.pop_back();
    }
    for (std::size_t i = 0; i < parked.size();) {
      if (core.is_admitted(parked[i].id)) {
        admitted.push_back(parked[i]);
        parked[i] = parked.back();
        parked.pop_back();
      } else {
        ++i;
      }
    }
  }
  const AdmissionCore::AuditReport final_audit = core.audit();
  EXPECT_TRUE(final_audit.ok) << final_audit.detail;
  EXPECT_TRUE(core.resources().effectively_free(ResourceKind::kLLC));
  EXPECT_EQ(core.monitor().registry().active_count(), 0u);
  EXPECT_TRUE(core.monitor().waitlist().empty());
}

}  // namespace
}  // namespace rda::core
