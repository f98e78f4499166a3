// Race coverage for the service submission path (run under the TSan
// preset): concurrent producers against the drain loop, with a chaos
// thread churning big park/withdraw cycles — the wall-clock analogue of a
// node draining and rejoining while submissions keep arriving. The ledger
// invariant begins == ends + cancels + reclaims, extended to the queue
// (pushed == drained == admitted), must survive the churn.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "core/admission.hpp"
#include "service/pump.hpp"
#include "service/queue.hpp"

namespace rda::service {
namespace {

TEST(ServicePump, BatchedAndPerCallBothCompleteAllOps) {
  for (const bool batched : {false, true}) {
    PumpConfig cfg;
    cfg.producers = 2;
    cfg.ops_per_producer = 3000;
    cfg.batched = batched;
    cfg.batch_max = 128;
    const PumpResult result = run_pump(cfg);
    EXPECT_EQ(result.ops, 6000u);
    EXPECT_GT(result.seconds, 0.0);
    EXPECT_GT(result.mops, 0.0);
  }
}

TEST(ServicePump, ShardedDrainCompletesAllOpsForAnyShardCount) {
  // 4 nodes drained by 1, 3, or 4 shard threads (3 exercises the uneven
  // n % shards ownership split). Every op must admit AND release on its
  // own node regardless of how the drainers partition the fleet.
  for (const int shards : {1, 3, 4}) {
    PumpConfig cfg;
    cfg.producers = 2;
    cfg.ops_per_producer = 2000;
    cfg.batched = true;
    cfg.nodes = 4;
    cfg.shards = shards;
    cfg.batch_max = 128;
    const PumpResult result = run_pump(cfg);
    EXPECT_EQ(result.ops, 4000u) << shards << " shards";
    EXPECT_GT(result.mops, 0.0) << shards << " shards";
  }
}

TEST(ServiceRace, ShardedDrainSurvivesNodeDeathMidRun) {
  // The wall-clock analogue of the frontend's fault cell: 4 nodes, 4
  // shard queues, 4 drain threads, concurrent producers — and node 2 dies
  // mid-run while holding an admitted resident period. Its drainer then
  // plays the mailbox role: everything it pops is forwarded to shard 3's
  // queue (push is multi-producer safe — that is the wall-clock mailbox)
  // and admitted on node 3. Nothing may be lost, doubled, or deadlocked.
  constexpr int kNodes = 4;
  constexpr int kProducers = 3;
  constexpr std::uint64_t kPerProducer = 2000;
  constexpr std::uint64_t kBase = kProducers * kPerProducer;
  constexpr std::uint64_t kExtra = 100;  // pushed after the death, node 2
  constexpr double kCapacity = 15360.0 * 1024.0;

  std::vector<std::unique_ptr<core::AdmissionCore>> cores;
  for (int n = 0; n < kNodes; ++n) {
    core::AdmissionConfig cc;
    cc.llc_capacity_bytes = kCapacity;
    cc.policy = core::PolicyKind::kStrict;
    cores.push_back(std::make_unique<core::AdmissionCore>(cc));
    cores.back()->set_batch_waker([](const auto&) {});
  }

  std::vector<std::unique_ptr<SubmissionQueue<sim::ThreadId>>> queues;
  for (int n = 0; n < kNodes; ++n) {
    queues.push_back(
        std::make_unique<SubmissionQueue<sim::ThreadId>>(1 << 12));
  }

  std::atomic<std::uint64_t> remaining{kBase + kExtra};
  std::atomic<bool> node2_down{false};
  std::atomic<std::uint64_t> forwarded{0};

  const auto make_request = [&](sim::ThreadId thread) {
    core::AdmitRequest r;
    r.thread = thread;
    r.process = thread;
    r.demands = {{ResourceKind::kLLC, 1.0e-4 * kCapacity}};
    return r;
  };

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        const auto thread =
            static_cast<sim::ThreadId>(p * kPerProducer + i);
        SubmissionQueue<sim::ThreadId>& queue =
            *queues[static_cast<std::size_t>(thread) % kNodes];
        while (!queue.push(thread)) std::this_thread::yield();
      }
    });
  }

  std::vector<std::thread> drainers;
  for (int s = 0; s < kNodes; ++s) {
    drainers.emplace_back([&, s] {
      std::vector<sim::ThreadId> batch;
      while (remaining.load(std::memory_order_acquire) > 0) {
        batch.clear();
        if (queues[static_cast<std::size_t>(s)]->pop_batch(batch, 256) ==
            0) {
          std::this_thread::yield();
          continue;
        }
        if (s == 2 && node2_down.load(std::memory_order_acquire)) {
          // Dead node: forward every popped submission to shard 3 — the
          // lock-light reroute hop. remaining is NOT decremented; the op
          // still has to complete, just elsewhere.
          for (const sim::ThreadId thread : batch) {
            while (!queues[3]->push(thread)) std::this_thread::yield();
          }
          forwarded.fetch_add(batch.size(), std::memory_order_relaxed);
          continue;
        }
        std::vector<core::AdmitRequest> requests;
        requests.reserve(batch.size());
        for (const sim::ThreadId thread : batch) {
          requests.push_back(make_request(thread));
        }
        const auto tickets = cores[static_cast<std::size_t>(s)]
                                 ->admit_batch(std::move(requests), 0.0);
        std::vector<core::PeriodId> ids;
        ids.reserve(tickets.size());
        for (const auto& ticket : tickets) {
          ASSERT_TRUE(ticket.admitted);
          ids.push_back(ticket.id);
        }
        cores[static_cast<std::size_t>(s)]->release_batch(ids, 0.0);
        remaining.fetch_sub(ids.size(), std::memory_order_acq_rel);
      }
    });
  }

  // Chaos: node 2 carries a resident admitted period, dies mid-run (the
  // resident is reaped, its budget reclaimed), and 100 more node-2 ops
  // arrive AFTER the death — all of which must take the forward hop.
  std::thread chaos([&] {
    const auto resident_thread = static_cast<sim::ThreadId>(kBase + 500);
    const core::AdmitTicket resident =
        cores[2]->admit(make_request(resident_thread), 0.0);
    ASSERT_TRUE(resident.admitted);
    while (remaining.load(std::memory_order_acquire) >
           (kBase + kExtra) / 2) {
      std::this_thread::yield();  // let the fleet get half-way
    }
    node2_down.store(true, std::memory_order_release);
    const core::ProgressMonitor::ReapOutcome outcome =
        cores[2]->reap(resident_thread, 0.0);
    EXPECT_TRUE(outcome.reaped);
    EXPECT_TRUE(outcome.was_admitted);
    for (std::uint64_t i = 0; i < kExtra; ++i) {
      // ids ≡ 2 (mod 4): routed to the dead node's queue at push time.
      const auto thread = static_cast<sim::ThreadId>(kBase + 2 + 4 * i);
      while (!queues[2]->push(thread)) std::this_thread::yield();
    }
  });

  for (std::thread& t : producers) t.join();
  for (std::thread& t : drainers) t.join();
  chaos.join();

  EXPECT_EQ(remaining.load(), 0u);
  EXPECT_GE(forwarded.load(), kExtra);

  // Every core audits clean at quiescence and the fleet-wide ledger
  // balances: each op began and ended exactly once, the resident resolved
  // as the one reclaim.
  core::MonitorStats total;
  for (int n = 0; n < kNodes; ++n) {
    const core::AdmissionCore::AuditReport audit = cores[n]->audit();
    EXPECT_TRUE(audit.ok) << "node " << n << ": " << audit.detail;
    total += cores[n]->stats();
  }
  EXPECT_EQ(total.begins, total.ends + total.cancels + total.reclaims);
  EXPECT_EQ(total.ends, kBase + kExtra);
  EXPECT_EQ(total.reclaims, 1u);
  for (int n = 0; n < kNodes; ++n) {
    EXPECT_EQ(queues[static_cast<std::size_t>(n)]->size(), 0u);
  }
}

/// Waits for a parked request to be admitted by some other thread's rescan
/// (the test's batch waker is a no-op, so it polls). Returns whether it was
/// admitted. One still parked at the deadline is withdrawn and reported as
/// a failure, so the caller keeps draining and its producers never block.
bool settle_parked(core::AdmissionCore& core, core::PeriodId id) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < deadline) {
    if (core.is_admitted(id)) return true;
    std::this_thread::yield();
  }
  if (core.try_withdraw(id, 0.0) == core::WithdrawResult::kAlreadyAdmitted) {
    return true;
  }
  ADD_FAILURE() << "parked period " << id << " was never admitted";
  return false;
}

TEST(ServiceRace, DrainRejoinRacesConcurrentSubmissions) {
  constexpr int kProducers = 3;
  constexpr std::uint64_t kPerProducer = 8000;
  constexpr std::uint64_t kTotal = kProducers * kPerProducer;
  constexpr double kCapacity = 15360.0 * 1024.0;

  core::AdmissionConfig cc;
  cc.llc_capacity_bytes = kCapacity;
  cc.policy = core::PolicyKind::kStrict;
  core::AdmissionCore core(cc);
  core.set_batch_waker([](const auto&) {});

  SubmissionQueue<sim::ThreadId> queue(1 << 12);
  std::atomic<bool> drained_all{false};

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        const auto thread =
            static_cast<sim::ThreadId>(p * kPerProducer + i);
        while (!queue.push(thread)) std::this_thread::yield();
      }
    });
  }

  // The drain loop: one batched admission + release pass per pop.
  //
  // A small request MAY park. The chaos thread's big request steals budget
  // stripe by stripe before it finds it cannot fit and rolls back; a small
  // request that reaches the budget inside that window sees none left,
  // parks, and may miss the budget on its second look too. The rollback
  // does not rescan, but the chaos thread's next withdraw or release does,
  // and admits it. So the drainer settles every parked ticket — waits for
  // that admission — before it releases the batch, and keeps draining.
  std::thread drainer([&] {
    std::vector<sim::ThreadId> batch;
    std::uint64_t drained = 0;
    std::uint64_t admitted = 0;
    while (drained < kTotal) {
      batch.clear();
      if (queue.pop_batch(batch, 256) == 0) {
        std::this_thread::yield();
        continue;
      }
      drained += batch.size();
      std::vector<core::AdmitRequest> requests;
      requests.reserve(batch.size());
      for (const sim::ThreadId thread : batch) {
        core::AdmitRequest r;
        r.thread = thread;
        r.process = thread;
        r.demands = {{ResourceKind::kLLC, 1.0e-4 * kCapacity}};
        requests.push_back(std::move(r));
      }
      const auto tickets = core.admit_batch(std::move(requests), 0.0);
      std::vector<core::PeriodId> ids;
      ids.reserve(tickets.size());
      for (const auto& ticket : tickets) {
        if (ticket.admitted || settle_parked(core, ticket.id)) {
          ids.push_back(ticket.id);
        }
      }
      admitted += ids.size();
      core.release_batch(ids, 0.0);
    }
    EXPECT_EQ(drained, kTotal);
    EXPECT_EQ(admitted, kTotal);
    drained_all.store(true);
  });

  // Chaos: a "node" repeatedly drains (parks a big request that cannot
  // co-fit with its previous one) and rejoins (withdraws or releases) —
  // keeping the core bouncing between the calm and slow lanes.
  std::thread chaos([&] {
    const auto base = static_cast<sim::ThreadId>(kTotal + 10);
    core::PeriodId held = core::kInvalidPeriod;
    for (int i = 0; i < 600 && !drained_all.load(); ++i) {
      core::AdmitRequest big;
      big.thread = base + static_cast<sim::ThreadId>(i);
      big.process = big.thread;
      big.demands = {{ResourceKind::kLLC, 0.55 * kCapacity}};
      const core::AdmitTicket ticket = core.admit(std::move(big), 0.0);
      if (ticket.admitted) {
        if (held != core::kInvalidPeriod) core.release(held, {}, 0.0);
        held = ticket.id;
      } else {
        const core::WithdrawResult result = core.try_withdraw(ticket.id, 0.0);
        if (result == core::WithdrawResult::kAlreadyAdmitted) {
          core.release(ticket.id, {}, 0.0);
        }
      }
      std::this_thread::yield();
    }
    if (held != core::kInvalidPeriod) core.release(held, {}, 0.0);
  });

  for (std::thread& t : producers) t.join();
  drainer.join();
  chaos.join();

  // Quiescent audit + the extended ledger: nothing lost, nothing doubled.
  const core::AdmissionCore::AuditReport audit = core.audit();
  EXPECT_TRUE(audit.ok) << audit.detail;
  const core::MonitorStats stats = core.stats();
  EXPECT_EQ(stats.begins, stats.ends + stats.cancels + stats.reclaims);
  EXPECT_GE(stats.begins, kTotal);
  EXPECT_EQ(queue.size(), 0u);
}

}  // namespace
}  // namespace rda::service
