#include "service/pump.hpp"

#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "service/queue.hpp"
#include "util/check.hpp"

namespace rda::service {

namespace {

core::AdmitRequest make_request(sim::ThreadId thread, double demand) {
  core::AdmitRequest request;
  request.thread = thread;
  request.process = thread;
  request.demands = {{ResourceKind::kLLC, demand}};
  return request;
}

}  // namespace

PumpResult run_pump(const PumpConfig& config) {
  RDA_CHECK_MSG(config.producers >= 1, "pump needs at least one producer");
  RDA_CHECK_MSG(config.nodes >= 1, "pump needs at least one node");
  RDA_CHECK_MSG(config.shards >= 1, "pump needs at least one shard");
  const int nodes = config.nodes;
  const int shards = config.shards;
  const std::uint64_t total_ops =
      static_cast<std::uint64_t>(config.producers) *
      config.ops_per_producer;
  RDA_CHECK_MSG(total_ops + 1000 <
                    static_cast<std::uint64_t>(sim::kInvalidThread),
                "op count exceeds the per-op thread-id space");

  std::vector<std::unique_ptr<core::AdmissionCore>> cores;
  cores.reserve(static_cast<std::size_t>(nodes));
  for (int n = 0; n < nodes; ++n) {
    core::AdmissionConfig cc;
    cc.llc_capacity_bytes = config.llc_capacity_bytes;
    cc.policy = core::PolicyKind::kStrict;
    cores.push_back(std::make_unique<core::AdmissionCore>(cc));
    // Wakes only ever target the squatters, which never fit; a no-op
    // waker documents that nobody sleeps on these cores.
    cores.back()->set_batch_waker([](const auto&) {});
  }

  // Park squatters on EVERY node: the first holds 55% of the LLC, the
  // rest park behind it (two cannot co-fit), so each node's waitlist
  // stays non-empty and every producer op goes through the slow lane.
  const sim::ThreadId squatter_base =
      static_cast<sim::ThreadId>(total_ops + 1);
  std::vector<std::vector<core::PeriodId>> squatter_parked(
      static_cast<std::size_t>(nodes));
  std::vector<core::PeriodId> squatter_held(
      static_cast<std::size_t>(nodes), core::kInvalidPeriod);
  for (int n = 0; n < nodes; ++n) {
    for (int s = 0; s < config.squatters; ++s) {
      const auto id = static_cast<sim::ThreadId>(
          squatter_base + static_cast<sim::ThreadId>(
                              n * config.squatters + s));
      const core::AdmitTicket ticket = cores[static_cast<std::size_t>(n)]
          ->admit(make_request(id, 0.55 * config.llc_capacity_bytes), 0.0);
      if (s == 0) {
        RDA_CHECK_MSG(ticket.admitted, "first squatter must fit alone");
        squatter_held[static_cast<std::size_t>(n)] = ticket.id;
      } else {
        RDA_CHECK_MSG(!ticket.admitted, "squatters must not co-fit");
        squatter_parked[static_cast<std::size_t>(n)].push_back(ticket.id);
      }
    }
  }

  const double demand = config.demand_fraction * config.llc_capacity_bytes;
  const auto start = std::chrono::steady_clock::now();

  if (!config.batched) {
    std::vector<std::thread> producers;
    producers.reserve(static_cast<std::size_t>(config.producers));
    for (int p = 0; p < config.producers; ++p) {
      producers.emplace_back([&, p] {
        const std::uint64_t base =
            static_cast<std::uint64_t>(p) * config.ops_per_producer;
        for (std::uint64_t i = 0; i < config.ops_per_producer; ++i) {
          const auto thread = static_cast<sim::ThreadId>(base + i);
          core::AdmissionCore& core =
              *cores[static_cast<std::size_t>(thread) %
                     static_cast<std::size_t>(nodes)];
          const core::AdmitTicket ticket =
              core.admit(make_request(thread, demand), 0.0);
          RDA_CHECK_MSG(ticket.admitted,
                        "pump demand sized to always admit");
          core.release(ticket.id, {}, 0.0);
        }
      });
    }
    for (std::thread& t : producers) t.join();
  } else {
    // One queue per shard; an op's shard is decided at push time from its
    // node, so drainer s is the SOLE consumer of queue s.
    std::vector<std::unique_ptr<SubmissionQueue<sim::ThreadId>>> queues;
    queues.reserve(static_cast<std::size_t>(shards));
    for (int s = 0; s < shards; ++s) {
      queues.push_back(std::make_unique<SubmissionQueue<sim::ThreadId>>(
          config.queue_capacity));
    }

    // Drainer s terminates after draining exactly the ops routed to it:
    // ids are 0..total_ops-1, so node n carries ceil((total_ops - n) /
    // nodes) ops and shard s the sum over its nodes.
    std::vector<std::uint64_t> expected(static_cast<std::size_t>(shards),
                                        0);
    for (int n = 0; n < nodes; ++n) {
      const std::uint64_t on_node =
          n < static_cast<int>(total_ops)
              ? (total_ops - static_cast<std::uint64_t>(n) +
                 static_cast<std::uint64_t>(nodes) - 1) /
                    static_cast<std::uint64_t>(nodes)
              : 0;
      expected[static_cast<std::size_t>(shard_of_node(n, shards))] +=
          on_node;
    }

    std::vector<std::thread> producers;
    producers.reserve(static_cast<std::size_t>(config.producers));
    for (int p = 0; p < config.producers; ++p) {
      producers.emplace_back([&, p] {
        const std::uint64_t base =
            static_cast<std::uint64_t>(p) * config.ops_per_producer;
        for (std::uint64_t i = 0; i < config.ops_per_producer; ++i) {
          const auto thread = static_cast<sim::ThreadId>(base + i);
          const int node = static_cast<int>(
              thread % static_cast<sim::ThreadId>(nodes));
          SubmissionQueue<sim::ThreadId>& queue =
              *queues[static_cast<std::size_t>(shard_of_node(node, shards))];
          while (!queue.push(thread)) std::this_thread::yield();
        }
      });
    }

    std::vector<std::thread> drainers;
    drainers.reserve(static_cast<std::size_t>(shards));
    for (int s = 0; s < shards; ++s) {
      drainers.emplace_back([&, s] {
        SubmissionQueue<sim::ThreadId>& queue =
            *queues[static_cast<std::size_t>(s)];
        std::vector<sim::ThreadId> batch;
        std::vector<std::vector<core::AdmitRequest>> requests(
            static_cast<std::size_t>(nodes));
        std::vector<core::AdmitTicket> tickets;
        std::vector<core::PeriodId> admitted;
        std::vector<core::ReleaseTicket> released;
        std::uint64_t drained = 0;
        while (drained < expected[static_cast<std::size_t>(s)]) {
          batch.clear();
          queue.pop_batch(batch, config.batch_max);
          if (batch.empty()) {
            std::this_thread::yield();
            continue;
          }
          drained += batch.size();
          // Bucket per node so each of this drainer's nodes pays ONE
          // admit_batch/release_batch for its share of the batch.
          for (auto& bucket : requests) bucket.clear();
          for (const sim::ThreadId thread : batch) {
            const auto node = static_cast<std::size_t>(
                thread % static_cast<sim::ThreadId>(nodes));
            requests[node].push_back(make_request(thread, demand));
          }
          for (int n = s; n < nodes; n += shards) {
            auto& bucket = requests[static_cast<std::size_t>(n)];
            if (bucket.empty()) continue;
            tickets.resize(bucket.size());
            cores[static_cast<std::size_t>(n)]->admit_batch(bucket, 0.0,
                                                            tickets);
            bucket.clear();
            admitted.clear();
            for (const core::AdmitTicket& ticket : tickets) {
              RDA_CHECK_MSG(ticket.admitted,
                            "pump demand sized to always admit");
              admitted.push_back(ticket.id);
            }
            released.resize(admitted.size());
            cores[static_cast<std::size_t>(n)]->release_batch(admitted, 0.0,
                                                              released);
          }
        }
      });
    }

    for (std::thread& t : producers) t.join();
    for (std::thread& t : drainers) t.join();
  }

  const auto stop = std::chrono::steady_clock::now();

  // Unwind the squatters so every core audit comes out clean.
  for (int n = 0; n < nodes; ++n) {
    for (const core::PeriodId id :
         squatter_parked[static_cast<std::size_t>(n)]) {
      cores[static_cast<std::size_t>(n)]->try_withdraw(id, 0.0);
    }
    if (squatter_held[static_cast<std::size_t>(n)] !=
        core::kInvalidPeriod) {
      cores[static_cast<std::size_t>(n)]->release(
          squatter_held[static_cast<std::size_t>(n)], {}, 0.0);
    }
    const core::AdmissionCore::AuditReport audit =
        cores[static_cast<std::size_t>(n)]->audit();
    RDA_CHECK_MSG(audit.ok, audit.detail);
  }

  PumpResult result;
  result.ops = total_ops;
  result.seconds =
      std::chrono::duration<double>(stop - start).count();
  result.mops = result.seconds > 0.0
                    ? static_cast<double>(total_ops) / result.seconds / 1e6
                    : 0.0;
  return result;
}

}  // namespace rda::service
