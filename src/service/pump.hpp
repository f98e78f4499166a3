// ServicePump — the wall-clock half of the front end: real producer
// threads push admission work at a fleet of AdmissionCores through the
// sharded MPSC queues, and the measurement compares the submission
// disciplines at equal offered load:
//
//   * per-call:  every producer calls admit()/release() itself — each op
//                pays its own slow-lane mutex acquisition and rescan;
//   * batched:   producers only push; `shards` drain threads each own a
//                disjoint set of queues AND nodes (drainer s owns the
//                nodes with n % shards == s) and issue
//                admit_batch()/release_batch() per node, amortizing the
//                slow-lane lock, the waitlist rescan, and the wake
//                delivery across the whole batch. Because ops are routed
//                to a shard's queue AT PUSH TIME by their node, no drainer
//                ever touches another drainer's queue tail or cores — the
//                pump's sharded drain (DESIGN §16).
//
// The pump pins the core in the slow-lane regime on purpose: `squatters`
// parked waiters (demands that can never co-fit) keep the waitlist
// non-empty, which is exactly the backlogged-service state the batching
// optimization targets — a calm core would serve both disciplines from the
// lock-free lane and there would be nothing to amortize.
#pragma once

#include <cstdint>

#include "core/admission.hpp"

namespace rda::service {

struct PumpConfig {
  int producers = 4;
  std::uint64_t ops_per_producer = 100000;
  /// false = per-call discipline (the baseline the bench compares against).
  bool batched = true;
  /// Admission cores (nodes); op → node is id % nodes. Every node gets its
  /// own squatters so EVERY core sits in the slow-lane regime.
  int nodes = 1;
  /// Drain threads (batched mode only): drainer s owns queue s and the
  /// nodes with n % shards == s. Extra shards beyond the node count own
  /// nothing and exit immediately.
  int shards = 1;
  std::size_t batch_max = 1024;
  std::size_t queue_capacity = 1 << 16;
  double llc_capacity_bytes = 15360.0 * 1024.0;
  /// Per-op demand as a fraction of capacity (small: every op admits).
  double demand_fraction = 1.0e-4;
  /// Parked waiters that hold the core in the slow lane. 0 = calm core.
  int squatters = 2;
};

struct PumpResult {
  std::uint64_t ops = 0;      ///< admit+release pairs completed
  double seconds = 0.0;       ///< wall-clock time of the working phase
  double mops = 0.0;          ///< ops / seconds / 1e6
};

/// Runs one pump measurement. Spawns `producers` threads (+`shards`
/// drainers when batched) and blocks until every op is admitted AND
/// released on its node.
PumpResult run_pump(const PumpConfig& config);

/// The drain thread that owns (executes admissions against) node `node`.
/// With more shards than nodes the extra shards own no node.
inline int shard_of_node(int node, int shards) { return node % shards; }

}  // namespace rda::service
