// Sharded period registry for the lock-free admission core.
//
// The period registry is split 16 ways, modelled on how the O(1) scheduler
// replaced the global runqueue_lock with per-CPU runqueues: shards are
// keyed by the CALLING THREAD's hash, so the calm begin/end hot path of one
// thread always touches one shard mutex and one budget stripe. Each shard's
// PeriodRegistry allocates ids in its own residue class (shard s issues
// s+1, s+17, s+33, …), so a period id names its shard — shard_of_period(id)
// — without any shared counter.
//
// Only the registry is sharded. The waitlist is one FIFO (core/waitlist.hpp):
// every waitlist mutation already runs under AdmissionCore's slow mutex, so
// per-CPU queues would buy nothing there — they pay only where each has its
// own lock.
//
// Lock order: AdmissionCore slow mutex → shard mutex. Shard mutexes never
// nest in each other (cross-shard walks lock one shard at a time).
#pragma once

#include <array>
#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

#include "core/registry.hpp"

namespace rda::core {

/// Number of registry shards; also the ResourceMonitor stripe count, so a
/// shard's admissions charge "its" budget stripe.
inline constexpr std::uint32_t kNumShards = 16;

/// Fibonacci-hash of the thread id onto a shard. Thread ids are small and
/// sequential; the multiplicative hash spreads neighbours across shards.
inline std::uint32_t shard_of_thread(sim::ThreadId thread) {
  return (static_cast<std::uint32_t>(thread) * 2654435761u) >> 28;
}

/// Shard that issued a period id (ids of shard s are ≡ s+1 mod kNumShards).
inline std::uint32_t shard_of_period(PeriodId id) {
  return static_cast<std::uint32_t>((id - 1) % kNumShards);
}

/// 16 independently locked PeriodRegistry shards.
///
/// Pointer lifetime: find()/find_mutable() return pointers that stay valid
/// until the record is removed (a live record never leaves its slot), but
/// only the slow lane may dereference them, and only for records it owns —
/// the calling thread's own period, or a parked (waitlisted) period,
/// neither of which the lock-free lane can concurrently remove.
class ShardedRegistry {
 public:
  ShardedRegistry();

  /// Inserts under the calling thread's shard; stamps record.stripe with
  /// the shard index so release discharges the budget stripe the admission
  /// charged. Throws if the thread already has an active period — in which
  /// case the caller's record is left untouched (validate-before-move).
  PeriodId insert(PeriodRecord&& record);

  const PeriodRecord* find(PeriodId id) const;
  PeriodRecord* find_mutable(PeriodId id);

  /// Removes and returns the record; throws util::CheckFailure if the id is
  /// unknown (double pp_end or a forged id).
  PeriodRecord remove(PeriodId id);

  /// Removes and returns the record, or nullopt if the id is unknown —
  /// lets the orphan sweep race a concurrent fast-lane release without
  /// either side throwing: whoever removes the record owns its discharge.
  std::optional<PeriodRecord> try_remove(PeriodId id);

  /// Atomically removes the record iff it is calm (admitted and not
  /// force-oversubscribed). The fast release path claims records this way;
  /// nullopt routes the release to the slow lane.
  std::optional<PeriodRecord> take_if_calm(PeriodId id);

  /// Flips the record's admitted flag; false if the id is unknown.
  bool mark_admitted(PeriodId id);

  std::optional<PeriodId> active_for_thread(sim::ThreadId thread) const;

  /// Total active periods (shard-by-shard sum; exact only at quiescence).
  std::size_t active_count() const;

  /// Merged snapshot for diagnostics, sorted by period id.
  std::vector<PeriodRecord> snapshot() const;

 private:
  struct alignas(64) Shard {
    mutable std::mutex mu;
    PeriodRegistry reg;
  };

  std::array<Shard, kNumShards> shards_;
};

}  // namespace rda::core
