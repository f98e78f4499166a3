// Sharded period registry + waitlist for the lock-free admission core.
//
// The single PeriodRegistry/Waitlist pair behind AdmissionCore's one mutex
// is split 16 ways, modelled on how the O(1) scheduler replaced the global
// runqueue_lock with per-CPU runqueues:
//
//   * Registry shards are keyed by the CALLING THREAD's hash, so the calm
//     begin/end hot path of one thread always touches one shard mutex and
//     one budget stripe. Each shard's PeriodRegistry allocates ids in its
//     own residue class (shard s issues s+1, s+17, s+33, …), so a period id
//     names its shard — shard_of_period(id) — without any shared counter.
//
//   * Waitlist shards are keyed by period id. Entries carry a global
//     arrival sequence so the cross-shard merged view (what the wake
//     strategies and the watchdog ladder scan) reconstructs true FIFO
//     order. Mutation of the waitlist only ever happens in the slow lane
//     under AdmissionCore's slow mutex; the one datum the lock-free lane
//     reads — the total entry count, i.e. the "is anybody parked?" Dekker
//     flag — is a seq_cst atomic.
//
// Lock order: AdmissionCore slow mutex → shard mutex. Shard mutexes never
// nest in each other (cross-shard walks lock one shard at a time).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "core/registry.hpp"
#include "core/waitlist.hpp"

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

/// Waitlist sharded by period id with a merged FIFO view.
///
/// All mutation happens in the admission slow lane (serialized by the core's
/// slow mutex); no per-shard locking is needed. size() is lock-free: it
/// reads the seq_cst total counter the fast lane uses as its "anybody
/// parked?" Dekker flag.
class ShardedWaitlist {
 public:
  using Entry = Waitlist::Entry;

  void push(Entry entry);

  bool empty() const { return size() == 0; }
  std::size_t size() const { return total_.load(); }

  /// Merged view in arrival (seq) order. Rebuilt lazily after mutations;
  /// indices below refer to positions in this view.
  const std::deque<Entry>& entries() const;

  /// Mutable access for the watchdog's ladder bookkeeping; the identity
  /// fields (period/thread/process/seq) must not be modified through this.
  Entry& entry_at(std::size_t index);

  /// Removes and returns every entry `admit` accepts, in FIFO order. When
  /// `head_only`, scanning stops at the first rejection.
  std::vector<Entry> drain_admissible(
      const std::function<bool(const Entry&)>& admit, bool head_only);

  /// Removes and returns the entry at `index` (0 = merged head).
  Entry remove_at(std::size_t index);

  /// Re-inserts an entry removed by remove_at at its original FIFO position
  /// (same seq) — used when a selected wake fails its re-acquisition.
  void restore(Entry entry);

  /// Removes all entries of one process (group admission for thread pools).
  std::vector<Entry> remove_process(sim::ProcessId process);

  /// Total pending entries of one process.
  std::size_t count_process(sim::ProcessId process) const;

 private:
  void rebuild() const;
  Entry take(std::uint32_t shard, std::size_t local_index);

  std::array<std::deque<Entry>, kNumShards> shards_;
  std::uint64_t next_seq_ = 1;
  std::atomic<std::size_t> total_{0};

  // Lazily merged FIFO view + locators mapping merged index → (shard,
  // local index). Any mutation (including entry_at handing out a mutable
  // reference) marks it dirty.
  mutable std::deque<Entry> merged_;
  mutable std::vector<std::pair<std::uint32_t, std::size_t>> locators_;
  mutable bool dirty_ = true;
};

}  // namespace rda::core
