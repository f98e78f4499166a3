// Drain-shard infrastructure: tenant→shard routing hash and the
// inter-shard mailbox.
//
// The drain loop is sharded K ways (DESIGN §16): every submission is
// routed AT PUSH TIME to one of K per-shard queues by a seeded hash of its
// tenant id (a plain FIFO in the virtual-time front end, a
// `SubmissionQueue` in the wall-clock pump), and each shard is the sole
// consumer of its own queue — no shard ever touches another shard's queue
// tail. Cross-shard effects (whole-tenant work stealing, node-death
// reroutes, spill placement on another shard's node) never reach into a
// foreign queue either; they are posted to the target shard's `Mailbox`
// and drained at the start of the next drain pass.
//
// Mailbox ordering is the load-bearing determinism rule: every entry
// carries a global seniority number assigned when the requeue decision was
// made, and `drain` hands entries back in ascending seniority regardless
// of the order the sends landed — so a steal and a node-death reroute
// arriving in the same round replay in decision order, and the lockstep
// merge (frontend.cpp) produces the same byte stream for any shard count.
//
// In wall-clock mode (service/pump.hpp) shards are real consumer threads
// and the lock-light mailbox role is played by the target shard's MPSC
// queue itself (push is multi-producer safe); this Mailbox is the
// virtual-time, lockstep-round variant where ordering, not thread safety,
// is the contract.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace rda::service {

/// splitmix64 finalizer over (seed, key): the tenant→shard routing hash.
/// Seeded so two fleets with different seeds shard their tenants
/// differently, deterministic so a tenant's shard never moves.
inline std::uint64_t shard_hash(std::uint64_t seed, std::uint64_t key) {
  std::uint64_t x = key + 0x9e3779b97f4a7c15ull * (seed + 1);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

/// The shard that drains submissions for `tenant` in a K-shard fleet.
inline int shard_of_tenant(std::uint64_t seed, std::uint64_t tenant,
                           int shards) {
  return static_cast<int>(shard_hash(seed, tenant) %
                          static_cast<std::uint64_t>(shards));
}

/// The shard that owns (executes admissions against) node `node`. With
/// more shards than nodes the extra shards own no node — they still route
/// and drain their tenants' submissions, the placement just always lands
/// in another shard's node bucket.
inline int shard_of_node(int node, int shards) { return node % shards; }

/// Seniority-ordered inter-shard mailbox. Sends may arrive in any order
/// within a round; drain returns entries sorted by the seniority number
/// stamped at decision time, so replay order is the decision order.
template <typename T>
class Mailbox {
 public:
  struct Entry {
    std::uint64_t seniority = 0;
    T value{};
  };

  void send(std::uint64_t seniority, T value) {
    entries_.push_back(Entry{seniority, std::move(value)});
  }

  /// Appends every held entry to `out` in ascending seniority order and
  /// empties the box. Returns how many entries were drained.
  std::size_t drain(std::vector<Entry>& out) {
    std::sort(entries_.begin(), entries_.end(),
              [](const Entry& a, const Entry& b) {
                return a.seniority < b.seniority;
              });
    const std::size_t n = entries_.size();
    for (Entry& entry : entries_) out.push_back(std::move(entry));
    entries_.clear();
    return n;
  }

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

 private:
  std::vector<Entry> entries_;
};

}  // namespace rda::service
