#include "core/sharding.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace rda::core {

ShardedRegistry::ShardedRegistry() {
  for (std::uint32_t s = 0; s < kNumShards; ++s) {
    shards_[s].reg = PeriodRegistry(s + 1, kNumShards);
  }
}

PeriodId ShardedRegistry::insert(PeriodRecord&& record) {
  const std::uint32_t s = shard_of_thread(record.thread);
  record.stripe = s;
  std::lock_guard<std::mutex> lock(shards_[s].mu);
  return shards_[s].reg.insert(std::move(record));
}

const PeriodRecord* ShardedRegistry::find(PeriodId id) const {
  const Shard& shard = shards_[shard_of_period(id)];
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.reg.find(id);
}

PeriodRecord* ShardedRegistry::find_mutable(PeriodId id) {
  Shard& shard = shards_[shard_of_period(id)];
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.reg.find_mutable(id);
}

PeriodRecord ShardedRegistry::remove(PeriodId id) {
  Shard& shard = shards_[shard_of_period(id)];
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.reg.remove(id);
}

std::optional<PeriodRecord> ShardedRegistry::try_remove(PeriodId id) {
  Shard& shard = shards_[shard_of_period(id)];
  std::lock_guard<std::mutex> lock(shard.mu);
  if (shard.reg.find(id) == nullptr) return std::nullopt;
  return shard.reg.remove(id);
}

std::optional<PeriodRecord> ShardedRegistry::take_if_calm(PeriodId id) {
  Shard& shard = shards_[shard_of_period(id)];
  std::lock_guard<std::mutex> lock(shard.mu);
  const PeriodRecord* record = shard.reg.find(id);
  if (record == nullptr || !record->admitted || record->oversub) {
    return std::nullopt;
  }
  return shard.reg.remove(id);
}

bool ShardedRegistry::mark_admitted(PeriodId id) {
  Shard& shard = shards_[shard_of_period(id)];
  std::lock_guard<std::mutex> lock(shard.mu);
  PeriodRecord* record = shard.reg.find_mutable(id);
  if (record == nullptr) return false;
  record->admitted = true;
  return true;
}

std::optional<PeriodId> ShardedRegistry::active_for_thread(
    sim::ThreadId thread) const {
  const Shard& shard = shards_[shard_of_thread(thread)];
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.reg.active_for_thread(thread);
}

std::size_t ShardedRegistry::active_count() const {
  std::size_t count = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    count += shard.reg.active_count();
  }
  return count;
}

std::vector<PeriodRecord> ShardedRegistry::snapshot() const {
  std::vector<PeriodRecord> out;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    std::vector<PeriodRecord> part = shard.reg.snapshot();
    out.insert(out.end(), std::make_move_iterator(part.begin()),
               std::make_move_iterator(part.end()));
  }
  std::sort(out.begin(), out.end(),
            [](const PeriodRecord& a, const PeriodRecord& b) {
              return a.id < b.id;
            });
  return out;
}

}  // namespace rda::core
