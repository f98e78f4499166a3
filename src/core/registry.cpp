#include "core/registry.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace rda::core {

PeriodId PeriodRegistry::insert(PeriodRecord&& record) {
  for (const ResourceDemand& d : record.demands) {
    RDA_CHECK_MSG(d.amount >= 0.0, "negative period demand on "
                                       << to_string(d.resource));
  }
  RDA_CHECK_MSG(!active_for_thread(record.thread).has_value(),
                "thread " << record.thread
                          << " already has an active period; periods do not "
                             "nest");
  record.id = next_id_;
  next_id_ += stride_;
  PeriodRecord* slot;
  if (free_.empty()) {
    slot = &slots_.emplace_back(std::move(record));
  } else {
    slot = free_.back();
    free_.pop_back();
    *slot = std::move(record);
  }
  live_.push_back({slot->id, slot->thread, slot});
  return slot->id;
}

std::size_t PeriodRegistry::index_of(PeriodId id) const {
  std::size_t i = 0;
  while (i < live_.size() && live_[i].id != id) ++i;
  return i;
}

const PeriodRecord* PeriodRegistry::find(PeriodId id) const {
  const std::size_t i = index_of(id);
  return i == live_.size() ? nullptr : live_[i].record;
}

PeriodRecord* PeriodRegistry::find_mutable(PeriodId id) {
  const std::size_t i = index_of(id);
  return i == live_.size() ? nullptr : live_[i].record;
}

PeriodRecord PeriodRegistry::remove(PeriodId id) {
  const std::size_t i = index_of(id);
  RDA_CHECK_MSG(i != live_.size(), "pp_end with unknown period id " << id);
  PeriodRecord* slot = live_[i].record;
  PeriodRecord record = std::move(*slot);
  free_.push_back(slot);
  live_[i] = live_.back();
  live_.pop_back();
  return record;
}

std::optional<PeriodId> PeriodRegistry::active_for_thread(
    sim::ThreadId thread) const {
  for (const Live& l : live_) {
    if (l.thread == thread) return l.id;
  }
  return std::nullopt;
}

std::vector<PeriodRecord> PeriodRegistry::snapshot() const {
  std::vector<PeriodRecord> out;
  out.reserve(live_.size());
  for (const Live& l : live_) out.push_back(*l.record);
  std::sort(out.begin(), out.end(),
            [](const PeriodRecord& a, const PeriodRecord& b) {
              return a.id < b.id;
            });
  return out;
}

}  // namespace rda::core
