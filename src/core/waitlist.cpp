#include "core/waitlist.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace rda::core {

void Waitlist::push(Entry entry) {
  entry.seq = next_seq_++;
  entries_.push_back(entry);
  count_.fetch_add(1);  // seq_cst: this is the parker's Dekker store
}

void Waitlist::check_index(std::size_t index) const {
  RDA_CHECK_MSG(index < entries_.size(),
                "waitlist index " << index << " with only "
                                  << entries_.size() << " entries");
}

Waitlist::Entry& Waitlist::entry_at(std::size_t index) {
  check_index(index);
  return entries_[index];
}

std::vector<Waitlist::Entry> Waitlist::drain_admissible(
    const std::function<bool(const Entry&)>& admit, bool head_only) {
  std::vector<Entry> admitted;
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (admit(*it)) {
      admitted.push_back(*it);
      it = entries_.erase(it);
    } else if (head_only) {
      break;
    } else {
      ++it;
    }
  }
  if (!admitted.empty()) count_.fetch_sub(admitted.size());
  return admitted;
}

Waitlist::Entry Waitlist::remove_at(std::size_t index) {
  check_index(index);
  Entry entry = std::move(entries_[index]);
  entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(index));
  count_.fetch_sub(1);
  return entry;
}

void Waitlist::restore(Entry entry) {
  const auto pos = std::lower_bound(
      entries_.begin(), entries_.end(), entry.seq,
      [](const Entry& e, std::uint64_t seq) { return e.seq < seq; });
  entries_.insert(pos, std::move(entry));
  count_.fetch_add(1);
}

std::vector<Waitlist::Entry> Waitlist::remove_process(
    sim::ProcessId process) {
  return drain_admissible(
      [process](const Entry& e) { return e.process == process; },
      /*head_only=*/false);
}

std::size_t Waitlist::count_process(sim::ProcessId process) const {
  return static_cast<std::size_t>(
      std::count_if(entries_.begin(), entries_.end(),
                    [&](const Entry& e) { return e.process == process; }));
}

std::string to_string(WakeOrder order) {
  switch (order) {
    case WakeOrder::kFifo: return "fifo";
    case WakeOrder::kBestFitDemand: return "best-fit";
  }
  return "?";
}

std::size_t FifoWakeStrategy::select(
    const std::deque<Waitlist::Entry>& entries,
    const std::function<bool(const Waitlist::Entry&)>& fits) const {
  if (entries.empty()) return npos;
  if (!work_conserving_) {
    // Strict FIFO: only the head may be admitted; a non-fitting head
    // blocks everyone behind it.
    return fits(entries.front()) ? 0 : npos;
  }
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (fits(entries[i])) return i;
  }
  return npos;
}

std::string FifoWakeStrategy::name() const {
  return work_conserving_ ? "fifo" : "fifo-head-only";
}

std::size_t BestFitWakeStrategy::select(
    const std::deque<Waitlist::Entry>& entries,
    const std::function<bool(const Waitlist::Entry&)>& fits) const {
  std::size_t best = npos;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (!fits(entries[i])) continue;
    if (best == npos || entries[i].demand > entries[best].demand) best = i;
  }
  return best;
}

std::unique_ptr<WakeStrategy> make_wake_strategy(WakeOrder order,
                                                 bool work_conserving) {
  switch (order) {
    case WakeOrder::kFifo:
      return std::make_unique<FifoWakeStrategy>(work_conserving);
    case WakeOrder::kBestFitDemand:
      return std::make_unique<BestFitWakeStrategy>();
  }
  return std::make_unique<FifoWakeStrategy>(work_conserving);
}

}  // namespace rda::core
