#include "obs/ring.hpp"

#include "util/check.hpp"

namespace rda::obs {

EventRing::EventRing(std::size_t capacity) {
  RDA_CHECK(capacity > 0);
  slots_.resize(capacity);
}

void EventRing::push(const Event& event) {
  SpinGuard guard(lock_);
  slots_[cursor_] = event;
  if (++cursor_ == slots_.size()) cursor_ = 0;
  ++next_;
}

std::vector<Event> EventRing::snapshot() const {
  SpinGuard guard(lock_);
  // The cursor splits the slots: [cursor_, end) is older than [0, cursor_)
  // once the ring has wrapped, and unwritten before that.
  const auto cursor = slots_.begin() + static_cast<std::ptrdiff_t>(cursor_);
  std::vector<Event> out;
  if (next_ >= slots_.size()) out.assign(cursor, slots_.end());
  out.insert(out.end(), slots_.begin(), cursor);
  return out;
}

std::uint64_t EventRing::total_recorded() const {
  SpinGuard guard(lock_);
  return next_;
}

std::uint64_t EventRing::dropped() const {
  SpinGuard guard(lock_);
  return next_ < slots_.size() ? 0 : next_ - slots_.size();
}

}  // namespace rda::obs
