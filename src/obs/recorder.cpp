#include "obs/recorder.hpp"

namespace rda::obs {

EventRecorder::EventRecorder(std::size_t capacity) : ring_(capacity) {}

void EventRecorder::record(const Event& event) {
  ring_.push(event);
  SpinGuard guard(lock_);
  ++counts_[static_cast<std::size_t>(event.kind)];
  switch (event.kind) {
    case EventKind::kBlock:
      block_time_[event.period] = event.time;
      break;
    case EventKind::kWake:
    case EventKind::kForceAdmit:
    case EventKind::kCancel:
    case EventKind::kReclaim: {
      // Any exit from the waitlist closes the wait interval. A force-admit
      // on the begin path (never blocked) has no open interval and is
      // skipped; cancels and reaps count the aborted wait as latency too —
      // that is the latency the caller actually suffered.
      // A reclaim of an *admitted* period has no open interval either.
      const auto it = block_time_.find(event.period);
      if (it != block_time_.end()) {
        waits_.add(event.time - it->second);
        block_time_.erase(it);
      }
      break;
    }
    default:
      break;
  }
}

std::uint64_t EventRecorder::count(EventKind kind) const {
  SpinGuard guard(lock_);
  return counts_[static_cast<std::size_t>(kind)];
}

WaitHistogram EventRecorder::wait_histogram() const {
  SpinGuard guard(lock_);
  return waits_;
}

}  // namespace rda::obs
