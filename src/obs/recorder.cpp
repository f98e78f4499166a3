#include "obs/recorder.hpp"

namespace rda::obs {

namespace {

/// One open wait interval per (thread, period): period ids alone repeat
/// across cores that share a recorder (each core's registry issues the same
/// ids). Unique while period ids stay below 2^32.
std::uint64_t wait_key(const Event& event) {
  return (static_cast<std::uint64_t>(event.thread) << 32) ^ event.period;
}

}  // namespace

EventRecorder::EventRecorder(std::size_t capacity) : ring_(capacity) {}

void EventRecorder::record(const Event& event) {
  ring_.push(event);
  SpinGuard guard(lock_);
  ++counts_[static_cast<std::size_t>(event.kind)];
  switch (event.kind) {
    case EventKind::kBlock:
      block_time_[wait_key(event)] = event.time;
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
      const std::uint64_t key = wait_key(event);
      if (const double* blocked = block_time_.find(key)) {
        waits_.add(event.time - *blocked);
        block_time_.erase(key);
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
