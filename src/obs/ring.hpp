// Fixed-capacity event ring buffer.
//
// Bounded memory no matter how long the run: the ring holds exactly the
// capacity it is given (no rounding up), allocated and zero-filled at
// construction so recording never takes a page fault. Once full, the
// oldest events are overwritten and counted as dropped (exporters and the
// reconciliation check refuse to reason about a lossy capture). A
// spinlock guards the few stores of one record — admission events are
// rare relative to work, and the critical section is a handful of
// nanoseconds, so a futex-based mutex would cost more than it protects.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/event.hpp"

namespace rda::obs {

/// Tiny test-and-set spinlock (TSan-visible acquire/release ordering).
class SpinLock {
 public:
  void lock() {
    while (flag_.test_and_set(std::memory_order_acquire)) {
    }
  }
  void unlock() { flag_.clear(std::memory_order_release); }

 private:
  std::atomic_flag flag_ = ATOMIC_FLAG_INIT;
};

/// RAII guard for SpinLock (std::lock_guard works too; this avoids the
/// <mutex> include in a hot-path header).
class SpinGuard {
 public:
  explicit SpinGuard(SpinLock& lock) : lock_(lock) { lock_.lock(); }
  ~SpinGuard() { lock_.unlock(); }
  SpinGuard(const SpinGuard&) = delete;
  SpinGuard& operator=(const SpinGuard&) = delete;

 private:
  SpinLock& lock_;
};

class EventRing {
 public:
  /// Holds exactly `capacity` events.
  explicit EventRing(std::size_t capacity = 1 << 16);

  void push(const Event& event);

  /// Events still held, oldest first.
  std::vector<Event> snapshot() const;

  std::uint64_t total_recorded() const;
  /// Events overwritten by wrap-around; 0 means the capture is complete.
  std::uint64_t dropped() const;
  std::size_t capacity() const { return slots_.size(); }

 private:
  mutable SpinLock lock_;
  std::vector<Event> slots_;
  std::size_t cursor_ = 0;  ///< next slot to write; wraps at capacity
  std::uint64_t next_ = 0;  ///< monotone write count (== total recorded)
};

}  // namespace rda::obs
