// Lock-light bounded MPSC submission queue (Vyukov's array queue).
//
// The wall-clock pump's queue (service/pump.hpp): real producer threads
// push submissions concurrently, one CAS on the head per slot, and the
// single drain loop pops them in FIFO order, a batch at a time. The
// virtual-time ServiceFrontEnd does not use it: that run is
// single-threaded, so each drain shard keeps a plain FIFO instead. The
// classic Dmitry Vyukov bounded-MPMC sequence scheme is used — each cell
// carries a sequence number the producer/consumer compare against their
// ticket, so neither side ever takes a lock and a full or empty queue is
// detected without blocking.
//
// push() is multi-producer safe. pop()/pop_batch() assume a SINGLE
// consumer (the drain loop owns the tail) — that is the pump's design:
// one drainer per queue, so admissions can be batched per drain pass.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/check.hpp"

namespace rda::service {

template <typename T>
class SubmissionQueue {
 public:
  /// Capacity is rounded up to a power of two (sequence arithmetic needs
  /// the mask trick).
  explicit SubmissionQueue(std::size_t capacity) {
    RDA_CHECK_MSG(capacity >= 2, "queue capacity must be at least 2");
    std::size_t pow2 = 2;
    while (pow2 < capacity) pow2 <<= 1;
    cells_ = std::vector<Cell>(pow2);
    mask_ = pow2 - 1;
    for (std::size_t i = 0; i < pow2; ++i) {
      cells_[i].sequence.store(i, std::memory_order_relaxed);
    }
  }

  SubmissionQueue(const SubmissionQueue&) = delete;
  SubmissionQueue& operator=(const SubmissionQueue&) = delete;

  /// Multi-producer enqueue. False = queue full (caller decides whether
  /// that is backpressure or a shed).
  bool push(T value) {
    std::uint64_t pos = head_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& cell = cells_[pos & mask_];
      const std::uint64_t seq = cell.sequence.load(std::memory_order_acquire);
      const std::int64_t diff =
          static_cast<std::int64_t>(seq) - static_cast<std::int64_t>(pos);
      if (diff == 0) {
        if (head_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          cell.value = std::move(value);
          cell.sequence.store(pos + 1, std::memory_order_release);
          return true;
        }
      } else if (diff < 0) {
        return false;  // the cell still holds an unconsumed value: full
      } else {
        pos = head_.load(std::memory_order_relaxed);
      }
    }
  }

  /// Single-consumer dequeue. False = queue empty.
  bool pop(T& out) {
    const std::uint64_t pos = tail_.load(std::memory_order_relaxed);
    Cell& cell = cells_[pos & mask_];
    const std::uint64_t seq = cell.sequence.load(std::memory_order_acquire);
    const std::int64_t diff =
        static_cast<std::int64_t>(seq) - static_cast<std::int64_t>(pos + 1);
    if (diff < 0) return false;
    out = std::move(cell.value);
    cell.sequence.store(pos + mask_ + 1, std::memory_order_release);
    tail_.store(pos + 1, std::memory_order_release);
    return true;
  }

  /// Single-consumer batched dequeue: appends up to `max` values to `out`
  /// in FIFO order and returns how many were taken.
  std::size_t pop_batch(std::vector<T>& out, std::size_t max) {
    std::size_t taken = 0;
    T value;
    while (taken < max && pop(value)) {
      out.push_back(std::move(value));
      ++taken;
    }
    return taken;
  }

  /// Items currently queued. Exact when quiescent; a racing producer can
  /// make it stale by one, which is fine for the overload EWMA it feeds.
  std::size_t size() const {
    const std::uint64_t tail = tail_.load(std::memory_order_acquire);
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    return static_cast<std::size_t>(head >= tail ? head - tail : 0);
  }

  std::size_t capacity() const { return mask_ + 1; }

 private:
  struct Cell {
    std::atomic<std::uint64_t> sequence{0};
    T value{};
  };

  std::vector<Cell> cells_;
  std::size_t mask_ = 0;
  /// Producers race on head_; tail_ belongs to the single consumer (padded
  /// apart so producers do not false-share the consumer's cursor).
  alignas(64) std::atomic<std::uint64_t> head_{0};
  alignas(64) std::atomic<std::uint64_t> tail_{0};
};

}  // namespace rda::service
