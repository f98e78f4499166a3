// Traced-run spans: recorded from the benchmark's own files around each
// call into a layer, kept in memory, written at exit as Chrome trace_event
// JSON. The program itself carries no spans.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t to_ns(Clock::duration d) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
}

/// Half-open interval [start, end) in nanoseconds.
struct Interval {
  std::int64_t start = 0;
  std::int64_t end = 0;
};

/// Self time of a span: its length minus the part of it that the union of
/// its children covers. Children may overlap each other and may stick out
/// of the parent; only their coverage inside the parent counts, once.
std::int64_t self_time(Interval parent, std::vector<Interval> children);

struct Span {
  std::uint32_t name = 0;      ///< interned name (SpanLog::intern)
  std::uint32_t thread = 0;    ///< recording thread (benchmark-local index)
  std::int64_t parent = -1;    ///< index of the parent span, -1 = root
  std::uint64_t request = 0;   ///< spans of one request share this id
  std::int64_t start = 0;      ///< ns since the log's epoch
  std::int64_t end = -1;       ///< -1 while open
};

/// Fixed-capacity span store. Slots are claimed with one atomic increment,
/// so threads record concurrently without a lock; each span is opened and
/// closed by the thread that claimed it. Spans beyond capacity are counted
/// as dropped and not stored.
class SpanLog {
 public:
  explicit SpanLog(std::size_t capacity);

  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  /// Registers a span name. Not thread-safe: intern every name before
  /// recording threads start; afterwards it is a read-only lookup.
  std::uint32_t intern(std::string_view name);

  /// Opens a span and returns its index (-1 when dropped).
  std::int64_t open(std::uint32_t name, std::uint64_t request,
                    std::int64_t parent, std::uint32_t thread);
  void close(std::int64_t index);

  /// Records an already-measured span.
  std::int64_t add(std::uint32_t name, std::uint64_t request,
                   std::int64_t parent, std::uint32_t thread,
                   Clock::time_point start, Clock::time_point end);

  /// Closed spans recorded so far (call after recording threads joined).
  std::size_t size() const;
  std::uint64_t dropped() const { return dropped_.load(); }

  /// Sum of self times of every closed span called `name`.
  std::int64_t total_self(std::uint32_t name) const;
  /// Sum of durations of every closed span called `name`, and their count.
  std::int64_t total_duration(std::uint32_t name,
                              std::uint64_t* count = nullptr) const;

  /// Chrome trace_event JSON ("X" complete events; microsecond stamps),
  /// at most `limit` spans.
  std::string chrome_json(std::size_t limit) const;

 private:
  std::int64_t now() const { return to_ns(Clock::now() - epoch_); }

  Clock::time_point epoch_;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::atomic<std::size_t> next_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

/// RAII span on a SpanLog (no-op when the log is null).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::uint32_t name, std::uint64_t request,
             std::int64_t parent, std::uint32_t thread)
      : log_(log),
        index_(log ? log->open(name, request, parent, thread) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::int64_t index() const { return index_; }

 private:
  SpanLog* log_;
  std::int64_t index_;
};

}  // namespace perfbench
