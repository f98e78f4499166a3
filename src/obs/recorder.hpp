// EventRecorder — the standard concrete TraceSink.
//
// Owns the event ring, per-kind counters, and the wait-latency histogram
// (block→wake matched online by (thread, period), so force-admitted and
// pool-group wakes are timed too, and several admission cores whose period
// ids overlap can share one recorder). Thread-safe: the native gate already
// serializes emissions under its mutex, but the recorder does not depend
// on that.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "obs/histogram.hpp"
#include "obs/ring.hpp"
#include "obs/sink.hpp"
#include "util/flat_map.hpp"

namespace rda::obs {

class EventRecorder final : public TraceSink {
 public:
  explicit EventRecorder(std::size_t capacity = 1 << 16);

  void record(const Event& event) override;

  /// Recorded events still held, oldest first.
  std::vector<Event> events() const { return ring_.snapshot(); }
  std::uint64_t total_recorded() const { return ring_.total_recorded(); }
  std::uint64_t dropped() const { return ring_.dropped(); }

  std::uint64_t count(EventKind kind) const;
  WaitHistogram wait_histogram() const;

 private:
  EventRing ring_;
  mutable SpinLock lock_;  ///< guards counts_, waits_, block_time_
  std::array<std::uint64_t, kNumEventKinds> counts_{};
  WaitHistogram waits_;
  /// Block timestamp of periods currently parked (consumed on wake), keyed
  /// by wait_key(thread, period).
  util::FlatMap<double> block_time_;
};

}  // namespace rda::obs
