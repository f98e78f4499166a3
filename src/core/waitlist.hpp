// Resource waitlist (§3.1) and wake-order strategies.
//
// "Processes that are paused are placed on a resource waitlist so they may
//  be rescheduled later when another progress period completes and releases
//  sufficient resources."
//
// FIFO by default. The scan policy on release is configurable:
//   * work-conserving (default): walk the list in arrival order and admit
//     every entry that now fits (skipping ones that don't);
//   * head-only: stop at the first entry that does not fit — stronger
//     arrival-order fairness, weaker utilization (ablation bench);
//   * best-fit (WakeOrder::kBestFitDemand): demand-aware wake order — admit
//     the LARGEST fitting demand first, packing the freed capacity
//     (ablation bench `ablate_waitlist`).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/ladder.hpp"
#include "core/registry.hpp"

namespace rda::core {

/// The one resource waitlist: parked entries in arrival (seq) order.
///
/// Every mutation runs in the admission slow lane (serialized by the core's
/// slow mutex, or by the caller for direct users). size() is lock-free: it
/// reads the seq_cst entry counter the calm lane uses as its "anybody
/// parked?" Dekker flag.
class Waitlist {
 public:
  struct Entry {
    PeriodId period = kInvalidPeriod;
    sim::ThreadId thread = sim::kInvalidThread;
    sim::ProcessId process = sim::kInvalidProcess;
    double enqueue_time = 0.0;
    /// Primary-resource demand of the parked period; lets wake strategies
    /// order candidates without a registry lookup.
    double demand = 0.0;
    /// Starvation-watchdog bookkeeping: the degradation ladder (rung 0 =
    /// none, 1 = clamp, 2 = force, 3 = reject; its worse streak counts the
    /// fruitless rescans survived since the last escalation), and when the
    /// watchdog last acted on (or first saw) this entry.
    EscalationLadder ladder{};
    double last_escalation_time = 0.0;
    /// Arrival sequence, stamped by push(); restore() re-inserts by it.
    std::uint64_t seq = 0;
  };

  /// Appends the entry with the next arrival seq, then bumps the counter
  /// (seq_cst: the parker's Dekker store).
  void push(Entry entry);

  bool empty() const { return size() == 0; }
  std::size_t size() const { return count_.load(); }
  const std::deque<Entry>& entries() const { return entries_; }

  /// Mutable access for the watchdog's ladder bookkeeping; the identity
  /// fields (period/thread/process/seq) must not be modified through this.
  Entry& entry_at(std::size_t index);

  /// Removes and returns every entry `admit` accepts, in FIFO order. When
  /// `head_only`, scanning stops at the first rejection.
  std::vector<Entry> drain_admissible(
      const std::function<bool(const Entry&)>& admit, bool head_only);

  /// Removes and returns the entry at `index` (0 = head).
  Entry remove_at(std::size_t index);

  /// Re-inserts an entry removed by remove_at at its original FIFO position
  /// (same seq) — used when a selected wake fails its re-acquisition.
  void restore(Entry entry);

  /// Removes all entries of one process (group admission for thread pools).
  std::vector<Entry> remove_process(sim::ProcessId process);

  /// Total pending entries of one process.
  std::size_t count_process(sim::ProcessId process) const;

 private:
  void check_index(std::size_t index) const;

  std::deque<Entry> entries_;
  std::uint64_t next_seq_ = 1;
  std::atomic<std::size_t> count_{0};
};

/// Wake order applied when released capacity is re-offered to the waitlist.
enum class WakeOrder {
  kFifo,           ///< arrival order (paper behaviour)
  kBestFitDemand,  ///< largest fitting demand first (demand-aware packing)
};

std::string to_string(WakeOrder order);

/// Strategy deciding WHICH parked entry is admitted next on a rescan. The
/// progress monitor calls select() repeatedly: each call returns the index
/// of one entry to admit now, or `npos` to stop. `fits` must be a
/// side-effect-free admissibility check (pool guard + predicate); the
/// monitor performs the actual load charge after selection.
class WakeStrategy {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  virtual ~WakeStrategy() = default;
  virtual std::size_t select(
      const std::deque<Waitlist::Entry>& entries,
      const std::function<bool(const Waitlist::Entry&)>& fits) const = 0;
  virtual std::string name() const = 0;
};

/// Arrival-order wake. `work_conserving` scans past non-fitting entries;
/// otherwise the scan stops when the head does not fit (strict FIFO).
class FifoWakeStrategy final : public WakeStrategy {
 public:
  explicit FifoWakeStrategy(bool work_conserving = true)
      : work_conserving_(work_conserving) {}
  std::size_t select(
      const std::deque<Waitlist::Entry>& entries,
      const std::function<bool(const Waitlist::Entry&)>& fits) const override;
  std::string name() const override;

 private:
  bool work_conserving_;
};

/// Demand-aware wake: of all fitting entries, admit the one with the
/// largest demand (ties: earliest arrival), maximizing how much of the
/// freed capacity is put back to work per wake.
class BestFitWakeStrategy final : public WakeStrategy {
 public:
  std::size_t select(
      const std::deque<Waitlist::Entry>& entries,
      const std::function<bool(const Waitlist::Entry&)>& fits) const override;
  std::string name() const override { return "best-fit"; }
};

std::unique_ptr<WakeStrategy> make_wake_strategy(WakeOrder order,
                                                 bool work_conserving);

}  // namespace rda::core
