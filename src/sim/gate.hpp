// Interface between the simulator engine and a phase-boundary scheduler.
//
// The RDA core (src/core) implements this to intercept progress-period
// entry/exit, exactly like the paper's kernel extension intercepts pp_begin
// and pp_end. The engine only knows: a begin may block the thread (kernel
// wait queue) and costs some API time; an end costs API time and may wake
// previously blocked threads through the ThreadWaker.
#pragma once

#include "sim/ids.hpp"
#include "sim/phase.hpp"

namespace rda::sim {

/// Engine-side wake channel handed to the gate. wake(t) means "thread t's
/// pending period has been admitted; make it runnable".
class ThreadWaker {
 public:
  virtual ~ThreadWaker() = default;
  virtual void wake(ThreadId thread) = 0;
};

/// Outcome of a pp_begin consult.
struct BeginResult {
  bool admit = true;
  /// API-call time charged to the calling thread (syscall, bookkeeping,
  /// possible reschedule). The gate decides fast-path vs slow-path.
  double call_cost = 0.0;
  /// §6 cache-partitioning extension: maximum LLC occupancy this phase may
  /// hold (bytes); 0 means unpartitioned. Set by gates that confine
  /// streaming/oversized periods to a small partition.
  double occupancy_cap = 0.0;
};

struct EndResult {
  double call_cost = 0.0;
};

/// What the hardware counters observed while a period ran — handed to the
/// gate at pp_end. Basis for the counter-feedback extension (related-work
/// discussion: "using real-time hardware counters to determine current
/// resource usage, in combination with demand aware scheduling").
struct PhaseObservation {
  double duration = 0.0;        ///< seconds from first body execution to end
  double peak_occupancy = 0.0;  ///< max LLC bytes the phase ever held
  double avg_occupancy = 0.0;   ///< time-averaged LLC bytes
  double dram_bytes = 0.0;      ///< total DRAM traffic the phase caused
  double flops = 0.0;           ///< work retired
  /// The LLC was ~full at some point while the phase ran: its peak
  /// occupancy is a lower bound on its appetite, not a measurement.
  bool cache_contended = false;
};

class PhaseGate {
 public:
  virtual ~PhaseGate() = default;

  /// The engine calls this once per *marked* phase when the owning thread
  /// reaches it. If !admit, the engine parks the thread until wake().
  virtual BeginResult on_phase_begin(ThreadId thread, ProcessId process,
                                     const PhaseSpec& phase, double now) = 0;

  /// Called when a marked phase completes. The gate updates its load
  /// accounting and may wake waitlisted threads (via the ThreadWaker given
  /// at attach time). `observed` carries the hardware-counter view of the
  /// finished period (counter-feedback extension).
  virtual EndResult on_phase_end(ThreadId thread, ProcessId process,
                                 const PhaseSpec& phase,
                                 const PhaseObservation& observed,
                                 double now) = 0;

  /// Called once by the engine before the run starts.
  virtual void attach(ThreadWaker& waker) = 0;

  /// Fault-recovery hooks (default no-ops so ungated/simple gates ignore
  /// them):

  /// The owning thread died or was torn down without closing its period —
  /// the gate should reap whatever it still holds (load or waitlist slot).
  virtual void on_thread_exit(ThreadId thread, double now) {
    (void)thread;
    (void)now;
  }

  /// Lost-wake recovery probe: true when `thread`'s period has actually
  /// been granted even though no wake() was delivered — the engine may then
  /// resume the thread directly.
  virtual bool pending_admitted(ThreadId thread) const {
    (void)thread;
    return false;
  }

  /// Last-resort progress hook: the engine has unfinished threads but none
  /// runnable. Returns true when the gate changed state (escalated a
  /// starved waiter, woke somebody) — the engine then re-evaluates instead
  /// of declaring deadlock.
  virtual bool on_stall(double now) {
    (void)now;
    return false;
  }
};

}  // namespace rda::sim
