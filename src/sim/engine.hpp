// Discrete-event machine simulator.
//
// Models the paper's evaluation platform: N cores running a CFS-like fair
// scheduler (per-thread vruntime, fixed timeslice, context-switch cost) over
// threads that execute phase programs. Execution rates come from the LLC
// occupancy model and the DRAM bandwidth cap (perf_model); energy from the
// RAPL-style meter. A PhaseGate — the RDA scheduling extension — can be
// attached to intercept marked phase boundaries; without one, the engine is
// the paper's "Linux default" baseline (annotations are ignored and cost
// nothing, matching un-instrumented binaries).
//
// Simulation scheme: rates are piecewise-constant between events; the loop
// advances to the earliest of (quantum expiry, phase completion, overhead
// completion, max_step) and integrates work, traffic, occupancy, and energy
// over the interval.
#pragma once

#include <cstdint>
#include <vector>

#include "fault/fault.hpp"
#include "obs/sink.hpp"
#include "sim/cache_model.hpp"
#include "sim/calibration.hpp"
#include "sim/energy_model.hpp"
#include "sim/gate.hpp"
#include "sim/ids.hpp"
#include "sim/machine.hpp"
#include "sim/metrics.hpp"
#include "sim/perf_model.hpp"
#include "sim/phase.hpp"
#include "sim/ready_queue.hpp"

namespace rda::sim {

/// Baseline-scheduler structure: one global runqueue (simple, perfectly
/// load-balanced) or per-core runqueues with idle stealing (closer to real
/// CFS; migrations cost extra).
enum class SchedulerMode : std::uint8_t {
  kGlobalQueue,
  kPerCoreQueues,
};

struct EngineConfig {
  MachineConfig machine = MachineConfig::e5_2420();
  Calibration calib{};
  SchedulerMode scheduler = SchedulerMode::kGlobalQueue;
  /// Upper bound on one integration interval — bounds the explicit-Euler
  /// error of the occupancy model.
  double max_step = 500e-6;
  /// Safety net: simulated-seconds budget before the run aborts.
  double time_limit = 36000.0;
  /// §6 extension: when a gate is attached, un-instrumented (unmarked)
  /// phases are confined to at most this much LLC occupancy so they cannot
  /// pollute admitted periods ("allowing the instrumented programs to share
  /// a large cache partition"). 0 disables the confinement.
  double unannotated_cap_bytes = 0.0;
  /// Execution-level event sink (non-owning; nullptr = tracing off): phase
  /// body entry/exit, gate denials, and wakes, stamped with sim time. This
  /// is distinct from the gate's own admission-lifecycle sink — the engine
  /// records what threads *did*, the gate records what the scheduler
  /// *decided*.
  obs::TraceSink* trace_sink = nullptr;
  /// Fault injection (non-owning; nullptr = off). The engine consults
  /// kAdmit/kBlock after each admission decision (thread death) and kWake
  /// when a grant is delivered (lost wake, death at wake). Firing is keyed
  /// to consult counts, never wall time, so a plan replays exactly.
  fault::FaultInjector* fault_injector = nullptr;
};

class Engine final : public ThreadWaker {
 public:
  explicit Engine(EngineConfig config = {});

  /// Creates an empty process; threads are added to it.
  ProcessId create_process();

  /// Adds a thread executing `program`; it becomes runnable at time 0.
  ThreadId add_thread(ProcessId process, PhaseProgram program);

  /// Attaches the RDA extension (non-owning; must outlive run()).
  /// nullptr — the default — simulates the plain Linux baseline.
  void set_gate(PhaseGate* gate);

  /// Runs to completion of all threads (or the time limit).
  SimResult run();

  // ThreadWaker: the gate admitted a parked thread's pending period.
  void wake(ThreadId thread) override;

  // Introspection (tests).
  double now() const { return now_; }
  const LlcModel& llc() const { return llc_; }
  std::size_t thread_count() const { return threads_.size(); }

 private:
  enum class ThreadState : std::uint8_t {
    kReady,
    kRunning,
    kGateBlocked,
    kBarrierBlocked,
    kFinished,
  };
  /// Micro-position within the current phase.
  enum class Point : std::uint8_t {
    kBegin,    ///< about to execute pp_begin / enter the phase
    kBody,     ///< executing phase work
    kEnd,      ///< phase work done, executing pp_end + barrier
    kAdvance,  ///< past the end (barrier released); move to next phase
  };

  struct Thread {
    ThreadId id = kInvalidThread;
    ProcessId process = kInvalidProcess;
    PhaseProgram program;
    std::size_t phase_index = 0;
    /// Cached &program.phases[phase_index] — the begin/body/end state
    /// machine and the rate loop consult the current phase on every step,
    /// so it is re-bound only when phase_index moves.
    const PhaseSpec* phase = nullptr;
    Point point = Point::kBegin;
    double remaining = 0.0;
    bool admitted = false;  ///< gate already granted the pending begin
    ThreadState state = ThreadState::kReady;
    double vruntime = 0.0;
    double pending_overhead = 0.0;  ///< on-CPU seconds to burn before work
    /// LLC occupancy inherited from the previous phase (consecutive periods
    /// of one thread revisit the same data); dropped when the thread blocks.
    double carry_occupancy = 0.0;
    /// Partition cap the gate assigned to the pending period (0 = none).
    double pending_cap = 0.0;
    // Per-phase observation accumulators (counter-feedback extension).
    double phase_body_start = 0.0;
    double phase_occ_integral = 0.0;
    double phase_occ_peak = 0.0;
    double phase_dram_start = 0.0;
    double phase_flops_start = 0.0;
    bool phase_contended = false;
    int core = -1;
    int home_core = 0;  ///< owning runqueue in per-core mode
    double block_since = 0.0;
    ThreadStats stats;
  };

  struct Process {
    std::vector<ThreadId> members;
    int barrier_arrivals = 0;
  };

  struct Core {
    ThreadId running = kInvalidThread;
    ThreadId last = kInvalidThread;
    double quantum_end = 0.0;
  };

  static constexpr double kFlopEpsilon = 1e-3;
  static constexpr double kTimeEpsilon = 1e-12;

  const PhaseSpec& current_phase(const Thread& t) const {
    RDA_CHECK(t.phase != nullptr);
    return *t.phase;
  }
  /// Re-binds the cached phase pointer after phase_index changed.
  static void bind_phase(Thread& t) {
    t.phase = t.phase_index < t.program.phases.size()
                  ? &t.program.phases[t.phase_index]
                  : nullptr;
  }
  bool needs_point_processing(const Thread& t) const;
  /// Records an execution-level event for the thread's current phase.
  void trace(obs::EventKind kind, const Thread& t) const;

  void enqueue_ready(Thread& t);
  ThreadId pop_ready();
  bool any_ready() const;
  /// Per-core mode: pops for `core` from its own queue, stealing from the
  /// fullest queue when empty (migrating the thread). kInvalidThread if
  /// nothing is runnable anywhere.
  ThreadId pop_for_core(std::size_t core);
  bool dispatch();  ///< returns true if any core was filled
  void release_core(Thread& t);
  void block(Thread& t, ThreadState blocked_state);
  void finish(Thread& t);
  /// Injected thread death: tears the thread down mid-lifecycle. The gate's
  /// on_thread_exit reaps whatever period it still holds.
  void kill_thread(Thread& t);
  /// All-blocked recovery: resume threads whose grant was lost, then give
  /// the gate a last chance (watchdog escalation). Returns true when
  /// anything changed.
  bool recover_stall();

  /// Runs the begin/end state machine for a running thread until it is in
  /// the body with work, has pending overhead, blocked, or finished.
  void process_points(Thread& t);

  int alive_members(const Process& p) const;
  /// Releases the barrier if all alive members have arrived.
  void barrier_check(Process& p);

  void settle();  ///< dispatch + point-process until stable
  double compute_interval(const std::vector<PhaseRate>& rates,
                          const std::vector<ThreadId>& running) const;

  EngineConfig config_;
  PhaseGate* gate_ = nullptr;

  std::vector<Thread> threads_;
  std::vector<Process> processes_;
  std::vector<Core> cores_;
  /// Ready queue ordered by (vruntime, id) — flat binary-heap CFS stand-in.
  /// Global mode uses ready_; per-core mode uses core_ready_.
  ReadyQueue ready_;
  std::vector<ReadyQueue> core_ready_;

  LlcModel llc_;
  EnergyMeter energy_;
  /// Reusable bandwidth-cap solver: avoids a rates-vector allocation and
  /// re-derived per-thread miss terms on every integration step.
  RateSolver rate_solver_;
  double now_ = 0.0;
  double vclock_ = 0.0;
  std::size_t finished_count_ = 0;
  SimResult result_;
  bool ran_ = false;
};

}  // namespace rda::sim
