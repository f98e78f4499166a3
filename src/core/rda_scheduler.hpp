// RdaScheduler — the paper's scheduling extension, packaged as a sim gate.
//
// A thin adapter over core::AdmissionCore: it translates sim phase
// boundaries (on_phase_begin / on_phase_end) into the core's transactional
// admit/release calls, the sim's ThreadWaker into the core's batch waker,
// and the lane that served each call into the calibrated API call cost the
// simulator charges (Fig. 11 overhead study). All policy, partitioning,
// feedback and waitlist logic lives in the core — shared verbatim with the
// native rt::AdmissionGate and the cluster layer's per-node gates.
#pragma once

#include <cstdint>
#include <unordered_set>

#include "core/admission.hpp"
#include "obs/sink.hpp"
#include "sim/calibration.hpp"
#include "sim/gate.hpp"

namespace rda::core {

struct RdaOptions {
  PolicyKind policy = PolicyKind::kStrict;
  /// Oversubscription factor x for RDA:Compromise (paper uses 2).
  double oversubscription = 2.0;
  /// Fig. 11 second series: charge api_fast_path_cost for every call the
  /// core's calm lock-free lane served (api_call_cost otherwise). Selects
  /// the simulator's cost model only; it never changes a decision.
  bool fast_path = false;
  PartitionOptions partitioning{};
  /// Multi-resource extension: when > 0, DRAM bandwidth becomes a second
  /// gated resource with this capacity (bytes/second); periods declaring a
  /// bandwidth demand must fit BOTH resources to be admitted.
  double bandwidth_capacity = 0.0;
  /// Multi-resource extension: when > 0, a package power budget (watts)
  /// becomes a gated resource; phases declaring `watts` are throttled so
  /// the sum of admitted watts holds the cap (fig10's GFLOPS/W machinery
  /// provides the ground truth).
  double energy_capacity_watts = 0.0;
  /// Counter-feedback extension: correct declared demands from observed
  /// per-period hardware counters.
  FeedbackOptions feedback{};
  MonitorOptions monitor{};
  /// Admission-lifecycle event sink (non-owning; nullptr = tracing off).
  obs::TraceSink* trace_sink = nullptr;
  /// Fault injection (non-owning; nullptr = off). Forwarded to the core,
  /// which consults the counter-corruption hook on release.
  fault::FaultInjector* fault_injector = nullptr;
};

class RdaScheduler final : public sim::PhaseGate {
 public:
  /// `llc_capacity_bytes` seeds the resource monitor; `calib` provides the
  /// API call costs the simulator charges.
  RdaScheduler(double llc_capacity_bytes, const sim::Calibration& calib,
               RdaOptions options = {});

  /// Declares a process as a task-pool (§3.4 group pause semantics).
  void mark_pool(sim::ProcessId process) { core_.mark_pool(process); }

  /// Attaches/detaches the lifecycle-event sink at runtime.
  void set_trace_sink(obs::TraceSink* sink) { core_.set_trace_sink(sink); }

  // sim::PhaseGate
  sim::BeginResult on_phase_begin(sim::ThreadId thread,
                                  sim::ProcessId process,
                                  const sim::PhaseSpec& phase,
                                  double now) override;
  sim::EndResult on_phase_end(sim::ThreadId thread, sim::ProcessId process,
                              const sim::PhaseSpec& phase,
                              const sim::PhaseObservation& observed,
                              double now) override;
  void attach(sim::ThreadWaker& waker) override;
  void on_thread_exit(sim::ThreadId thread, double now) override;
  bool pending_admitted(sim::ThreadId thread) const override;
  bool on_stall(double now) override;

  /// The shared engine (e.g. to swap the wake strategy for ablations).
  AdmissionCore& core() { return core_; }
  const AdmissionCore& core() const { return core_; }

  MonitorStats monitor_stats() const { return core_.stats(); }
  std::uint64_t partitioned_periods() const {
    return core_.partitioned_periods();
  }
  ResourceMonitor& resources() { return core_.resources(); }
  const ProgressMonitor& monitor() const { return core_.monitor(); }
  const DemandCorrector& corrector() const { return core_.corrector(); }

 private:
  /// API cost of a call the core served on `fast_lane`.
  double call_cost(bool fast_lane) const {
    return fast_path_ && fast_lane ? calib_.api_fast_path_cost
                                   : calib_.api_call_cost;
  }

  sim::Calibration calib_;
  bool fast_path_ = false;
  AdmissionCore core_;
  sim::ThreadWaker* waker_ = nullptr;
  /// Threads running ungated after a watchdog rejection: their next phase
  /// end has no core period to release.
  std::unordered_set<sim::ThreadId> rejected_running_;
};

}  // namespace rda::core
