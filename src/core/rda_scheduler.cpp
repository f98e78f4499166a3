#include "core/rda_scheduler.hpp"

#include "util/check.hpp"

namespace rda::core {

namespace {

AdmissionConfig to_core_config(double llc_capacity_bytes,
                               const RdaOptions& options) {
  AdmissionConfig config;
  config.llc_capacity_bytes = llc_capacity_bytes;
  config.bandwidth_capacity = options.bandwidth_capacity;
  config.energy_capacity_watts = options.energy_capacity_watts;
  config.policy = options.policy;
  config.oversubscription = options.oversubscription;
  config.partitioning = options.partitioning;
  config.feedback = options.feedback;
  config.monitor = options.monitor;
  config.trace_sink = options.trace_sink;
  config.fault_injector = options.fault_injector;
  return config;
}

}  // namespace

RdaScheduler::RdaScheduler(double llc_capacity_bytes,
                           const sim::Calibration& calib, RdaOptions options)
    : calib_(calib),
      fast_path_(options.fast_path),
      core_(to_core_config(llc_capacity_bytes, options)) {}

void RdaScheduler::attach(sim::ThreadWaker& waker) {
  core_.set_batch_waker(
      [&waker](const std::vector<ProgressMonitor::WakeGrant>& grants) {
        for (const ProgressMonitor::WakeGrant& g : grants) waker.wake(g.thread);
      });
}

void RdaScheduler::on_thread_exit(sim::ThreadId thread, double now) {
  // The dead thread can never consume a reclaimed notice, so the reap
  // leaves no bookkeeping behind (remember_waiter = false).
  core_.reap(thread, now, /*remember_waiter=*/false);
}

bool RdaScheduler::pending_admitted(sim::ThreadId thread) const {
  const std::optional<PeriodId> id = core_.active_for_thread(thread);
  return id.has_value() && core_.is_admitted(*id);
}

bool RdaScheduler::on_stall(double now) {
  // Sim time cannot advance while everything is blocked, so the wall-clock
  // trigger alone can never fire here — a stall itself is the proof of
  // starvation.
  return core_.watchdog_tick(now) || core_.watchdog_stalled(now);
}

sim::BeginResult RdaScheduler::on_phase_begin(sim::ThreadId thread,
                                              sim::ProcessId process,
                                              const sim::PhaseSpec& phase,
                                              double now) {
  AdmitRequest request;
  request.thread = thread;
  request.process = process;
  request.demands = {
      {ResourceKind::kLLC, static_cast<double>(phase.declared_wss())}};
  if (core_.config().bandwidth_capacity > 0.0 &&
      phase.bw_bytes_per_sec > 0.0) {
    request.demands.push_back(
        {ResourceKind::kMemBandwidth, phase.bw_bytes_per_sec});
  }
  if (core_.config().energy_capacity_watts > 0.0 && phase.watts > 0.0) {
    request.demands.push_back({ResourceKind::kEnergyBudget, phase.watts});
  }
  request.reuse = phase.reuse;
  request.label = phase.label;

  const AdmitTicket ticket = core_.admit(std::move(request), now);

  sim::BeginResult result;
  result.admit = ticket.admitted;
  result.call_cost = call_cost(ticket.fast_path);
  result.occupancy_cap = ticket.occupancy_cap;
  return result;
}

sim::EndResult RdaScheduler::on_phase_end(sim::ThreadId thread,
                                          sim::ProcessId process,
                                          const sim::PhaseSpec& phase,
                                          const sim::PhaseObservation& observed,
                                          double now) {
  (void)process;
  (void)phase;
  const std::optional<PeriodId> id = core_.active_for_thread(thread);
  RDA_CHECK_MSG(id.has_value(), "phase end from thread "
                                    << thread << " with no active period");
  ReleaseObservation counters;
  counters.peak_occupancy = observed.peak_occupancy;
  counters.cache_contended = observed.cache_contended;
  counters.has_counters = true;
  if (observed.duration > 0.0 && observed.dram_bytes > 0.0) {
    // The DRAM-traffic counter view of the phase: average achieved
    // bandwidth, the trustworthy signal to audit a declared bytes/second
    // demand against.
    counters.peak_bandwidth = observed.dram_bytes / observed.duration;
    counters.has_bandwidth = true;
  }
  const ReleaseTicket ticket = core_.release(*id, counters, now);

  sim::EndResult result;
  result.call_cost = call_cost(ticket.fast_path);
  return result;
}

}  // namespace rda::core
