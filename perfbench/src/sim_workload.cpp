// sim_table2: the eight Table-2 mixes under RDA:Strict, scaled down, run
// through the same Engine + RdaScheduler + populate_engine sequence as
// exp::run_workload. Fixed paper inputs: the seed is not used.
#include <array>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/rda_scheduler.hpp"
#include "sim/engine.hpp"
#include "spans.hpp"
#include "workload/table2.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace core = rda::core;
namespace sim = rda::sim;
namespace workload = rda::workload;

constexpr double kFlopScale = 0.125;
constexpr int kProcDivisor = 4;

std::vector<workload::WorkloadSpec> mixes() {
  std::vector<workload::WorkloadSpec> out;
  for (const workload::WorkloadSpec& spec : workload::table2_workloads()) {
    out.push_back(workload::scale_workload(spec, kFlopScale, kProcDivisor));
  }
  return out;
}

struct SpanNames {
  std::uint32_t cell, populate, run, gate, wake;
  explicit SpanNames(SpanLog& log)
      : cell(log.intern("cell")),
        populate(log.intern("workload.populate")),
        run(log.intern("engine.run")),
        gate(log.intern("core.sim_gate")),
        wake(log.intern("sim.wake")) {}
};

/// Forwarding gate around RdaScheduler: every call into the core is a
/// "core.sim_gate" span, every wake it delivers back to the engine a
/// "sim.wake" span inside it.
class TimedGate final : public sim::PhaseGate, public sim::ThreadWaker {
 public:
  TimedGate(core::RdaScheduler& inner, SpanLog& log, const SpanNames& names,
            std::uint64_t request)
      : inner_(inner), log_(log), names_(names), request_(request) {}

  void set_parent(std::int64_t parent) { parent_ = parent; }

  sim::BeginResult on_phase_begin(sim::ThreadId thread,
                                  sim::ProcessId process,
                                  const sim::PhaseSpec& phase,
                                  double now) override {
    ScopedSpan span(&log_, names_.gate, request_, parent_, 0);
    current_ = span.index();
    return inner_.on_phase_begin(thread, process, phase, now);
  }
  sim::EndResult on_phase_end(sim::ThreadId thread, sim::ProcessId process,
                              const sim::PhaseSpec& phase,
                              const sim::PhaseObservation& observed,
                              double now) override {
    ScopedSpan span(&log_, names_.gate, request_, parent_, 0);
    current_ = span.index();
    return inner_.on_phase_end(thread, process, phase, observed, now);
  }
  void attach(sim::ThreadWaker& waker) override {
    engine_ = &waker;
    inner_.attach(*this);
  }
  void wake(sim::ThreadId thread) override {
    ScopedSpan span(&log_, names_.wake, request_, current_, 0);
    engine_->wake(thread);
  }
  void on_thread_exit(sim::ThreadId thread, double now) override {
    inner_.on_thread_exit(thread, now);
  }
  bool pending_admitted(sim::ThreadId thread) const override {
    return inner_.pending_admitted(thread);
  }
  bool on_stall(double now) override { return inner_.on_stall(now); }

 private:
  core::RdaScheduler& inner_;
  SpanLog& log_;
  const SpanNames& names_;
  std::uint64_t request_;
  std::int64_t parent_ = -1;
  std::int64_t current_ = -1;
  sim::ThreadWaker* engine_ = nullptr;
};

struct Cell {
  double host_ms = 0.0;
  double factor = 1.0;  ///< machine factor probed after the cell's pass
  sim::SimResult result;
  std::string error;
};

/// exp::run_workload's sequence for one mix under RDA:Strict; with a span
/// log the gate is wrapped and the phases become spans.
Cell run_cell(const workload::WorkloadSpec& spec, SpanLog* log,
              const SpanNames* names, std::uint64_t request) {
  Cell cell;
  const Clock::time_point t0 = Clock::now();
  try {
    ScopedSpan whole(log, log ? names->cell : 0, request, -1, 0);
    const sim::EngineConfig config{};
    sim::Engine engine(config);
    core::RdaOptions options;
    options.policy = core::PolicyKind::kStrict;
    core::RdaScheduler gate(static_cast<double>(config.machine.llc_bytes),
                            config.calib, options);
    std::unique_ptr<TimedGate> timed;
    if (log != nullptr) {
      timed = std::make_unique<TimedGate>(gate, *log, *names, request);
      engine.set_gate(timed.get());
    } else {
      engine.set_gate(&gate);
    }
    {
      ScopedSpan populate(log, log ? names->populate : 0, request,
                          whole.index(), 0);
      workload::populate_engine(engine, spec, [&](sim::ProcessId pid) {
        gate.mark_pool(pid);
      });
    }
    ScopedSpan run(log, log ? names->run : 0, request, whole.index(), 0);
    if (timed) timed->set_parent(run.index());
    cell.result = engine.run();
  } catch (const std::exception& e) {
    cell.error = e.what();
  }
  cell.host_ms = std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  return cell;
}

/// Order-sensitive digest of every simulated figure, bit for bit.
std::uint64_t digest(const sim::SimResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t x) {
    h ^= x;
    h *= 0x100000001b3ull;
  };
  const auto mixd = [&mix](double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    mix(bits);
  };
  mixd(r.makespan);
  mixd(r.total_flops);
  mixd(r.package_joules);
  mixd(r.dram_joules);
  mixd(r.dram_bytes);
  mix(r.sim_steps);
  mix(r.context_switches);
  mix(r.migrations);
  mix(r.gate_blocks);
  mix(r.gate_admissions);
  mix(r.api_calls);
  for (const sim::ThreadStats& t : r.threads) {
    mixd(t.cpu_time);
    mixd(t.gate_blocked_time);
    mixd(t.finish_time);
    mixd(t.flops);
    mixd(t.dram_bytes);
  }
  return h;
}

/// Runs whole passes over the mixes, each pinned to the next CPU in turn,
/// until `seconds` elapse and every CPU ran as many passes as the others;
/// checks each cell against the reference digests.
std::vector<Cell> run_passes(const std::vector<workload::WorkloadSpec>& specs,
                             double seconds, SpanLog* log,
                             const SpanNames* names,
                             std::vector<std::uint64_t>& reference,
                             Report& report, int& passes) {
  std::vector<Cell> cells;
  const std::vector<int> cpus = allowed_cpus();
  const Clock::time_point start = Clock::now();
  do {
    pin_to_cpu(cpus[static_cast<std::size_t>(passes) % cpus.size()]);
    for (std::size_t i = 0; i < specs.size(); ++i) {
      Cell c = run_cell(specs[i], log, names, cells.size());
      report.check(c.error.empty(), "sim cell " + specs[i].name + ": " + c.error);
      const std::uint64_t d = digest(c.result);
      if (reference.size() <= i) reference.push_back(d);
      report.check(d == reference[i],
                   "sim cell " + specs[i].name + " repeats bit for bit");
      cells.push_back(std::move(c));
    }
    const double factor = machine_factor();
    for (std::size_t i = cells.size() - specs.size(); i < cells.size(); ++i) {
      cells[i].factor = factor;
    }
    ++passes;
  } while (static_cast<std::size_t>(passes) % cpus.size() != 0 ||
           std::chrono::duration<double>(Clock::now() - start).count() < seconds);
  unpin(cpus);
  return cells;
}

}  // namespace

void run_sim_table2(const Options& options, Report& report) {
  report.info("threads", 1, "count");
  report.line("seed: not used (fixed Table-2 inputs)");
  std::vector<workload::WorkloadSpec> specs;
  std::vector<std::uint64_t> reference;
  const double setup_s = measure_setup([&] {
    specs = mixes();
    // Warm-up: one cell, so the allocator and caches are in steady state.
    const Cell warm = run_cell(specs.front(), nullptr, nullptr, 0);
    report.check(warm.error.empty(), "sim warm-up cell: " + warm.error);
  });
  int passes = 0;

  const double untraced_budget = options.trace ? 0.45 * options.seconds
                                               : options.seconds;
  const std::vector<Cell> cells =
      run_passes(specs, untraced_budget, nullptr, nullptr, reference, report, passes);
  std::uint64_t failed = 0;
  for (const Cell& c : cells) failed += c.error.empty() ? 0 : 1;
  report.set_operations(cells.size(), failed);

  std::vector<double> cell_ms;  // normalised
  double total_ms = 0.0;
  double raw_ms = 0.0;
  for (const Cell& c : cells) {
    cell_ms.push_back(c.host_ms / c.factor);
    total_ms += cell_ms.back();
    raw_ms += c.host_ms;
  }
  // One pass of results: the simulated figures are the same in every pass.
  double log_gpw = 0.0;
  std::uint64_t steps = 0, blocks = 0, switches = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const sim::SimResult& r = cells[i].result;
    log_gpw += std::log(r.gflops_per_watt());
    steps += r.sim_steps;
    blocks += r.gate_blocks;
    switches += r.context_switches;
  }
  const double gflops_per_watt =
      std::exp(log_gpw / static_cast<double>(specs.size()));

  if (!options.trace) {
    // The gated tail stops at p90: a 20 s run makes about 1000 cells, right
    // where p99 starts to qualify, so the deeper rule would gate p90 in some
    // runs and p99 in others.
    constexpr std::array<double, 2> kCellLadder = {50.0, 90.0};
    const Timing per_cell = summarize(cell_ms, kCellLadder);
    report.metric("setup_s", setup_s, "s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    report.metric("throughput_per_s",
                  1e3 * static_cast<double>(cells.size()) / total_ms, "1/s");
    report.metric("latency_p50_us", 1e3 * per_cell.p50, "us");
    report.metric("latency_tail_us", 1e3 * per_cell.tail, "us");
    report.line("per-workload metrics:");
    report.info("host_ms_per_cell (raw)", raw_ms / static_cast<double>(cells.size()),
                "ms", cells.size());
    report.timing("cell_ms (normalised)", per_cell, "ms");
    report.info("gflops_per_watt (simulated)", gflops_per_watt, "GFLOPS/W",
                specs.size());
    report.info("fail_frac", static_cast<double>(failed) / static_cast<double>(cells.size()),
                "frac", cells.size());
    report.info("passes", passes, "count");
    return;
  }

  SpanLog log(1 << 18);
  const SpanNames names(log);
  passes = 0;
  const std::vector<Cell> traced = run_passes(specs, 0.45 * options.seconds, &log,
                                              &names, reference, report, passes);
  report.check(log.dropped() == 0, "span log kept every span");
  double traced_ms = 0.0;
  for (const Cell& c : traced) traced_ms += c.host_ms / c.factor;

  std::uint64_t gate_calls = 0, runs = 0, populates = 0, wakes = 0;
  const double gate_ns = static_cast<double>(log.total_duration(names.gate, &gate_calls));
  const double wake_ns = static_cast<double>(log.total_duration(names.wake, &wakes));
  const double populate_ns =
      static_cast<double>(log.total_duration(names.populate, &populates));
  log.total_duration(names.run, &runs);
  // The engine's own time: engine.run minus the gate calls inside it, plus
  // the wakes the gate handed back to the engine.
  const double engine_self_ns = static_cast<double>(log.total_self(names.run)) + wake_ns;
  const double traced_steps =
      static_cast<double>(steps) * static_cast<double>(passes);

  report.metric("core.sim_gate_ns",
                gate_calls ? (gate_ns - wake_ns) / static_cast<double>(gate_calls) : 0.0,
                "ns");
  report.metric("sim.engine_self_ms",
                runs ? engine_self_ns / 1e6 / static_cast<double>(runs) : 0.0, "ms");
  report.metric("sim.ns_per_step", traced_steps > 0 ? engine_self_ns / traced_steps : 0.0,
                "ns");
  report.metric("sim.steps", static_cast<double>(steps), "count");
  report.metric("core.gate_blocks", static_cast<double>(blocks), "count");
  report.metric("sim.context_switches", static_cast<double>(switches), "count");
  report.metric("workload.populate_ms",
                populates ? populate_ns / 1e6 / static_cast<double>(populates) : 0.0,
                "ms");
  report.metric("trace.overhead_frac",
                (traced_ms / static_cast<double>(traced.size())) /
                        (total_ms / static_cast<double>(cells.size())) -
                    1.0,
                "frac");
  write_trace(options, log, report);
}

}  // namespace perfbench
