// Reproduces paper Figure 11: runtime overhead of progress-period tracking
// at different granularities of the dgemm triple loop (n = 512):
//   none    — un-instrumented kernel,
//   outer   — the whole computation is ONE period,
//   middle  — 512 periods (one per middle-loop iteration),
//   inner   — 512^2 = 262,144 periods.
// The paper measures 0% / 19% / 59% overhead for outer/middle/inner. A
// single per-call cost cannot produce both 19% and 59% (they differ 160x per
// call), so we report two calibrated series that bracket the paper:
//   slow-path — every call enters the kernel extension (~9 us),
//   fast-path — calls the core's calm lock-free lane serves (nobody
//               parked, the budget fits) cost ~55 ns; the rest still
//               enter the kernel.
// Both series agree with the paper's conclusion: track at the outermost
// loop.
//
// A second, NATIVE measurement runs a real dgemm through the real userspace
// AdmissionGate at the same three granularities.
#include <chrono>
#include <cstring>
#include <iostream>
#include <iterator>
#include <vector>

#include "blas/level3.hpp"
#include "core/rda_scheduler.hpp"
#include "exp/harness.hpp"
#include "obs/recorder.hpp"
#include "runtime/gate.hpp"
#include "sim/engine.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace {

using namespace rda;
using rda::util::MB;

constexpr std::size_t kN = 512;
constexpr double kTotalFlops = 2.0 * kN * kN * kN;
constexpr std::uint64_t kWss = 6815744;  // paper Fig. 4: MB(6.3) for n=512

/// Simulated dgemm split into `periods` equal marked phases.
double simulate(std::size_t periods, bool instrumented, bool fast_path) {
  sim::EngineConfig cfg;
  cfg.machine = sim::MachineConfig::e5_2420();
  sim::Engine engine(cfg);

  core::RdaOptions options;
  options.policy = core::PolicyKind::kStrict;  // paper: "strict policy active"
  options.fast_path = fast_path;
  core::RdaScheduler gate(static_cast<double>(cfg.machine.llc_bytes),
                          cfg.calib, options);
  if (instrumented) engine.set_gate(&gate);

  sim::ProgramBuilder builder;
  for (std::size_t p = 0; p < periods; ++p) {
    builder.period("dgemm", kTotalFlops / static_cast<double>(periods), kWss,
                   ReuseLevel::kHigh);
  }
  const sim::ProcessId pid = engine.create_process();
  engine.add_thread(pid, builder.build());
  const sim::SimResult result = engine.run();
  return result.gflops();
}

/// Native dgemm (row-blocked triple loop) with real gate calls at the
/// requested loop depth. depth: 0 = none, 1 = outer, 2 = middle, 3 = inner.
/// `sink` attaches the observability layer (nullptr = tracing disabled, the
/// default-off configuration whose cost the traced-vs-untraced series
/// bounds).
double native_gflops(int depth, std::size_t n,
                     obs::TraceSink* sink = nullptr) {
  rt::GateConfig cfg;
  cfg.llc_capacity_bytes = static_cast<double>(MB(15));
  cfg.policy = core::PolicyKind::kStrict;
  cfg.trace_sink = sink;
  rt::AdmissionGate gate(cfg);

  std::vector<double> a(n * n, 1.0), b(n * n, 0.5), c(n * n, 0.0);
  const double demand = static_cast<double>(3 * n * n * sizeof(double));

  const auto t0 = std::chrono::steady_clock::now();
  core::PeriodId outer_id = core::kInvalidPeriod;
  if (depth == 1) {
    outer_id = gate.begin(ResourceKind::kLLC, demand, ReuseLevel::kHigh);
  }
  for (std::size_t i = 0; i < n; ++i) {
    core::PeriodId mid_id = core::kInvalidPeriod;
    if (depth == 2) {
      mid_id = gate.begin(ResourceKind::kLLC, demand, ReuseLevel::kHigh);
    }
    for (std::size_t j = 0; j < n; ++j) {
      core::PeriodId inner_id = core::kInvalidPeriod;
      if (depth == 3) {
        inner_id = gate.begin(ResourceKind::kLLC, demand, ReuseLevel::kHigh);
      }
      double acc = 0.0;
      const double* arow = &a[i * n];
      for (std::size_t l = 0; l < n; ++l) acc += arow[l] * b[l * n + j];
      c[i * n + j] = acc;
      if (depth == 3) gate.end(inner_id);
    }
    if (depth == 2) gate.end(mid_id);
  }
  if (depth == 1) gate.end(outer_id);
  const auto t1 = std::chrono::steady_clock::now();
  const double seconds = std::chrono::duration<double>(t1 - t0).count();
  // Keep the result alive so the kernel is not optimized away.
  volatile double keep = c[n / 2];
  (void)keep;
  return 2.0 * static_cast<double>(n) * n * n / seconds / 1e9;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;
  std::cout << "=== Figure 11: progress-tracking overhead on dgemm (n=512) "
               "===\n(paper: outer ~0%, middle ~19%, inner ~59%)\n\n";

  struct Row {
    const char* name;
    std::size_t periods;
    bool instrumented;
  };
  const Row rows[] = {
      {"no periods", 1, false},
      {"outer loop (1 period)", 1, true},
      {"middle loop (512 periods)", 512, true},
      {"inner loop (262144 periods)", 512 * 512, true},
  };

  // The simulated points are independent engines — fan them out. Slot 0 is
  // the uninstrumented base; slots 2k+1 / 2k+2 are row k's slow/fast series.
  std::vector<double> sim_gflops(1 + 2 * std::size(rows), 0.0);
  exp::run_cells(sim_gflops.size(), exp::parse_jobs(argc, argv),
                 [&](std::size_t cell) {
                   if (cell == 0) {
                     sim_gflops[0] = simulate(1, false, false);
                     return;
                   }
                   const Row& row = rows[(cell - 1) / 2];
                   const bool fast_path = (cell - 1) % 2 == 1;
                   // The inner-loop slow-path point simulates 524k kernel
                   // calls; skip the heavy series in --quick mode.
                   if (!fast_path && row.periods > 1000 && quick) return;
                   sim_gflops[cell] =
                       simulate(row.periods, row.instrumented, fast_path);
                 });

  const double base = sim_gflops[0];
  util::Table table({"granularity", "GFLOPS (slow path)", "overhead",
                     "GFLOPS (fast path)", "overhead"});
  for (std::size_t r = 0; r < std::size(rows); ++r) {
    const Row& row = rows[r];
    const double slow = sim_gflops[1 + 2 * r];
    const double fast = sim_gflops[2 + 2 * r];
    auto overhead = [&](double gflops) {
      return gflops > 0.0
                 ? std::to_string(
                       static_cast<int>(100.0 * (base / gflops - 1.0))) + "%"
                 : std::string("skipped");
    };
    table.begin_row()
        .add_cell(row.name)
        .add_cell(slow > 0.0 ? std::to_string(slow).substr(0, 5)
                             : std::string("(--quick)"))
        .add_cell(slow > 0.0 ? overhead(slow) : std::string("-"))
        .add_cell(fast, 2)
        .add_cell(overhead(fast));
  }
  std::cout << table.render() << "\n";

  std::cout << "--- native userspace gate on a real dgemm (n="
            << (quick ? 128 : 384) << ") ---\n";
  const std::size_t n = quick ? 128 : 384;
  util::Table native({"granularity", "GFLOPS", "overhead"});
  // Warm up (page faults, frequency), then best of three to suppress
  // scheduling noise on shared CI machines.
  native_gflops(0, n);
  auto best_of = [&](int depth) {
    double best = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
      best = std::max(best, native_gflops(depth, n));
    }
    return best;
  };
  const double native_base = best_of(0);
  for (int depth = 0; depth <= 3; ++depth) {
    static const char* kNames[] = {"no periods", "outer", "middle", "inner"};
    const double gflops = depth == 0 ? native_base : best_of(depth);
    native.begin_row()
        .add_cell(kNames[depth])
        .add_cell(gflops, 3)
        .add_cell(std::to_string(static_cast<int>(
                      100.0 * (native_base / gflops - 1.0))) +
                  "%");
  }
  std::cout << native.render() << "\n";

  // Observability-layer cost at the chattiest granularity that still makes
  // sense (inner loop: n^2 periods, 2 events per period). "off" is the
  // default null-sink configuration — the if (sink_) branch is the entire
  // cost — and "recorder" pays the ring push + counter update per event.
  std::cout << "--- tracing overhead (native gate, inner loop, n=" << n
            << ") ---\n";
  auto best_traced = [&](obs::TraceSink* sink) {
    double best = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
      best = std::max(best, native_gflops(3, n, sink));
    }
    return best;
  };
  const double untraced = best_traced(nullptr);
  obs::EventRecorder recorder(1 << 18);
  const double traced = best_traced(&recorder);
  util::Table tracing({"tracing", "GFLOPS", "overhead vs off"});
  tracing.begin_row().add_cell("off (null sink)").add_cell(untraced, 3)
      .add_cell("-");
  tracing.begin_row().add_cell("recorder").add_cell(traced, 3)
      .add_cell(std::to_string(static_cast<int>(
                    100.0 * (untraced / traced - 1.0))) + "%");
  std::cout << tracing.render() << "recorded "
            << recorder.total_recorded() << " events ("
            << recorder.dropped() << " dropped)\n"
            << "\nconclusion (matches paper §4.3): wrap each kernel at the "
               "outermost loop level.\n";
  return 0;
}
