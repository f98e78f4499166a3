// micro_sim_engine — self-timed simulator hot-path benchmark, the engine
// counterpart of micro_gate. Emits BENCH_sim.json and gates regressions.
//
//   micro_sim_engine [--reps N] [--jobs J] [--out BENCH_sim.json]
//
// Measures, each as the minimum over reps (one stray scheduler tick poisons
// an average, the best rep reflects the sustained cost):
//   * heavy   — 48 threads x 16 phases x 200 MFLOP high-reuse periods, no
//     gate: the pure integration loop (ready queues, rate solver, fluid
//     cache model). Also reported as ns per integration step.
//   * gated   — the same workload under RDA:Strict (admission on the path).
//   * churn   — one thread, 60k tiny marked phases under Strict+fast-path:
//     the phase-boundary state machine (Fig. 11 inner-loop regime).
//   * matrix  — the 8 quick Table-2 workloads under Strict through
//     exp::run_matrix at --jobs 1 and --jobs J, with a byte-identical
//     comparison of every result field across the two runs.
//   * sampling — set-sampled (K=16) vs full SetAssociativeCache miss ratios
//     on the validate_cache_model trace family; max absolute error.
//
// The kPre* constants are this machine's numbers at commit 9be06f0, before
// the flat-heap/dense-bookkeeping overhaul; kExpected* are the numbers the
// regression gate (10%) compares against. The parallel-speedup
// gate only engages when the host has enough cores to make the target
// physically meaningful.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "calib.hpp"
#include "core/rda_scheduler.hpp"
#include "exp/harness.hpp"
#include "sim/assoc_cache.hpp"
#include "sim/engine.hpp"
#include "trace/generators.hpp"
#include "util/atomic_file.hpp"
#include "util/units.hpp"
#include "workload/table2.hpp"

namespace {

using namespace rda;
using rda::util::MB;

// Pre-overhaul (commit 9be06f0) seconds per run on this machine.
constexpr double kPreHeavySeconds = 0.0328;
constexpr double kPreGatedSeconds = 0.0043;
constexpr double kPreChurnSeconds = 0.0345;
constexpr double kPreMatrixSeconds = 0.129;

// Expectations the 10% regression gate compares against, in anchor-machine
// seconds (seconds / machine_factor) — the slowest of several runs on this
// machine (the container is shared; best-case runs come in ~35% under
// these). Heavy and matrix were re-recorded (slowest of 13 runs) after the
// bandwidth-cap bisection became Newton-guided; churn runs one thread, whose
// traffic never reaches the cap, so its expectation stays the
// post-overhaul one.
constexpr double kExpectedHeavySeconds = 0.019;
constexpr double kExpectedChurnSeconds = 0.030;
constexpr double kExpectedMatrixSeconds = 0.074;

sim::PhaseProgram make_program(int phases, double flops_per_phase) {
  sim::ProgramBuilder b;
  for (int i = 0; i < phases; ++i) {
    b.period("p", flops_per_phase, MB(2), ReuseLevel::kHigh);
  }
  return b.build();
}

struct EngineRun {
  double seconds = 0.0;
  std::uint64_t sim_steps = 0;
};

EngineRun run_engine(int threads, int phases, double flops_per_phase,
                     bool gate_on, bool fast_path) {
  sim::EngineConfig cfg;
  cfg.machine = sim::MachineConfig::e5_2420();
  sim::Engine engine(cfg);
  std::unique_ptr<core::RdaScheduler> gate;
  if (gate_on) {
    core::RdaOptions options;
    options.policy = core::PolicyKind::kStrict;
    options.fast_path = fast_path;
    gate = std::make_unique<core::RdaScheduler>(
        static_cast<double>(cfg.machine.llc_bytes), cfg.calib, options);
    engine.set_gate(gate.get());
  }
  for (int t = 0; t < threads; ++t) {
    const sim::ProcessId pid = engine.create_process();
    engine.add_thread(pid, make_program(phases, flops_per_phase));
  }
  const auto t0 = std::chrono::steady_clock::now();
  const sim::SimResult result = engine.run();
  EngineRun r;
  r.seconds = std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
  r.sim_steps = result.sim_steps;
  return r;
}

/// Minimum wall seconds (and the step count) over `reps` runs of `fn`.
template <typename Fn>
EngineRun best_of(int reps, Fn&& fn) {
  EngineRun best;
  best.seconds = 1e18;
  for (int i = 0; i < reps; ++i) {
    const EngineRun r = fn();
    if (r.seconds < best.seconds) best = r;
  }
  return best;
}

/// Full-precision serialization of every RunRow field; two matrix runs are
/// "identical" only if these strings match byte for byte.
std::string serialize(const std::vector<exp::RunRow>& rows) {
  std::string out;
  char buf[512];
  for (const exp::RunRow& r : rows) {
    std::snprintf(buf, sizeof(buf),
                  "%s|%s|%.17g|%.17g|%.17g|%.17g|%.17g|%.17g|%llu|%llu|%llu\n",
                  r.workload.c_str(), r.policy.c_str(), r.system_joules,
                  r.dram_joules, r.gflops, r.gflops_per_watt, r.makespan,
                  r.total_flops,
                  static_cast<unsigned long long>(r.gate_blocks),
                  static_cast<unsigned long long>(r.context_switches),
                  static_cast<unsigned long long>(r.migrations));
    out += buf;
  }
  return out;
}

/// The 8-cell quick fig9-style sweep: every Table-2 workload under Strict.
std::vector<exp::RunRow> run_sweep(int jobs) {
  std::vector<workload::WorkloadSpec> specs;
  for (const workload::WorkloadSpec& spec : workload::table2_workloads()) {
    specs.push_back(workload::scale_workload(spec, 0.125, 4));
  }
  exp::RunConfig cfg;
  cfg.engine.machine = sim::MachineConfig::e5_2420();
  cfg.policy = core::PolicyKind::kStrict;
  return exp::run_matrix(specs, {cfg}, jobs);
}

/// validate_cache_model's trace family: hot random working set, optionally
/// interleaved 1:1 with a 12 MB polluter, through the paper's LLC geometry.
double lru_miss_ratio(double ws_mb, bool with_polluter,
                      std::uint32_t set_sample) {
  sim::AssocCacheConfig cfg;
  cfg.capacity_bytes = MB(15);
  cfg.ways = 20;
  cfg.set_sample = set_sample;
  sim::SetAssociativeCache cache(cfg);

  const std::uint64_t lines = MB(ws_mb) / 64;
  const std::uint64_t accesses = 40 * lines;
  trace::RegionSpec spec;
  spec.base = 0;
  spec.size_bytes = MB(ws_mb);
  spec.pattern = trace::Pattern::kRandomUniform;
  spec.access_granularity = 64;
  trace::RegionAccessSource subject(spec, accesses, 11);

  trace::RegionSpec pol;
  pol.base = 1ull << 40;
  pol.size_bytes = MB(12);
  pol.pattern = trace::Pattern::kRandomUniform;
  pol.access_granularity = 64;
  trace::RegionAccessSource polluter(pol, accesses, 12);

  trace::TraceRecord a, b;
  bool more_subject = true, more_polluter = with_polluter;
  while (more_subject || more_polluter) {
    if (more_subject && (more_subject = subject.next(a))) {
      cache.access(a.value, 1);
    }
    if (more_polluter && (more_polluter = polluter.next(b))) {
      cache.access(b.value, 2);
    }
  }
  return cache.owner_stats(1).miss_ratio();
}

}  // namespace

int main(int argc, char** argv) {
  const int reps =
      static_cast<int>(exp::parse_u64_flag(argc, argv, "--reps", 5));
  const int host_cores =
      static_cast<int>(std::thread::hardware_concurrency());
  const int jobs = static_cast<int>(exp::parse_u64_flag(
      argc, argv, "--jobs",
      static_cast<std::uint64_t>(std::min(8, std::max(1, host_cores)))));
  const std::string out_path =
      exp::parse_string_flag(argc, argv, "--out", "BENCH_sim.json");

  // Engine scenarios.
  const EngineRun heavy = best_of(
      reps, [] { return run_engine(48, 16, 2e8, false, false); });
  const EngineRun gated = best_of(
      reps, [] { return run_engine(48, 16, 2e8, true, false); });
  const EngineRun churn = best_of(
      reps, [] { return run_engine(1, 60000, 1e5, true, true); });
  const double heavy_ns_per_step =
      heavy.sim_steps > 0
          ? heavy.seconds * 1e9 / static_cast<double>(heavy.sim_steps)
          : 0.0;

  // Matrix sweep: --jobs 1 vs --jobs J, byte-identical outputs required.
  double matrix_j1 = 1e18, matrix_jn = 1e18;
  std::string rows_j1, rows_jn;
  for (int i = 0; i < std::max(reps / 2, 2); ++i) {
    auto t0 = std::chrono::steady_clock::now();
    const std::vector<exp::RunRow> r1 = run_sweep(1);
    matrix_j1 = std::min(
        matrix_j1, std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count());
    t0 = std::chrono::steady_clock::now();
    const std::vector<exp::RunRow> rn = run_sweep(jobs);
    matrix_jn = std::min(
        matrix_jn, std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count());
    rows_j1 = serialize(r1);
    rows_jn = serialize(rn);
  }
  const bool matrix_identical = rows_j1 == rows_jn;
  const double matrix_speedup = matrix_jn > 0.0 ? matrix_j1 / matrix_jn : 0.0;

  // Set sampling accuracy (K=16) on the validation trace family.
  constexpr std::uint32_t kSample = 16;
  double sampled_max_err = 0.0;
  for (const double ws : {4.0, 12.0, 20.0}) {
    for (const bool polluted : {false, true}) {
      const double full = lru_miss_ratio(ws, polluted, 1);
      const double sampled = lru_miss_ratio(ws, polluted, kSample);
      sampled_max_err =
          std::max(sampled_max_err, std::abs(sampled - full));
    }
  }

  // The expectations were recorded on this container at its anchor speed;
  // the shared calibration kernel (see bench/calib.hpp) tracks how much
  // slower the machine itself is running today, and only slowdowns are
  // corrected — a faster host just passes with more headroom.
  double calib_ns = 1e18;
  for (int i = 0; i < 3; ++i) {
    calib_ns = std::min(calib_ns, rda::bench::bench_calibration());
  }
  const double machine_factor =
      std::max(1.0, calib_ns / rda::bench::kCalibBaselineNs);
  const double heavy_vs_expected =
      heavy.seconds / kExpectedHeavySeconds / machine_factor;
  const double churn_vs_expected =
      churn.seconds / kExpectedChurnSeconds / machine_factor;
  const double matrix_vs_expected =
      matrix_j1 / kExpectedMatrixSeconds / machine_factor;

  std::printf("heavy (48x16x200MFLOP):  %.4f s  (%.0f ns/step, pre-overhaul "
              "%.4f s, %.2fx faster)\n",
              heavy.seconds, heavy_ns_per_step, kPreHeavySeconds,
              kPreHeavySeconds / heavy.seconds);
  std::printf("gated (RDA:Strict):      %.4f s  (pre-overhaul %.4f s, %.2fx "
              "faster)\n",
              gated.seconds, kPreGatedSeconds,
              kPreGatedSeconds / gated.seconds);
  std::printf("churn (60k tiny phases): %.4f s  (pre-overhaul %.4f s, %.2fx "
              "faster)\n",
              churn.seconds, kPreChurnSeconds,
              kPreChurnSeconds / churn.seconds);
  std::printf("matrix jobs=1:           %.4f s  (pre-overhaul %.4f s, %.2fx "
              "faster)\n",
              matrix_j1, kPreMatrixSeconds, kPreMatrixSeconds / matrix_j1);
  std::printf("matrix jobs=%d:           %.4f s  (%.2fx vs jobs=1, %d host "
              "cores, outputs %s)\n",
              jobs, matrix_jn, matrix_speedup, host_cores,
              matrix_identical ? "identical" : "DIFFER");
  std::printf("set sampling (K=%u):     max |miss-ratio err| %.4f\n", kSample,
              sampled_max_err);
  std::printf("calibration kernel:      %.1f ns (anchor %.0f ns, machine "
              "%.2fx)\n",
              calib_ns, rda::bench::kCalibBaselineNs, machine_factor);

  char json[1536];
  std::snprintf(
        json, sizeof(json),
        "{\n"
        "  \"reps\": %d,\n"
        "  \"host_cores\": %d,\n"
        "  \"jobs\": %d,\n"
        "  \"heavy_seconds\": %.5f,\n"
        "  \"heavy_ns_per_step\": %.1f,\n"
        "  \"heavy_sim_steps\": %llu,\n"
        "  \"gated_seconds\": %.5f,\n"
        "  \"churn_seconds\": %.5f,\n"
        "  \"matrix_jobs1_seconds\": %.5f,\n"
        "  \"matrix_jobsN_seconds\": %.5f,\n"
        "  \"matrix_speedup\": %.3f,\n"
        "  \"matrix_identical\": %s,\n"
        "  \"sampled_sets_k\": %u,\n"
        "  \"sampled_max_abs_miss_err\": %.5f,\n"
        "  \"pre_overhaul_heavy_seconds\": %.4f,\n"
        "  \"pre_overhaul_gated_seconds\": %.4f,\n"
        "  \"pre_overhaul_churn_seconds\": %.4f,\n"
        "  \"pre_overhaul_matrix_seconds\": %.4f,\n"
        "  \"heavy_speedup_vs_pre\": %.3f,\n"
        "  \"matrix_speedup_vs_pre\": %.3f,\n"
        "  \"calib_ns\": %.2f,\n"
        "  \"machine_factor\": %.4f,\n"
        "  \"heavy_vs_expected\": %.4f,\n"
        "  \"churn_vs_expected\": %.4f,\n"
        "  \"matrix_vs_expected\": %.4f\n"
        "}\n",
        reps, host_cores, jobs, heavy.seconds, heavy_ns_per_step,
        static_cast<unsigned long long>(heavy.sim_steps), gated.seconds,
        churn.seconds, matrix_j1, matrix_jn, matrix_speedup,
        matrix_identical ? "true" : "false", kSample, sampled_max_err,
        kPreHeavySeconds, kPreGatedSeconds, kPreChurnSeconds,
        kPreMatrixSeconds, kPreHeavySeconds / heavy.seconds,
        kPreMatrixSeconds / matrix_j1, calib_ns, machine_factor,
        heavy_vs_expected, churn_vs_expected, matrix_vs_expected);
  try {
    rda::util::write_file_atomic(out_path, json);
    std::printf("wrote %s\n", out_path.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "warning: %s\n", e.what());
  }

  bool ok = true;
  if (!matrix_identical) {
    std::fprintf(stderr, "FAIL: matrix output differs between jobs=1 and "
                         "jobs=%d\n", jobs);
    ok = false;
  }
  if (sampled_max_err > 0.02) {
    std::fprintf(stderr, "FAIL: sampled miss-ratio error %.4f > 0.02\n",
                 sampled_max_err);
    ok = false;
  }
  if (heavy_vs_expected > 1.10 || churn_vs_expected > 1.10 ||
      matrix_vs_expected > 1.10) {
    std::fprintf(stderr,
                 "FAIL: hot-path regression >10%% vs recorded expectation "
                 "(heavy %.2fx, churn %.2fx, matrix %.2fx, "
                 "machine-adjusted)\n",
                 heavy_vs_expected, churn_vs_expected, matrix_vs_expected);
    ok = false;
  }
  // The parallel target (>=3x at 8 jobs) needs cores to scale onto; only
  // gate it where the hardware can express it.
  if (host_cores >= 8 && jobs >= 8 && matrix_speedup < 3.0) {
    std::fprintf(stderr, "FAIL: matrix speedup %.2fx < 3x at %d jobs on %d "
                         "cores\n", matrix_speedup, jobs, host_cores);
    ok = false;
  }
  return ok ? 0 : 1;
}
