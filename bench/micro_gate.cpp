// micro_gate — native admission-gate overhead benchmark: the cost the
// pp_begin/pp_end API adds around a real progress period, before/after the
// AdmissionCore refactor.
//
//   micro_gate [--iters N] [--threads T] [--out BENCH_gate.json]
//
// Reports, and emits as JSON for trend tracking:
//   * uncontended begin/end round-trip latency (the calm lock-free lane,
//     the native counterpart of Fig. 11's fast-path series),
//   * try_begin latency when the request is always denied (predicate +
//     withdrawal, never blocks),
//   * T-thread contended round-trip throughput (within capacity, so the
//     mutex — not the waitlist — is the bottleneck),
//   * the ratio against the pre-refactor uncontended baseline, captured
//     on this machine before RdaScheduler/AdmissionGate were rebuilt as
//     adapters over AdmissionCore. Acceptance gate: within 10% after
//     normalizing by a fixed calibration kernel that tracks how fast the
//     machine itself is running today (see kCalibBaselineNs).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "calib.hpp"
#include "exp/harness.hpp"
#include "runtime/gate.hpp"
#include "util/atomic_file.hpp"
#include "util/units.hpp"

namespace {

using namespace rda;
using rda::bench::bench_calibration;
using rda::bench::kCalibBaselineNs;
using rda::bench::ns_since;
using rda::util::MB;

/// Uncontended begin/end latency measured by google-benchmark at commit
/// 4cc6d69, when the gate still owned its registry/predicate/waitlist
/// directly (CPU time was 185 ns; wall 189 ns).
constexpr double kPreRefactorUncontendedNs = 189.0;

rt::GateConfig config(core::PolicyKind policy) {
  rt::GateConfig cfg;
  cfg.llc_capacity_bytes = static_cast<double>(MB(15));
  cfg.policy = policy;
  return cfg;
}

/// Uncontended begin/end round trip (always admitted). Measured as the
/// minimum over many small chunks: the round trip is ~200 ns, so one
/// migration or frequency dip poisons a single long average, while the
/// best chunk reflects the sustained hot-path cost.
double bench_uncontended(std::uint64_t iters) {
  rt::AdmissionGate gate(config(core::PolicyKind::kStrict));
  // Warm up.
  for (int i = 0; i < 1000; ++i) {
    gate.end(gate.begin(ResourceKind::kLLC, static_cast<double>(MB(1)),
                        ReuseLevel::kHigh));
  }
  const std::uint64_t chunk = std::max<std::uint64_t>(iters / 32, 1);
  double best = 1e18;
  for (std::uint64_t done = 0; done < iters; done += chunk) {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < chunk; ++i) {
      gate.end(gate.begin(ResourceKind::kLLC, static_cast<double>(MB(1)),
                          ReuseLevel::kHigh));
    }
    best = std::min(best, ns_since(t0, chunk));
  }
  return best;
}

/// try_begin when the request never fits (pure predicate + withdrawal). A
/// second thread must hold the blocking period (one active per thread).
double bench_try_denied(std::uint64_t iters) {
  rt::AdmissionGate gate(config(core::PolicyKind::kStrict));
  std::promise<void> hold, release;
  std::thread holder([&] {
    const auto id = gate.begin(ResourceKind::kLLC,
                               static_cast<double>(MB(12)), ReuseLevel::kHigh);
    hold.set_value();
    release.get_future().wait();
    gate.end(id);
  });
  hold.get_future().wait();
  const std::uint64_t chunk = std::max<std::uint64_t>(iters / 32, 1);
  double best = 1e18;
  for (std::uint64_t done = 0; done < iters; done += chunk) {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < chunk; ++i) {
      auto denied = gate.try_begin(ResourceKind::kLLC,
                                   static_cast<double>(MB(8)),
                                   ReuseLevel::kHigh);
      if (denied.has_value()) {
        std::fprintf(stderr, "unexpected admission in denied bench\n");
        std::exit(1);
      }
    }
    best = std::min(best, ns_since(t0, chunk));
  }
  release.set_value();
  holder.join();
  return best;
}

rt::GateConfig multi_config(core::PolicyKind policy) {
  rt::GateConfig cfg = config(policy);
  cfg.bandwidth_capacity = 30e9;       // bytes/s, e5_2420 DRAM
  cfg.energy_capacity_watts = 100.0;   // ample: measures the path, not waits
  return cfg;
}

/// Uncontended THREE-demand begin_multi/end round trip (LLC + bandwidth +
/// energy, always admitted): the vector-demand overhead on top of the
/// scalar path above.
double bench_multi_uncontended(std::uint64_t iters) {
  rt::AdmissionGate gate(multi_config(core::PolicyKind::kStrict));
  const std::vector<core::ResourceDemand> demands = {
      {ResourceKind::kLLC, static_cast<double>(MB(1))},
      {ResourceKind::kMemBandwidth, 1e9},
      {ResourceKind::kEnergyBudget, 5.0}};
  for (int i = 0; i < 1000; ++i) {
    gate.end(gate.begin_multi(demands, ReuseLevel::kHigh));
  }
  const std::uint64_t chunk = std::max<std::uint64_t>(iters / 32, 1);
  double best = 1e18;
  for (std::uint64_t done = 0; done < iters; done += chunk) {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < chunk; ++i) {
      gate.end(gate.begin_multi(demands, ReuseLevel::kHigh));
    }
    best = std::min(best, ns_since(t0, chunk));
  }
  return best;
}

/// T-thread contended three-demand round trips, all within every budget
/// (T x {1 MB, 1 GB/s, 5 W} against {15 MB, 30 GB/s, 100 W}): lock and
/// budget-stripe contention on the vector path, not waiting.
double bench_multi_contended(std::uint64_t iters_per_thread, int threads) {
  rt::AdmissionGate gate(multi_config(core::PolicyKind::kCompromise));
  std::vector<std::thread> workers;
  const auto t0 = std::chrono::steady_clock::now();
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&gate, iters_per_thread] {
      const std::vector<core::ResourceDemand> demands = {
          {ResourceKind::kLLC, static_cast<double>(MB(1))},
          {ResourceKind::kMemBandwidth, 1e9},
          {ResourceKind::kEnergyBudget, 5.0}};
      for (std::uint64_t i = 0; i < iters_per_thread; ++i) {
        gate.end(gate.begin_multi(demands, ReuseLevel::kHigh));
      }
    });
  }
  for (auto& w : workers) w.join();
  return ns_since(t0, iters_per_thread * static_cast<std::uint64_t>(threads));
}

/// T-thread contended round trips, all within capacity (1 MB each on a
/// 15 MB cache under Compromise): measures lock contention, not waiting.
double bench_contended(std::uint64_t iters_per_thread, int threads) {
  rt::AdmissionGate gate(config(core::PolicyKind::kCompromise));
  std::vector<std::thread> workers;
  const auto t0 = std::chrono::steady_clock::now();
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&gate, iters_per_thread] {
      for (std::uint64_t i = 0; i < iters_per_thread; ++i) {
        gate.end(gate.begin(ResourceKind::kLLC, static_cast<double>(MB(1)),
                            ReuseLevel::kHigh));
      }
    });
  }
  for (auto& w : workers) w.join();
  return ns_since(t0, iters_per_thread * static_cast<std::uint64_t>(threads));
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t iters = exp::parse_u64_flag(argc, argv, "--iters",
                                                  2'000'000);
  const int threads =
      static_cast<int>(exp::parse_u64_flag(argc, argv, "--threads", 8));
  const std::string out_path =
      exp::parse_string_flag(argc, argv, "--out", "BENCH_gate.json");

  // Best of 5 per point, with a short quiesce before each rep: the gate
  // path is ~200 ns, so a stray scheduler tick or a post-load frequency
  // dip poisons any single run. The min is the sustained hot-path cost.
  auto best5 = [](auto&& fn) {
    double best = 1e18;
    for (int i = 0; i < 5; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
      best = std::min(best, fn());
    }
    return best;
  };

  const double calib_ns = best5([] { return bench_calibration(); });
  // Never scale the baseline DOWN: a faster-than-anchor machine just makes
  // the gate easier to pass, which is fine; only slowdowns are corrected.
  const double machine_factor = std::max(1.0, calib_ns / kCalibBaselineNs);

  const double uncontended_ns =
      best5([&] { return bench_uncontended(iters); });
  const double try_denied_ns = best5([&] { return bench_try_denied(iters); });
  const double multi_uncontended_ns =
      best5([&] { return bench_multi_uncontended(iters); });
  const double contended_ns = best5(
      [&] { return bench_contended(iters / 4, threads); });
  const double contended_mops = 1e3 / contended_ns;
  const double multi_contended_ns =
      best5([&] { return bench_multi_contended(iters / 4, threads); });
  const double multi_contended_mops = 1e3 / multi_contended_ns;
  const double vs_baseline = uncontended_ns / kPreRefactorUncontendedNs;
  const double vs_baseline_adj = vs_baseline / machine_factor;

  // Fixed 16-thread point for the sharded-core scaling gate. Only
  // meaningful with 16 real cores: on smaller hosts the threads time-slice
  // one another and the number measures the OS scheduler, so it is skipped
  // (tier1.sh applies the same guard before comparing it).
  const unsigned cores = std::thread::hardware_concurrency();
  double contended_mops_16 = 0.0;
  if (cores >= 16) {
    const double ns16 =
        best5([&] { return bench_contended(iters / 8, 16); });
    contended_mops_16 = 1e3 / ns16;
  }

  std::printf("calibration kernel:    %.1f ns (anchor %.0f ns, machine %.2fx)\n",
              calib_ns, kCalibBaselineNs, machine_factor);
  std::printf(
      "uncontended begin/end: %.1f ns (baseline %.0f ns, %.2fx raw, "
      "%.2fx machine-adjusted)\n",
      uncontended_ns, kPreRefactorUncontendedNs, vs_baseline, vs_baseline_adj);
  std::printf("try_begin denied:      %.1f ns\n", try_denied_ns);
  std::printf("3-demand begin/end:    %.1f ns (%.2fx the scalar path)\n",
              multi_uncontended_ns, multi_uncontended_ns / uncontended_ns);
  std::printf("%d-thread contended:    %.1f ns/op (%.2f Mops/s aggregate)\n",
              threads, contended_ns, contended_mops);
  std::printf("%d-thread 3-demand:     %.1f ns/op (%.2f Mops/s aggregate)\n",
              threads, multi_contended_ns, multi_contended_mops);
  if (cores >= 16) {
    std::printf("16-thread contended:   %.2f Mops/s aggregate\n",
                contended_mops_16);
  } else {
    std::printf("16-thread contended:   skipped (%u hardware threads)\n",
                cores);
  }

  // A skipped metric names its reason instead of silently reading as a
  // mysterious null (tier1.sh surfaces the reason when it skips the gate).
  char mops16[192];
  if (cores >= 16) {
    std::snprintf(mops16, sizeof(mops16), "%.3f", contended_mops_16);
  } else {
    std::snprintf(mops16, sizeof(mops16),
                  "null,\n  \"contended_mops_16_skipped\": "
                  "\"%u hardware threads (<16): the point would measure the "
                  "OS scheduler, not the gate\"",
                  cores);
  }
  char json[1536];
  std::snprintf(json, sizeof(json),
                "{\n"
                "  \"iters\": %llu,\n"
                "  \"threads\": %d,\n"
                "  \"calib_ns\": %.2f,\n"
                "  \"machine_factor\": %.4f,\n"
                "  \"uncontended_ns\": %.2f,\n"
                "  \"try_denied_ns\": %.2f,\n"
                "  \"multi_uncontended_ns\": %.2f,\n"
                "  \"contended_ns_per_op\": %.2f,\n"
                "  \"contended_mops\": %.3f,\n"
                "  \"multi_contended_mops\": %.3f,\n"
                "  \"contended_mops_16\": %s,\n"
                "  \"pre_refactor_uncontended_ns\": %.1f,\n"
                "  \"uncontended_vs_baseline\": %.4f,\n"
                "  \"uncontended_vs_baseline_adj\": %.4f\n"
                "}\n",
                static_cast<unsigned long long>(iters), threads, calib_ns,
                machine_factor, uncontended_ns, try_denied_ns,
                multi_uncontended_ns, contended_ns, contended_mops,
                multi_contended_mops, mops16, kPreRefactorUncontendedNs,
                vs_baseline, vs_baseline_adj);
  try {
    rda::util::write_file_atomic(out_path, json);
    std::printf("wrote %s\n", out_path.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "warning: %s\n", e.what());
  }
  // The refactor must not regress the hot path by more than 10% once
  // machine drift is factored out (see kCalibBaselineNs).
  return vs_baseline_adj <= 1.10 ? 0 : 1;
}
