// Multi-resource periods on the native gate: streaming kernels declare both
// an LLC footprint AND a DRAM-bandwidth appetite, and the gate admits only
// as many concurrent streams as the memory system can serve.
//
// This is the extension that fixes the paper's one losing case (BLAS-1):
// LLC-only admission cannot see that streams fight over bandwidth, so it
// happily co-schedules all of them.
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "blas/level1.hpp"
#include "runtime/affinity.hpp"
#include "runtime/gate.hpp"
#include "util/units.hpp"

using namespace rda;
using rda::util::MB;

namespace {

constexpr int kStreams = 8;
constexpr std::size_t kVector = 4u << 20;  // 32 MB per operand: streams DRAM
constexpr int kPassesPerStream = 4;

double run(bool gate_bandwidth) {
  rt::GateConfig cfg;
  cfg.llc_capacity_bytes =
      static_cast<double>(rt::detect_llc_bytes().value_or(MB(15)));
  // Assume a 20 GB/s budget; each daxpy pass over 2x32 MB operands streams
  // ~24 bytes/flop-pair, so declare ~8 GB/s per stream.
  cfg.bandwidth_capacity = gate_bandwidth ? 20e9 : 0.0;
  cfg.policy = core::PolicyKind::kStrict;
  rt::AdmissionGate gate(cfg);

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  for (int w = 0; w < kStreams; ++w) {
    workers.emplace_back([&, w] {
      std::vector<double> x(kVector, 1.0 + w), y(kVector, 0.5);
      for (int pass = 0; pass < kPassesPerStream; ++pass) {
        core::PeriodId id;
        if (gate_bandwidth) {
          const core::ResourceDemand demands[] = {
              {ResourceKind::kLLC, static_cast<double>(MB(0.6))},
              {ResourceKind::kMemBandwidth, 8e9}};
          id = gate.begin_multi(demands, ReuseLevel::kLow, "daxpy");
        } else {
          id = gate.begin(ResourceKind::kLLC, static_cast<double>(MB(0.6)),
                          ReuseLevel::kLow, "daxpy");
        }
        blas::daxpy(1.0001, x, y);
        gate.end(id);
      }
    });
  }
  for (auto& t : workers) t.join();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const rt::GateStats stats = gate.stats();
  std::printf("    %llu begins, %llu waits (%.1f ms waiting)\n",
              static_cast<unsigned long long>(stats.monitor.begins),
              static_cast<unsigned long long>(stats.waits),
              1e3 * stats.total_wait_seconds);
  return seconds;
}

}  // namespace

int main() {
  const double flops =
      blas::daxpy_flops(kVector) * kStreams * kPassesPerStream;
  std::printf("%d daxpy streams x %d passes over %.0f MB operands\n\n",
              kStreams, kPassesPerStream,
              util::bytes_to_mb(kVector * sizeof(double)));

  std::printf("  LLC-only gating (paper behaviour):\n");
  const double plain = run(false);
  std::printf("    %.3f s, %.2f GFLOPS aggregate\n\n", plain,
              flops / plain / 1e9);

  std::printf("  LLC + bandwidth gating (extension, <=2 streams at once):\n");
  const double gated = run(true);
  std::printf("    %.3f s, %.2f GFLOPS aggregate\n\n", gated,
              flops / gated / 1e9);

  std::printf("on a bandwidth-starved machine the gated run matches the "
              "ungated throughput while keeping surplus cores free (in the "
              "simulator: ~40%% energy saving — see bench/ablate_bandwidth)."
              "\n");
  return 0;
}
