// Calibration constants for the performance and energy models.
//
// Every constant that turns the machine description into Joules and GFLOPS
// lives here, with its justification. Absolute values are engineering
// estimates for the paper's Xeon E5-2420 class of machine; the reproduction
// claims *shapes* (who wins, where the crossovers are), and the calibration
// test (tests/sim/calibration_test.cpp) pins those shapes:
//   * a high-reuse phase whose working set is fully evicted runs ~2-3x
//     slower than when resident (the paper's max observed speedup is 1.88x),
//   * a low-reuse (streaming) phase is barely sensitive to residency,
//   * oversubscribed DRAM bandwidth caps aggregate throughput (Fig. 13's
//     plateau from 6 to 12 instances at the largest input).
#pragma once

#include "common/types.hpp"
#include "util/units.hpp"

namespace rda::sim {

struct Calibration {
  // --- performance ----------------------------------------------------------

  /// Attained flops/s of one core on cache-resident dense kernels. The
  /// paper's Fig. 13 shows ~33 GFLOPS aggregate for 6 fitting instances,
  /// i.e. ~5.5 GFLOPS per core on SSE/AVX double-precision code.
  double core_flops = 5.5e9;

  /// Effective stall per LLC miss, seconds. Raw DDR3 latency is ~60-80 ns;
  /// out-of-order overlap and prefetching hide most of it on dense kernels,
  /// leaving ~8 ns of exposed stall per missing line.
  double miss_stall = util::ns(8);

  /// Cache line size — the granularity of LLC fills and DRAM transfers.
  double line_bytes = 64.0;

  /// Misses per flop that happen regardless of LLC residency (compulsory /
  /// streaming traffic). daxpy moves ~12 bytes per flop (~0.19 lines);
  /// blocked dgemm (n^3 flops over n^2 data) moves almost nothing once
  /// resident.
  double stream_misses_per_flop(ReuseLevel r) const {
    switch (r) {
      case ReuseLevel::kLow: return 0.19;
      case ReuseLevel::kMedium: return 0.030;
      case ReuseLevel::kHigh: return 0.001;
    }
    return 0.0;
  }

  /// Additional misses per flop when the working set is NOT resident,
  /// scaled by (1 - resident_fraction). Sized so a fully-evicted high-reuse
  /// phase runs ~3.5x slower than a resident one — a cache-blocked dgemm
  /// that streams everything from DRAM realistically loses 3-5x. Together
  /// with the DRAM bandwidth cap this reproduces the paper's workload-level
  /// speedups (max 1.88x), which aggregate many partially-evicted threads.
  double reuse_misses_per_flop(ReuseLevel r) const {
    switch (r) {
      case ReuseLevel::kLow: return 0.002;
      case ReuseLevel::kMedium: return 0.025;
      case ReuseLevel::kHigh: return 0.060;
    }
    return 0.0;
  }

  /// How fast a running phase re-populates the LLC, as a multiple of its
  /// DRAM fill traffic (1.0 = every fetched line becomes resident).
  double fill_efficiency = 1.0;

  // --- scheduling costs ------------------------------------------------------

  /// CFS default-ish timeslice.
  double quantum = util::ms(6);
  /// Direct cost of a context switch (register/TLB/pipeline), charged to the
  /// incoming thread. Cache refill costs emerge from the occupancy model.
  double context_switch_cost = util::us(3);
  /// Extra cost when a thread migrates to a different core (per-core
  /// runqueue mode): cold private caches + runqueue locking.
  double migration_cost = util::us(10);
  /// Cost of one pp_begin/pp_end call through the kernel extension
  /// (syscall + wait-queue bookkeeping + possible reschedule). Calibrated
  /// against the paper's Fig. 11: 512 middle-loop periods (1024 calls) on a
  /// ~49 ms dgemm → ~19% overhead.
  double api_call_cost = util::us(9);
  /// Cost of an API call the calm lock-free lane serves (a budget CAS and a
  /// registry-shard insert or remove, no kernel entry); charged only when
  /// RdaOptions::fast_path selects this cost model. Calibrated against
  /// Fig. 11's inner-loop point: 524288 calls → ~59% overhead on the same
  /// dgemm. A fit to the paper, not a measurement: the native calm call
  /// costs ~171 ns (DESIGN §4 explains the gap).
  double api_fast_path_cost = util::ns(55);

  // --- energy ----------------------------------------------------------------

  /// Package power of one active core (dynamic + its share of static).
  double core_active_power = 6.0;  // W
  /// Same core clock-gated on the idle loop.
  double core_idle_power = 0.8;  // W
  /// Uncore (LLC, ring, memory controller) static power.
  double uncore_power = 12.0;  // W
  /// DRAM background (refresh, PLL) power.
  double dram_static_power = 4.0;  // W
  /// DRAM access energy per byte transferred (activation+IO at typical row
  /// locality, DDR3 class).
  double dram_energy_per_byte = 0.15e-9;  // J/B

  // --- derived ---------------------------------------------------------------

  double flop_time() const { return 1.0 / core_flops; }
};

}  // namespace rda::sim
