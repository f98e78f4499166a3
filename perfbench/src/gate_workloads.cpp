// gate_calm and gate_overcommit: closed loops of pp_begin/pp_end on one
// native admission gate, one loop per thread.
#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "api/pp.hpp"
#include "core/admission.hpp"
#include "core/resource_monitor.hpp"
#include "core/sharding.hpp"
#include "obs/reconcile.hpp"
#include "obs/sink.hpp"
#include "runtime/gate.hpp"
#include "spans.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using rda::ResourceKind;
using rda::ReuseLevel;
namespace core = rda::core;
namespace rt = rda::rt;

constexpr double kLlcBytes = 15360.0 * 1024.0;  // paper Table 1 LLC
constexpr double kBandwidth = 10.0e9;           // gate_overcommit DRAM B/s
constexpr std::size_t kStream = 4096;           // demands per thread (2^k)
constexpr std::uint64_t kBatch = 64;            // periods between stop polls
constexpr std::uint64_t kNoLimit = ~std::uint64_t{0};
/// CPU-bound body of an overcommit period (a few microseconds).
constexpr std::uint64_t kBodyIters = 12000;

/// One CPU is left to the rest of the system: with every vCPU busy, any
/// other activity preempts a loop thread and the figures spread twice as
/// wide between runs.
int gate_threads() { return std::clamp(available_cpus() - 1, 1, 4); }

rda::util::Rng thread_rng(std::uint64_t seed, int thread) {
  return rda::util::Rng(seed * 0x9E3779B97F4A7C15ull +
                        static_cast<std::uint64_t>(thread) + 1);
}

double elapsed_s(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

struct ThreadResult {
  Histogram latency;           ///< ns per period (or per-period batch mean)
  Histogram handoff;           ///< kWake stamp → woken begin returned, ns
  std::uint64_t periods = 0;
  double seconds = 0.0;
  double held_byte_seconds = 0.0;  ///< Σ admitted LLC bytes × hold time
  double sink = 0.0;               ///< keeps the CPU-bound body alive
  Histogram ref;                   ///< ns per reference run (see Sliced)
  double side_ns = 0.0;            ///< time outside periods, not in the rate
  std::string error;
};

/// Runs `body(thread, stop, result)` on `threads` threads, released
/// together; stops them after `seconds` (<= 0: when every body returns).
std::vector<ThreadResult> run_threads(
    int threads, double seconds,
    const std::function<void(int, const std::atomic<bool>&, ThreadResult&)>&
        body) {
  std::vector<ThreadResult> results(static_cast<std::size_t>(threads));
  const std::vector<int> cpus = allowed_cpus();
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::atomic<int> ready{0};
  std::vector<std::thread> pool;
  pool.reserve(results.size());
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      // Filled on this thread's own stack and heap, then moved out: results
      // written in place would share cache lines between threads.
      ThreadResult r;
      unpin(cpus);  // the creating thread may be pinned (measure_setup)
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      const Clock::time_point start = Clock::now();
      try {
        body(t, stop, r);
      } catch (const std::exception& e) {
        r.error = e.what();
        stop.store(true);
      }
      r.seconds = elapsed_s(start);
      results[static_cast<std::size_t>(t)] = std::move(r);
    });
  }
  while (ready.load() < threads) std::this_thread::yield();
  go.store(true);
  if (seconds > 0.0) {
    const Clock::time_point until =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    while (!stop.load() && Clock::now() < until) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    stop.store(true);
  }
  for (std::thread& th : pool) th.join();
  return results;
}

struct Totals {
  Histogram latency;
  Histogram handoff;
  std::uint64_t periods = 0;
  double periods_per_s = 0.0;
  double wall_s = 0.0;  ///< mean per-thread measured time
  double held_byte_seconds = 0.0;
};

Totals totals(const std::vector<ThreadResult>& results, Report& report) {
  Totals t;
  for (const ThreadResult& r : results) {
    report.check(r.error.empty(), "gate thread finished cleanly: " + r.error);
    t.latency.merge(r.latency);
    t.handoff.merge(r.handoff);
    t.periods += r.periods;
    if (r.seconds > 0.0) {
      t.periods_per_s += static_cast<double>(r.periods) / r.seconds;
    }
    t.wall_s += r.seconds / static_cast<double>(results.size());
    t.held_byte_seconds += r.held_byte_seconds;
  }
  return t;
}

/// Reference kernel run after every kBatch timed periods on the same
/// thread: four rounds of an uncontended mutex, a hash-map insert and erase
/// of a heap-allocated one-element vector, and an atomic increment, all
/// private to the thread. That is the mix of work a calm begin + end does,
/// but none of the program's code. It runs on the loop thread's vCPU at the
/// same moment as the periods around it, so its time tracks how fast that
/// vCPU does this kind of work right now; the per-thread figures are scaled
/// by it (see Sliced).
struct RefKernel {
  std::mutex mu;
  std::unordered_map<std::uint64_t, std::vector<double>> map;
  std::atomic<std::uint64_t> counter{0};
  std::uint64_t key = 0;
  double run() {
    double x = 0.0;
    for (int i = 0; i < 4; ++i) {
      std::lock_guard<std::mutex> lock(mu);
      ++key;
      const auto it =
          map.emplace(key, std::vector<double>(1, static_cast<double>(key))).first;
      counter.fetch_add(1, std::memory_order_relaxed);
      x += it->second.front();
      map.erase(it);
    }
    return x;
  }
};

/// Loops `op(i)` (one begin + end of the thread's i-th demand) until stopped
/// or `limit` periods ran. per_op times every period and runs the reference
/// kernel after each batch; otherwise each batch of kBatch periods is timed
/// and its mean recorded, which keeps clock reads out of the per-layer
/// figures.
template <typename Op>
void timed_loop(const std::atomic<bool>& stop, std::uint64_t limit,
                bool per_op, ThreadResult& r, Op&& op) {
  std::uint64_t i = 0;
  RefKernel ref;
  while (!stop.load(std::memory_order_relaxed) && r.periods < limit) {
    if (per_op) {
      for (std::uint64_t k = 0; k < kBatch; ++k, ++i) {
        const Clock::time_point t0 = Clock::now();
        op(i);
        r.latency.add(static_cast<double>(to_ns(Clock::now() - t0)));
      }
      const Clock::time_point q0 = Clock::now();
      r.sink += ref.run();
      const double q_ns = static_cast<double>(to_ns(Clock::now() - q0));
      r.ref.add(q_ns);
      r.side_ns += q_ns;
    } else {
      const Clock::time_point t0 = Clock::now();
      for (std::uint64_t k = 0; k < kBatch; ++k, ++i) op(i);
      r.latency.add(static_cast<double>(to_ns(Clock::now() - t0)) /
                    static_cast<double>(kBatch));
    }
    r.periods += kBatch;
  }
}

/// A closed-loop measurement cut into short slices, each on freshly started
/// threads, so the scheduler's placement of the threads on the vCPUs is
/// drawn anew per slice. Per thread, the figures are scaled by the thread's
/// reference runs: the reference kernel on gate_calm, the period body on
/// gate_overcommit (its waits are other threads' bodies). The rate is
/// multiplied and the p50 divided by their mean time over the nominal mean,
/// and the tail divided by their time at the same percentile over the
/// nominal tail. The vCPUs of a shared host speed up and slow down with
/// their neighbours' load, which this cancels. The figures are then summed
/// (rate) or averaged (latencies) over the threads. The gated figures are
/// medians over the slices.
struct Nominal {
  double mean_ns;  ///< about the reference's mean time on a 4-vCPU Xeon VM
  double tail_ns;  ///< the same for its p99
};

struct Sliced {
  Totals raw;  ///< every slice merged, not scaled
  double periods_per_s = 0.0;
  double p50_ns = 0.0;
  double tail_ns = 0.0;
};

constexpr double kSliceSeconds = 0.2;

Sliced measure_sliced(
    int threads, double seconds,
    const std::function<void(int, const std::atomic<bool>&, ThreadResult&)>&
        body,
    const Nominal& nominal, Report& report) {
  const int slices =
      std::max(1, static_cast<int>(std::lround(seconds / kSliceSeconds)));
  Sliced out;
  std::vector<double> rate, p50, tail;
  for (int slice = 0; slice < slices; ++slice) {
    const std::vector<ThreadResult> results =
        run_threads(threads, seconds / slices, body);
    double slice_rate = 0.0, slice_p50 = 0.0, slice_tail = 0.0;
    for (const ThreadResult& r : results) {
      const Timing api = summarize(r.latency, kGatedLadder);
      double f = 1.0, ft = 1.0;
      if (r.ref.count() > 0) {
        f = r.ref.mean() / nominal.mean_ns;
        const double p =
            std::min(api.tail_p, tail_percentile(r.ref.count(), kGatedLadder));
        ft = r.ref.quantile(p / 100.0) / nominal.tail_ns;
      }
      const double busy = r.seconds - 1e-9 * r.side_ns;
      if (busy > 0.0) slice_rate += static_cast<double>(r.periods) / busy * f;
      slice_p50 += api.p50 / f / static_cast<double>(results.size());
      slice_tail += api.tail / ft / static_cast<double>(results.size());
    }
    rate.push_back(slice_rate);
    p50.push_back(slice_p50);
    tail.push_back(slice_tail);
    const Totals t = totals(results, report);
    out.raw.latency.merge(t.latency);
    out.raw.periods += t.periods;
    out.raw.wall_s += t.wall_s;
    out.raw.held_byte_seconds += t.held_byte_seconds;
  }
  out.periods_per_s = median(rate);
  out.p50_ns = median(p50);
  out.tail_ns = median(tail);
  return out;
}

/// The end-to-end metrics every gate workload reports.
void report_gate_e2e(Report& report, double setup_s, const Sliced& m) {
  report.metric("setup_s", setup_s, "s");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  report.metric("throughput_per_s", m.periods_per_s, "1/s");
  report.metric("latency_p50_us", m.p50_ns / 1e3, "us");
  report.metric("latency_tail_us", m.tail_ns / 1e3, "us");
  report.line("per-workload metrics (all slices together):");
  report.info("periods_per_s", static_cast<double>(m.raw.periods) / m.raw.wall_s,
              "1/s", m.raw.periods);
  report.timing("api_ns", summarize(m.raw.latency, kGatedLadder), "ns");
  report.timing("api_ns (deepest tail)",
                summarize(m.raw.latency, kPercentileLadder), "ns");
}

/// What a workload's demands imply for parking: never (calm), sometimes
/// (overcommitted, two or more threads), or nothing to check (one thread).
enum class Blocks { kNone, kSome, kUnchecked };

/// Invariants every gate must satisfy at quiescence.
void check_gate(const rt::AdmissionGate& gate, std::uint64_t expected_begins,
                Blocks blocks, Report& report) {
  const rt::GateStats s = gate.stats();
  const core::AdmissionCore::AuditReport audit = gate.audit();
  report.check(audit.ok, "gate audit: " + audit.detail);
  const rda::obs::ReconcileReport rec =
      rda::obs::reconcile_resources(gate.resource_rows(), true);
  report.check(rec.ok, "gate resource ledger: " + rec.message);
  report.check(s.monitor.begins == s.monitor.ends, "gate begins == ends");
  report.check(s.monitor.begins == expected_begins,
               "gate counted every begin the loops made");
  report.check(gate.waiting() == 0, "gate waitlist empty");
  report.check(s.monitor.rejections + s.monitor.reclaims +
                       s.monitor.cancels ==
                   0,
               "no begin rejected, reclaimed or cancelled");
  if (blocks == Blocks::kNone) {
    report.check(s.monitor.blocks == 0,
                 "calm demands never exceed capacity, so nothing blocks");
  } else if (blocks == Blocks::kSome) {
    report.check(s.monitor.blocks > 0, "overcommitted demands park");
  }
}

void check_core(const core::AdmissionCore& c, Report& report) {
  const core::AdmissionCore::AuditReport audit = c.audit();
  report.check(audit.ok, "core audit: " + audit.detail);
  const core::MonitorStats s = c.stats();
  report.check(s.begins == s.ends && s.blocks == 0,
               "standalone core: begins == ends, no blocks");
}

// ---------------------------------------------------------------- gate_calm

/// Seeded scalar LLC demands; with every thread holding at most one period,
/// their sum stays below capacity.
std::vector<std::vector<double>> calm_demands(std::uint64_t seed,
                                              int threads) {
  const double hi = 0.93 * kLlcBytes / threads;
  std::vector<std::vector<double>> out(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    rda::util::Rng rng = thread_rng(seed, t);
    auto& d = out[static_cast<std::size_t>(t)];
    d.resize(kStream);
    for (double& x : d) x = std::floor(rng.next_double(256.0 * 1024.0, hi));
  }
  return out;
}

rt::GateConfig calm_config() {
  rt::GateConfig cfg;
  cfg.llc_capacity_bytes = kLlcBytes;
  cfg.policy = core::PolicyKind::kStrict;
  return cfg;
}

void api_period(double demand) {
  const core::PeriodId id = rda::api::pp_begin(
      ResourceKind::kLLC, static_cast<std::uint64_t>(demand), ReuseLevel::kHigh);
  rda::api::pp_end(id);
}

}  // namespace

void run_gate_calm(const Options& options, Report& report) {
  const int threads = gate_threads();
  report.info("threads", threads, "count");
  constexpr std::uint64_t kWarmup = 100'000;

  std::vector<std::vector<double>> demands;
  std::uint64_t begins = 0;  // on the gate of the last setup
  const double setup_s = measure_setup([&] {
    demands = calm_demands(options.seed, threads);
    rda::api::pp_configure(calm_config());
    const auto warm = run_threads(threads, 0.0, [&](int t, const auto& stop,
                                                    ThreadResult& r) {
      const auto& d = demands[static_cast<std::size_t>(t)];
      timed_loop(stop, kWarmup, false, r,
                 [&](std::uint64_t i) { api_period(d[i & (kStream - 1)]); });
    });
    begins = totals(warm, report).periods;
  });

  const auto api_loop = [&](bool per_op, SpanLog* log) {
    return [&, per_op, log](int t, const std::atomic<bool>& stop,
                            ThreadResult& r) {
      const auto& d = demands[static_cast<std::size_t>(t)];
      const std::uint32_t period = log ? log->intern("period") : 0;
      const std::uint32_t b = log ? log->intern("api.pp_begin") : 0;
      const std::uint32_t e = log ? log->intern("api.pp_end") : 0;
      timed_loop(stop, kNoLimit, per_op, r, [&](std::uint64_t i) {
        const double demand = d[i & (kStream - 1)];
        if (log == nullptr || i % kBatch != 0) {
          api_period(demand);
          return;
        }
        // One period in kBatch is traced: a period span with its two calls.
        const std::uint64_t request =
            (static_cast<std::uint64_t>(t) << 40) | i;
        ScopedSpan whole(log, period, request, -1, static_cast<std::uint32_t>(t));
        core::PeriodId id = 0;
        {
          ScopedSpan s(log, b, request, whole.index(), static_cast<std::uint32_t>(t));
          id = rda::api::pp_begin(ResourceKind::kLLC,
                                  static_cast<std::uint64_t>(demand),
                                  ReuseLevel::kHigh);
        }
        ScopedSpan s(log, e, request, whole.index(), static_cast<std::uint32_t>(t));
        rda::api::pp_end(id);
      });
    };
  };

  if (!options.trace) {
    const Sliced m =
        measure_sliced(threads, options.seconds, api_loop(true, nullptr),
                       {500.0, 650.0}, report);
    begins += m.raw.periods;
    report_gate_e2e(report, setup_s, m);
    report.info("fail_frac", 0.0, "frac", begins);
  } else {
    // Self time by level: the same seeded stream replayed at each public
    // entry point; adjacent levels differ by one layer. The levels take
    // turns in short rounds so a change in host load hits all of them.
    SpanLog log(1 << 19);
    log.intern("period");
    log.intern("api.pp_begin");
    log.intern("api.pp_end");

    rt::AdmissionGate& gate = rda::api::pp_gate();
    core::AdmissionConfig core_cfg;
    core_cfg.llc_capacity_bytes = kLlcBytes;
    core_cfg.policy = core::PolicyKind::kStrict;
    core::AdmissionCore admission(core_cfg);
    core::ResourceMonitor stripes;
    stripes.set_capacity(ResourceKind::kLLC, kLlcBytes);
    stripes.set_admission_bound(ResourceKind::kLLC, kLlcBytes);
    std::atomic<std::uint64_t> denied{0};
    core::ShardedRegistry registry;

    // Level bodies: i-th period of thread t at that level. Thread ids of
    // the standalone layers are t + 1, distinct per thread like the gate's.
    const auto at_runtime = [&](int t, std::uint64_t i) {
      const core::PeriodId id = gate.begin(
          ResourceKind::kLLC, demands[static_cast<std::size_t>(t)][i & (kStream - 1)],
          ReuseLevel::kHigh);
      gate.end(id);
    };
    const auto at_core = [&](int t, std::uint64_t i,
                             std::vector<core::ResourceDemand>& spare) {
      const auto tid = static_cast<rda::sim::ThreadId>(t + 1);
      core::AdmitRequest req;
      req.thread = tid;
      req.process = tid;
      req.demands = std::move(spare);
      req.demands.assign(
          1, {ResourceKind::kLLC,
              demands[static_cast<std::size_t>(t)][i & (kStream - 1)]});
      req.reuse = ReuseLevel::kHigh;
      const core::AdmitTicket ticket = admission.admit(std::move(req), 0.0);
      spare = std::move(admission.release(ticket.id, {}, 0.0).record.demands);
    };
    const auto at_stripe = [&](int t, std::uint64_t i) {
      const std::uint32_t stripe =
          core::shard_of_thread(static_cast<rda::sim::ThreadId>(t + 1));
      const double x = demands[static_cast<std::size_t>(t)][i & (kStream - 1)];
      if (stripes.try_acquire(ResourceKind::kLLC, x, stripe)) {
        stripes.decrement_load(ResourceKind::kLLC, x, stripe);
      } else {
        denied.fetch_add(1, std::memory_order_relaxed);
      }
    };
    const auto at_registry = [&](int t, std::uint64_t i,
                                 std::vector<core::ResourceDemand>& spare) {
      const auto tid = static_cast<rda::sim::ThreadId>(t + 1);
      core::PeriodRecord rec;
      rec.thread = tid;
      rec.process = tid;
      rec.demands = std::move(spare);
      rec.demands.assign(
          1, {ResourceKind::kLLC,
              demands[static_cast<std::size_t>(t)][i & (kStream - 1)]});
      rec.admitted = true;
      spare = std::move(registry.remove(registry.insert(std::move(rec))).demands);
    };
    using Body = std::function<void(int, const std::atomic<bool>&, ThreadResult&)>;
    const auto level = [](auto op) -> Body {
      return [op](int t, const std::atomic<bool>& stop, ThreadResult& r) {
        std::vector<core::ResourceDemand> spare;
        timed_loop(stop, kNoLimit, false, r, [&](std::uint64_t i) {
          if constexpr (std::is_invocable_v<decltype(op), int, std::uint64_t>) {
            op(t, i);
          } else {
            op(t, i, spare);
          }
        });
      };
    };
    struct Level {
      Body body;
      bool on_gate;  ///< counts toward the gate's begins
      std::vector<double> p50;
      std::vector<double> rate;
    };
    enum { kApi, kApiTraced, kRuntime, kCore, kStripe, kRegistry };
    std::vector<Level> levels = {
        {api_loop(false, nullptr), true, {}, {}},
        {api_loop(false, &log), true, {}, {}},
        {level(at_runtime), true, {}, {}},
        {level(at_core), false, {}, {}},
        {level(at_stripe), false, {}, {}},
        {level(at_registry), false, {}, {}},
    };
    constexpr int kRounds = 5;
    const double each = options.seconds / (kRounds * static_cast<double>(levels.size()));
    for (int round = 0; round < kRounds; ++round) {
      for (Level& l : levels) {
        const Totals t = totals(run_threads(threads, each, l.body), report);
        l.p50.push_back(t.latency.quantile(0.5));
        l.rate.push_back(t.periods_per_s);
        if (l.on_gate) begins += t.periods;
      }
    }
    report.check(denied.load() == 0, "stripe level: every calm demand fits");
    report.check(registry.active_count() == 0, "registry level: all removed");
    check_core(admission, report);

    const auto p50 = [&](int i) { return median(levels[static_cast<std::size_t>(i)].p50); };
    const double l0 = p50(kApi), l1 = p50(kRuntime), l2 = p50(kCore);
    const double l3s = p50(kStripe), l3r = p50(kRegistry);
    report.metric("api.self_ns", l0 - l1, "ns");
    report.metric("runtime.self_ns", l1 - l2, "ns");
    report.metric("core.admit_release_ns", l2, "ns");
    report.metric("core.stripe_ns", l3s, "ns");
    report.metric("core.registry_ns", l3r, "ns");
    report.metric("gate.unattributed_frac", l0 > 0.0 ? (l2 - l3s - l3r) / l0 : 0.0,
                  "frac");
    report.metric("trace.overhead_frac",
                  median(levels[kApi].rate) / median(levels[kApiTraced].rate) - 1.0,
                  "frac");
    report.info("api level p50 (batch mean)", l0, "ns");
    report.info("spans recorded", static_cast<double>(log.size()), "count");
    report.info("spans dropped", static_cast<double>(log.dropped()), "count");
    write_trace(options, log, report);
  }

  check_gate(rda::api::pp_gate(), begins, Blocks::kNone, report);
  const rt::GateStats s = rda::api::pp_gate().stats();
  report.set_operations(s.monitor.begins,
                        s.monitor.rejections + s.monitor.reclaims);
}

// ---------------------------------------------------------- gate_overcommit

namespace {

struct VectorDemand {
  double llc = 0.0;
  double bw = 0.0;
  double observed = 1.0;  ///< counters see this share of the declaration
};

/// Seeded 2-kind demands whose sum over the threads exceeds both
/// capacities: about two of four threads fit at once.
std::vector<std::vector<VectorDemand>> overcommit_demands(std::uint64_t seed,
                                                          int threads) {
  std::vector<std::vector<VectorDemand>> out(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    rda::util::Rng rng = thread_rng(seed, t);
    auto& d = out[static_cast<std::size_t>(t)];
    d.resize(kStream);
    for (VectorDemand& x : d) {
      x.llc = std::floor(rng.next_double(0.30, 0.55) * kLlcBytes);
      x.bw = std::floor(rng.next_double(0.20, 0.45) * kBandwidth);
      x.observed = rng.next_double(0.85, 1.0);
    }
  }
  return out;
}

rt::GateConfig overcommit_config(rda::obs::TraceSink* sink) {
  rt::GateConfig cfg;
  cfg.llc_capacity_bytes = kLlcBytes;
  cfg.bandwidth_capacity = kBandwidth;
  cfg.policy = core::PolicyKind::kStrict;
  cfg.feedback.enable = true;
  cfg.trace_sink = sink;
  return cfg;
}

std::vector<core::ResourceDemand> demand_vector(const VectorDemand& d) {
  return {{ResourceKind::kLLC, d.llc}, {ResourceKind::kMemBandwidth, d.bw}};
}

core::ReleaseObservation observation(const VectorDemand& d) {
  core::ReleaseObservation o;
  o.peak_occupancy = d.llc * d.observed;
  o.has_counters = true;
  o.peak_bandwidth = d.bw * d.observed;
  o.has_bandwidth = true;
  return o;
}

double body(double x) {
  for (std::uint64_t i = 0; i < kBodyIters; ++i) x = x * 0.999999 + 1.0e-6;
  return x;
}

/// Benchmark-owned sink: stamps each kWake so the woken begin can measure
/// the hand-off from the releasing thread to its own return.
class WakeStampSink final : public rda::obs::TraceSink {
 public:
  void record(const rda::obs::Event& event) override {
    if (event.kind != rda::obs::EventKind::kWake) return;
    const Clock::time_point now = Clock::now();
    std::lock_guard<std::mutex> lock(mu_);
    stamps_[event.period] = now;
  }
  std::optional<Clock::time_point> take(core::PeriodId id) {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = stamps_.find(id);
    if (it == stamps_.end()) return std::nullopt;
    const Clock::time_point t = it->second;
    stamps_.erase(it);
    return t;
  }

 private:
  std::mutex mu_;
  std::unordered_map<core::PeriodId, Clock::time_point> stamps_;
};

/// One overcommit period: timed begin, body, timed end with counters.
void overcommit_period(rt::AdmissionGate& gate, const VectorDemand& d,
                       ThreadResult& r, WakeStampSink* wakes, SpanLog* log,
                       std::uint64_t request, std::uint32_t thread) {
  const bool traced = log != nullptr;
  const std::int64_t whole =
      traced ? log->open(log->intern("period"), request, -1, thread) : -1;
  const Clock::time_point t0 = Clock::now();
  const core::PeriodId id = gate.begin_multi(demand_vector(d), ReuseLevel::kHigh);
  const Clock::time_point t1 = Clock::now();
  if (wakes != nullptr) {
    if (const auto stamp = wakes->take(id)) {
      r.handoff.add(static_cast<double>(to_ns(t1 - *stamp)));
    }
  }
  r.sink += body(d.observed);
  const Clock::time_point t2 = Clock::now();
  r.ref.add(static_cast<double>(to_ns(t2 - t1)));
  gate.end(id, observation(d));
  const Clock::time_point t3 = Clock::now();
  r.latency.add(static_cast<double>(to_ns(t1 - t0) + to_ns(t3 - t2)));
  r.held_byte_seconds += d.llc * std::chrono::duration<double>(t2 - t1).count();
  if (traced) {
    log->add(log->intern("runtime.begin_multi"), request, whole, thread, t0, t1);
    log->add(log->intern("body"), request, whole, thread, t1, t2);
    log->add(log->intern("runtime.end"), request, whole, thread, t2, t3);
    log->close(whole);
  }
}

}  // namespace

void run_gate_overcommit(const Options& options, Report& report) {
  const int threads = gate_threads();
  report.info("threads", threads, "count");
  constexpr std::uint64_t kWarmup = 1'000;

  std::vector<std::vector<VectorDemand>> demands;
  std::unique_ptr<rt::AdmissionGate> gate;
  const auto loop = [&](rt::AdmissionGate& g, WakeStampSink* wakes,
                        SpanLog* log, std::uint64_t limit) {
    return [&, wakes, log, limit](int t, const std::atomic<bool>& stop,
                                  ThreadResult& r) {
      const auto& d = demands[static_cast<std::size_t>(t)];
      std::uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed) && r.periods < limit) {
        const bool sampled = log != nullptr && i % 8 == 0;
        overcommit_period(g, d[i & (kStream - 1)], r, wakes,
                          sampled ? log : nullptr,
                          (static_cast<std::uint64_t>(t) << 40) | i,
                          static_cast<std::uint32_t>(t));
        ++i;
        ++r.periods;
      }
    };
  };

  std::uint64_t begins = 0;  // on the gate of the last setup
  const double setup_s = measure_setup([&] {
    demands = overcommit_demands(options.seed, threads);
    gate = std::make_unique<rt::AdmissionGate>(overcommit_config(nullptr));
    begins = totals(run_threads(threads, 0.0,
                                loop(*gate, nullptr, nullptr, kWarmup)),
                    report)
                 .periods;
  });

  if (!options.trace) {
    const Sliced m = measure_sliced(threads, options.seconds,
                                    loop(*gate, nullptr, nullptr, kNoLimit),
                                    {33'000.0, 46'000.0}, report);
    begins += m.raw.periods;
    report_gate_e2e(report, setup_s, m);
    report.info("llc_utilization",
                m.raw.held_byte_seconds / (kLlcBytes * m.raw.wall_s), "frac",
                m.raw.periods);
    report.info("fail_frac", 0.0, "frac", begins);
  } else {
    WakeStampSink wakes;
    rt::AdmissionGate traced_gate(overcommit_config(&wakes));
    SpanLog log(1 << 19);
    // Names are interned up front; the recording threads only look them up.
    for (const char* name :
         {"period", "runtime.begin_multi", "body", "runtime.end"}) {
      log.intern(name);
    }
    // Untraced and traced take turns in short rounds so a change in host
    // load hits both.
    constexpr int kRounds = 4;
    const double each = 0.4 * options.seconds / kRounds;
    std::vector<double> untraced_rate, traced_rate;
    Histogram handoffs;
    std::uint64_t traced_begins = 0;
    for (int round = 0; round < kRounds; ++round) {
      const Totals u = totals(
          run_threads(threads, each, loop(*gate, nullptr, nullptr, kNoLimit)),
          report);
      begins += u.periods;
      untraced_rate.push_back(u.periods_per_s);
      const Totals t = totals(
          run_threads(threads, each, loop(traced_gate, &wakes, &log, kNoLimit)),
          report);
      traced_begins += t.periods;
      traced_rate.push_back(t.periods_per_s);
      handoffs.merge(t.handoff);
    }
    const rt::GateStats s = gate->stats();
    check_gate(traced_gate, traced_begins,
               threads > 1 ? Blocks::kSome : Blocks::kUnchecked, report);

    // The slow lane alone: one thread, feedback on, 2-kind demands.
    core::AdmissionConfig core_cfg;
    core_cfg.llc_capacity_bytes = kLlcBytes;
    core_cfg.bandwidth_capacity = kBandwidth;
    core_cfg.policy = core::PolicyKind::kStrict;
    core_cfg.feedback.enable = true;
    core::AdmissionCore slow(core_cfg);
    const Totals slow_level = totals(
        run_threads(1, 0.2 * options.seconds,
                    [&](int, const auto& stop, ThreadResult& r) {
                      const auto& d = demands[0];
                      timed_loop(stop, kNoLimit, false, r, [&](std::uint64_t i) {
                        const VectorDemand& x = d[i & (kStream - 1)];
                        core::AdmitRequest req;
                        req.thread = 1;
                        req.process = 1;
                        req.demands = demand_vector(x);
                        req.reuse = ReuseLevel::kHigh;
                        const core::AdmitTicket ticket =
                            slow.admit(std::move(req), 0.0);
                        slow.release(ticket.id, observation(x), 0.0);
                      });
                    }),
        report);
    check_core(slow, report);

    const Timing handoff = summarize(handoffs, kGatedLadder);
    const double blocks = static_cast<double>(s.monitor.blocks);
    report.metric("core.block_ratio",
                  blocks / static_cast<double>(s.monitor.begins), "frac");
    report.metric("runtime.wait_mean_us",
                  s.waits ? 1e6 * s.total_wait_seconds / static_cast<double>(s.waits)
                          : 0.0,
                  "us");
    report.metric("runtime.no_sleep_ratio",
                  blocks > 0 ? static_cast<double>(s.no_sleep_blocks) / blocks : 0.0,
                  "frac");
    report.metric("runtime.wake_handoff_p50_us", handoff.p50 / 1e3, "us");
    report.metric("runtime.wake_handoff_p99_us", handoff.tail / 1e3, "us");
    report.metric("core.slow_admit_release_ns", slow_level.latency.quantile(0.5),
                  "ns");
    report.metric("trace.overhead_frac",
                  median(untraced_rate) / median(traced_rate) - 1.0, "frac");
    report.timing("wake handoff", handoff, "ns");
    report.info("spans recorded", static_cast<double>(log.size()), "count");
    write_trace(options, log, report);
  }

  check_gate(*gate, begins, threads > 1 ? Blocks::kSome : Blocks::kUnchecked,
             report);
  const rt::GateStats s = gate->stats();
  report.set_operations(s.monitor.begins,
                        s.monitor.rejections + s.monitor.reclaims);
}

}  // namespace perfbench
