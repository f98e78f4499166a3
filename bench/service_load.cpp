// service_load — traffic-scale service front-end benchmark: open-loop
// arrival shapes through the batched admission drain, locality-aware vs
// random routing, plus a node-death-at-full-load fault cell. Emits
// BENCH_service.json for trend tracking and gates against the committed
// snapshot.
//
//   service_load [--arrivals N] [--jobs J]
//                [--out BENCH_service.json] [--baseline PATH]
//                [--quick] [--csv]
//
// Two kinds of metrics live here and are gated differently:
//   * Virtual-time cells (shape x routing, fault) are seeded and
//     deterministic — byte-identical for any --jobs value (tier1.sh cmps
//     the --quick --csv output against
//     tests/service/service_load_quick.expected at two fan-outs). Their
//     goodput/p99 regression gate against the committed baseline needs no
//     machine calibration.
//   * Each virtual-time cell also records its host cost: wall-clock µs
//     per arrival for its frontend.run(), divided by the calib.hpp machine
//     factor. Printed and written to the JSON, never gated, and kept out
//     of --csv (host time is not deterministic).
//   * The wall-clock pump cells measure this machine today: batched drain
//     vs per-call admission on slow-lane-pinned cores, and the
//     drain-scaling point (4 drain shards over a 4-node fleet vs one
//     drainer). They run on every host and the JSON records the hardware
//     thread count (pump_hw_threads). They are gated only with >=8
//     threads — below that the producers and drainers time-slice one
//     another — and the batched mops floor compares only against a
//     committed point taken at the same thread count, scaled by the
//     calib.hpp drift kernel.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "calib.hpp"
#include "exp/harness.hpp"
#include "service/arrival.hpp"
#include "service/frontend.hpp"
#include "service/pump.hpp"
#include "util/atomic_file.hpp"
#include "util/check.hpp"
#include "util/units.hpp"

namespace {

using namespace rda;
using rda::util::MB;

struct Cell {
  std::string name;
  service::ArrivalShape shape;
  service::RoutePolicy routing;
  bool fault = false;
};

struct CellResult {
  Cell cell;
  service::ServiceReport report;
  double host_us_per_arrival = 0.0;  ///< raw wall clock, not normalised
};

std::vector<Cell> build_cells() {
  using service::ArrivalShape;
  using service::RoutePolicy;
  std::vector<Cell> cells;
  for (const ArrivalShape shape :
       {ArrivalShape::kPoisson, ArrivalShape::kDiurnal,
        ArrivalShape::kBursty}) {
    for (const RoutePolicy routing :
         {RoutePolicy::kLocalityAware, RoutePolicy::kRandom}) {
      Cell cell;
      cell.shape = shape;
      cell.routing = routing;
      cell.name = std::string(service::to_string(shape)) + "_" +
                  (routing == RoutePolicy::kLocalityAware ? "locality"
                                                          : "random");
      cells.push_back(cell);
    }
  }
  // Node death at full load, drained and re-routed mid-run.
  Cell fault;
  fault.shape = ArrivalShape::kPoisson;
  fault.routing = RoutePolicy::kLocalityAware;
  fault.fault = true;
  fault.name = "poisson_locality_node_death";
  cells.push_back(fault);
  return cells;
}

CellResult run_cell(const Cell& cell, std::uint64_t arrivals) {
  service::ArrivalConfig arr;
  arr.shape = cell.shape;
  arr.rate = 9000.0;
  arr.seed = 29;
  // 30% hot-tenant skew: enough footprint reuse for locality to pay, while
  // the hot tenant's home node stays under capacity at the diurnal/bursty
  // peaks (a 0.5 share pegs it there and load imbalance swamps the warmth).
  arr.tenants = 8;
  arr.hot_tenant_share = 0.3;
  arr.demand_mean_bytes = static_cast<double>(MB(2));
  arr.service_mean_seconds = 2.0e-3;

  service::ServiceConfig cfg;
  cfg.nodes = 4;
  cfg.node_llc_bytes = static_cast<double>(MB(15));
  cfg.routing = cell.routing;
  if (cell.fault) {
    // "Node death at full load": push the offered rate to ~80% of the
    // fleet's service capacity so the dying node is carrying a steady
    // complement of parked and in-flight work to reroute, without tipping
    // the ladder into its shed/recover oscillation (which periodically
    // empties every node and would make the reroute count a coin flip).
    arr.rate = 12000.0;
    const double span =
        static_cast<double>(arrivals) / arr.rate;  // expected run length
    cfg.fault.node = 1;
    cfg.fault.fail_at_seconds = 0.2 * span;
    cfg.fault.recover_at_seconds = 0.5 * span;
  }

  service::ArrivalGenerator gen(arr);
  service::ServiceFrontEnd frontend(cfg);
  CellResult result;
  result.cell = cell;
  const auto t0 = std::chrono::steady_clock::now();
  result.report = frontend.run(gen, arrivals);
  result.host_us_per_arrival =
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - t0)
          .count() /
      static_cast<double>(arrivals);

  // Ledger invariants every cell must satisfy, fault or not: each arrival
  // resolves exactly once, and nothing is left queued or in flight.
  const service::ServiceStats& s = result.report.stats;
  RDA_CHECK_MSG(s.completed + s.shed == arrivals,
                "service cell lost or duplicated arrivals");
  RDA_CHECK_MSG(s.still_queued == 0, "service cell left work queued");
  RDA_CHECK_MSG(s.overflow_drops == 0, "service cell overflowed its queue");
  if (cell.fault) {
    RDA_CHECK_MSG(s.reroutes > 0, "fault cell saw no node-death reroutes");
  }
  return result;
}

void print_csv(const std::vector<CellResult>& results) {
  // `mailboxed` (requeues, == stolen + reroutes) is deliberately in the
  // pinned CSV, so the golden cmp in tier1.sh also pins the requeue
  // count.
  std::printf(
      "cell,completed,shed,steals,reroutes,mailboxed,goodput,"
      "work_per_second,p50,p95,p99,checksum\n");
  for (const CellResult& r : results) {
    std::printf(
        "%s,%llu,%llu,%llu,%llu,%llu,%.17g,%.17g,%.17g,%.17g,%.17g,%llx\n",
        r.cell.name.c_str(),
        static_cast<unsigned long long>(r.report.stats.completed),
        static_cast<unsigned long long>(r.report.stats.shed),
        static_cast<unsigned long long>(r.report.stats.steals),
        static_cast<unsigned long long>(r.report.stats.reroutes),
        static_cast<unsigned long long>(r.report.stats.mailboxed),
        r.report.goodput_per_second, r.report.work_per_second,
        r.report.admission_latency.p50(),
        r.report.admission_latency.p95(),
        r.report.admission_latency.p99(),
        static_cast<unsigned long long>(r.report.checksum));
  }
}

/// Minimal extractor for the flat-ish JSON this binary writes: finds the
/// first `"key": <number>` after `anchor` (cell name), or from the start
/// when `anchor` is empty. Returns fallback when absent or null.
double json_number_after(const std::string& text, const std::string& anchor,
                         const std::string& key, double fallback) {
  std::size_t from = 0;
  if (!anchor.empty()) {
    from = text.find("\"" + anchor + "\"");
    if (from == std::string::npos) return fallback;
  }
  const std::size_t at = text.find("\"" + key + "\":", from);
  if (at == std::string::npos) return fallback;
  const char* p = text.c_str() + at + key.size() + 3;
  char* end = nullptr;
  const double value = std::strtod(p, &end);
  return end == p ? fallback : value;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = exp::has_flag(argc, argv, "--quick");
  const bool csv = exp::has_flag(argc, argv, "--csv");
  const std::uint64_t arrivals =
      exp::parse_u64_flag(argc, argv, "--arrivals", quick ? 8'000 : 40'000);
  const int jobs = exp::parse_jobs(argc, argv);
  const std::string out_path =
      exp::parse_string_flag(argc, argv, "--out", "BENCH_service.json");
  const std::string baseline_path =
      exp::parse_string_flag(argc, argv, "--baseline", "");

  // Virtual-time matrix: cells are independent (each builds its own fleet),
  // results land in pre-allocated slots read in index order, so output is
  // bit-identical for any --jobs value.
  const std::vector<Cell> cells = build_cells();
  std::vector<CellResult> results(cells.size());
  exp::run_cells(cells.size(), jobs, [&](std::size_t i) {
    results[i] = run_cell(cells[i], arrivals);
  });

  if (csv) {
    print_csv(results);
    return 0;
  }

  const double calib_ns = bench::bench_calibration();
  const double machine_factor =
      std::max(1.0, calib_ns / bench::kCalibBaselineNs);
  const auto host_us = [&](const CellResult& r) {
    return r.host_us_per_arrival / machine_factor;
  };

  for (const CellResult& r : results) {
    std::printf(
        "%-28s goodput %8.1f/s  work %8.5f s/s  p50 %6.2f ms  p95 %6.2f ms  "
        "p99 %6.2f ms  steals %llu  reroutes %llu  host %.3f us/arrival\n",
        r.cell.name.c_str(), r.report.goodput_per_second,
        r.report.work_per_second, 1e3 * r.report.admission_latency.p50(),
        1e3 * r.report.admission_latency.p95(),
        1e3 * r.report.admission_latency.p99(),
        static_cast<unsigned long long>(r.report.stats.steals),
        static_cast<unsigned long long>(r.report.stats.reroutes), host_us(r));
  }

  // Locality must beat random placement on every shape (same trace, same
  // fleet, only the routing policy differs) — the tentpole's whole point.
  for (std::size_t i = 0; i + 1 < results.size(); i += 2) {
    if (results[i].cell.fault || results[i + 1].cell.fault) continue;
    if (results[i].report.work_per_second <=
        results[i + 1].report.work_per_second) {
      std::fprintf(stderr, "error: %s did not out-serve %s\n",
                   results[i].cell.name.c_str(),
                   results[i + 1].cell.name.c_str());
      return 1;
    }
  }

  // Wall-clock pump: batched drain vs per-call admission against a
  // slow-lane-pinned core. Measured on every host; below 8 hardware
  // threads the producers time-slice one another, so the points are
  // recorded but not gated.
  const unsigned cores = std::thread::hardware_concurrency();
  const bool pump_gated = cores >= 8;
  service::PumpConfig pump;
  pump.producers = 4;
  pump.ops_per_producer = quick ? 20'000 : 100'000;
  pump.batched = false;
  const double per_call_mops = service::run_pump(pump).mops;
  pump.batched = true;
  const double batched_mops = service::run_pump(pump).mops;
  const double batch_speedup =
      per_call_mops > 0.0 ? batched_mops / per_call_mops : 0.0;
  std::printf("pump: per-call %.3f Mops/s, batched %.3f Mops/s (%.2fx)\n",
              per_call_mops, batched_mops, batch_speedup);

  // Drain scaling: the same 4-node fleet drained by ONE thread vs by 4
  // shard drainers, each owning a disjoint queue+node set. The single
  // drainer serializes 4 cores' admissions; sharding must recover >=2x.
  pump.nodes = 4;
  pump.shards = 1;
  const double sharded_1_mops = service::run_pump(pump).mops;
  pump.shards = 4;
  const double sharded_4_mops = service::run_pump(pump).mops;
  const double drain_scaling =
      sharded_1_mops > 0.0 ? sharded_4_mops / sharded_1_mops : 0.0;
  std::printf(
      "drain scaling: 1 shard %.3f Mops/s, 4 shards %.3f Mops/s (%.2fx)\n",
      sharded_1_mops, sharded_4_mops, drain_scaling);
  if (!pump_gated) {
    std::printf("pump: %u hardware threads (<8): recorded, not gated\n",
                cores);
  } else if (drain_scaling < 2.0) {
    std::fprintf(stderr,
                 "error: 4-shard drain only %.2fx over one drainer "
                 "(needs >=2x on an 8-core host)\n",
                 drain_scaling);
    return 1;
  }

  std::ostringstream json;
  json << "{\n";
  json << "  \"arrivals\": " << arrivals << ",\n";
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "  \"calib_ns\": %.2f,\n  \"machine_factor\": %.4f,\n",
                calib_ns, machine_factor);
  json << buf;
  json << "  \"cells\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const CellResult& r = results[i];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"name\": \"%s\", \"goodput\": %.3f, \"work_per_second\": "
        "%.6f,\n     \"p50_ms\": %.4f, \"p95_ms\": %.4f, \"p99_ms\": %.4f,\n"
        "     \"completed\": %llu, \"shed\": %llu, \"steals\": %llu, "
        "\"reroutes\": %llu, \"mailboxed\": %llu,\n"
        "     \"host_us_per_arrival\": %.4f}%s\n",
        r.cell.name.c_str(), r.report.goodput_per_second,
        r.report.work_per_second, 1e3 * r.report.admission_latency.p50(),
        1e3 * r.report.admission_latency.p95(),
        1e3 * r.report.admission_latency.p99(),
        static_cast<unsigned long long>(r.report.stats.completed),
        static_cast<unsigned long long>(r.report.stats.shed),
        static_cast<unsigned long long>(r.report.stats.steals),
        static_cast<unsigned long long>(r.report.stats.reroutes),
        static_cast<unsigned long long>(r.report.stats.mailboxed),
        host_us(r), i + 1 < results.size() ? "," : "");
    json << buf;
  }
  json << "  ],\n";
  std::snprintf(buf, sizeof(buf),
                "  \"pump_hw_threads\": %u,\n"
                "  \"per_call_mops\": %.3f,\n  \"batched_mops\": %.3f,\n"
                "  \"batch_speedup\": %.3f,\n",
                cores, per_call_mops, batched_mops, batch_speedup);
  json << buf;
  std::snprintf(buf, sizeof(buf),
                "  \"sharded_1_mops\": %.3f,\n"
                "  \"sharded_4_mops\": %.3f,\n"
                "  \"drain_scaling\": %.3f\n",
                sharded_1_mops, sharded_4_mops, drain_scaling);
  json << buf;
  json << "}\n";

  try {
    util::write_file_atomic(out_path, json.str());
    std::printf("wrote %s\n", out_path.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "warning: %s\n", e.what());
  }

  // Regression gate against the committed snapshot: virtual-time goodput
  // may not drop more than 10% (deterministic — any drop is a code change,
  // not machine weather); p99 may not grow more than 10%. The wall-clock
  // batched-mops floor (>=8 threads, same thread count as the committed
  // point) is scaled by today's machine drift.
  int rc = 0;
  if (!baseline_path.empty()) {
    std::ifstream in(baseline_path);
    if (!in) {
      std::printf("no committed baseline at %s; recorded fresh snapshot\n",
                  baseline_path.c_str());
    } else {
      std::stringstream buffer;
      buffer << in.rdbuf();
      const std::string base = buffer.str();
      const double base_arrivals =
          json_number_after(base, "", "arrivals", 0.0);
      if (static_cast<std::uint64_t>(base_arrivals) != arrivals) {
        // A gate that cannot compare must fail, not pass silently.
        std::fprintf(stderr,
                     "error: baseline %s used %.0f arrivals (this run: %llu); "
                     "regenerate it with the same arrival count\n",
                     baseline_path.c_str(), base_arrivals,
                     static_cast<unsigned long long>(arrivals));
        rc = 1;
      } else {
        for (const CellResult& r : results) {
          const double base_goodput =
              json_number_after(base, r.cell.name, "goodput", 0.0);
          const double base_p99 =
              json_number_after(base, r.cell.name, "p99_ms", 0.0);
          const double p99_ms = 1e3 * r.report.admission_latency.p99();
          if (base_goodput > 0.0 &&
              r.report.goodput_per_second < 0.9 * base_goodput) {
            std::fprintf(stderr,
                         "error: %s goodput %.1f/s fell >10%% below the "
                         "committed %.1f/s\n",
                         r.cell.name.c_str(), r.report.goodput_per_second,
                         base_goodput);
            rc = 1;
          }
          if (base_p99 > 0.0 && p99_ms > 1.1 * base_p99) {
            std::fprintf(stderr,
                         "error: %s p99 %.3f ms grew >10%% over the "
                         "committed %.3f ms\n",
                         r.cell.name.c_str(), p99_ms, base_p99);
            rc = 1;
          }
        }
        const double base_batched =
            json_number_after(base, "", "batched_mops", 0.0);
        const auto base_threads = static_cast<unsigned>(
            json_number_after(base, "", "pump_hw_threads", 0.0));
        if (pump_gated && base_batched > 0.0) {
          const double floor = 0.9 * base_batched / machine_factor;
          if (base_threads != cores) {
            std::printf("batched pump: the committed point is at %u "
                        "threads (this host: %u), not compared\n",
                        base_threads, cores);
          } else if (batched_mops < floor) {
            std::fprintf(stderr,
                         "error: batched pump %.3f Mops/s fell below the "
                         "drift-adjusted floor %.3f\n",
                         batched_mops, floor);
            rc = 1;
          }
          if (batch_speedup < 2.0) {
            std::fprintf(stderr,
                         "error: batched drain only %.2fx over per-call "
                         "(needs >=2x on an 8-core host)\n",
                         batch_speedup);
            rc = 1;
          }
        }
      }
    }
  }
  return rc;
}
