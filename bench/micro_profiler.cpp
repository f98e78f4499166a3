// micro_profiler — profiling-pipeline benchmark: serial per-pass streaming
// vs the single-read TraceArena pipeline, and sampled vs exact reuse curves.
//
//   micro_profiler [--records N] [--jobs J] [--sample-rate R]
//                  [--levels L] [--trace FILE] [--out BENCH_profiler.json]
//
// Reports, and emits as JSON for trend tracking:
//   * trace write throughput (buffered TraceFileWriter),
//   * wall-clock of the serial baseline (one FileTraceSource pass per
//     ladder level + one exact Mattson pass) vs the pipeline at --jobs J
//     with the sampled reuse curve,
//   * --jobs J vs --jobs 1 bit-equality (determinism), and
//   * sampled-vs-exact working-set-size relative error.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "exp/harness.hpp"
#include "profiler/multi_granularity.hpp"
#include "profiler/pipeline.hpp"
#include "profiler/reuse_distance.hpp"
#include "trace/arena.hpp"
#include "trace/generators.hpp"
#include "trace/loop_nest.hpp"
#include "trace/trace_io.hpp"
#include "util/atomic_file.hpp"
#include "util/parallel.hpp"
#include "util/units.hpp"

namespace {

using rda::util::MB;

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Three-phase trace (big hot/cold phase, small phase, big phase again) with
/// loop back-edges — enough structure for every ladder level to find work.
std::unique_ptr<rda::trace::TraceSource> make_trace(std::uint64_t records) {
  using namespace rda::trace;
  auto phase = [](std::uint64_t base, std::uint64_t bytes,
                  std::uint64_t accesses, std::uint64_t jump_pc,
                  std::uint64_t seed) {
    RegionSpec spec;
    spec.base = base;
    spec.size_bytes = bytes;
    spec.pattern = Pattern::kHotCold;
    spec.hot_fraction = 0.25;
    spec.hot_probability = 0.9;
    spec.access_granularity = 8;
    spec.jump_pc = jump_pc;
    spec.jump_period = 128;
    return std::make_unique<RegionAccessSource>(spec, accesses, seed);
  };
  std::vector<std::unique_ptr<TraceSource>> parts;
  parts.push_back(phase(0x10000000, MB(8), records * 2 / 5, 0x1010, 1));
  parts.push_back(phase(0x40000000, MB(1), records / 5, 0x2010, 2));
  parts.push_back(phase(0x20000000, MB(8), records * 2 / 5, 0x1010, 3));
  return std::make_unique<ConcatSource>(std::move(parts));
}

rda::trace::LoopNest make_nest() {
  rda::trace::LoopNest nest;
  nest.add_loop("outer.sweep", 0x1000, 0x1100);
  nest.add_loop("small.phase", 0x2000, 0x2100);
  return nest;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rda;
  const std::uint64_t records =
      exp::parse_u64_flag(argc, argv, "--records", 8'000'000);
  const int jobs =
      static_cast<int>(exp::parse_u64_flag(argc, argv, "--jobs", 4));
  const double sample_rate =
      exp::parse_double_flag(argc, argv, "--sample-rate", 0.01);
  const int levels =
      static_cast<int>(exp::parse_u64_flag(argc, argv, "--levels", 4));
  const std::string trace_path =
      exp::parse_string_flag(argc, argv, "--trace", "micro_profiler.rdatrc");
  const std::string out_path =
      exp::parse_string_flag(argc, argv, "--out", "BENCH_profiler.json");

  const trace::LoopNest nest = make_nest();

  // --- Stage 1: write the trace (buffered writer throughput). -------------
  auto t0 = std::chrono::steady_clock::now();
  {
    trace::TraceFileWriter writer(trace_path, nest);
    auto source = make_trace(records);
    writer.write_all(*source);
  }
  const double write_ms = ms_since(t0);
  const trace::TraceFile file = trace::TraceFile::open(trace_path);
  std::printf("wrote %llu records in %.0f ms (%.1f Mrec/s)\n",
              static_cast<unsigned long long>(file.record_count()), write_ms,
              static_cast<double>(file.record_count()) / 1e3 / write_ms);

  prof::MultiGranularityConfig mcfg;
  mcfg.base_window = std::max<std::uint64_t>(records / 16, 1u << 16);
  mcfg.levels = levels;
  mcfg.ladder_ratio = 4;

  // --- Stage 2: serial baseline — one streaming decode per pass. ----------
  t0 = std::chrono::steady_clock::now();
  const prof::MultiGranularityReport serial_multi =
      prof::MultiGranularityProfiler(mcfg).profile(
          [&] { return file.records(); });
  prof::ReuseDistanceAnalyzer exact_rd;
  {
    auto pass = file.records();
    exact_rd.consume(*pass);
  }
  const double serial_ms = ms_since(t0);
  const double exact_wss_mb = util::bytes_to_mb(exact_rd.working_set_bytes());
  std::printf("serial baseline (%d ladder passes + exact reuse): %.0f ms, "
              "%zu merged periods, wss %.2f MB\n",
              levels, serial_ms, serial_multi.periods.size(), exact_wss_mb);

  // --- Stage 3: pipeline — one decode, parallel passes, sampled reuse. ----
  prof::PipelineConfig pcfg;
  pcfg.multi = mcfg;
  pcfg.reuse_curve = true;
  pcfg.sample_rate = sample_rate;
  pcfg.jobs = jobs;
  t0 = std::chrono::steady_clock::now();
  const trace::TraceArena arena = trace::TraceArena::load(trace_path);
  const prof::PipelineResult par = prof::ProfilePipeline(pcfg).run(arena);
  const double pipeline_ms = ms_since(t0);
  const double sampled_wss_mb =
      util::bytes_to_mb(par.reuse->working_set_bytes());
  std::printf("pipeline (--jobs %d, --sample-rate %g, arena %s): %.0f ms\n",
              jobs, sample_rate, arena.mapped() ? "mmap" : "heap",
              pipeline_ms);

  // --- Stage 4: determinism — jobs=1 must be bit-identical. ---------------
  pcfg.jobs = 1;
  t0 = std::chrono::steady_clock::now();
  const prof::PipelineResult ser = prof::ProfilePipeline(pcfg).run(arena);
  const double pipeline1_ms = ms_since(t0);
  bool deterministic =
      ser.multi.periods.size() == par.multi.periods.size() &&
      ser.level_reports.size() == par.level_reports.size() &&
      ser.reuse->histogram() == par.reuse->histogram();
  for (std::size_t i = 0;
       deterministic && i < ser.level_reports.size(); ++i) {
    deterministic = ser.level_reports[i].to_string() ==
                    par.level_reports[i].to_string();
  }

  const double speedup = serial_ms / pipeline_ms;
  const double wss_rel_err =
      exact_wss_mb > 0.0
          ? std::abs(sampled_wss_mb - exact_wss_mb) / exact_wss_mb
          : 0.0;
  std::printf("speedup vs serial: %.2fx (jobs=1 pipeline: %.0f ms), "
              "deterministic: %s\n",
              speedup, pipeline1_ms, deterministic ? "yes" : "no");
  std::printf("wss exact %.2f MB vs sampled %.2f MB (rel err %.1f%%)\n",
              exact_wss_mb, sampled_wss_mb, 100.0 * wss_rel_err);

  char json[768];
  std::snprintf(json, sizeof(json),
                "{\n"
                "  \"records\": %llu,\n"
                "  \"levels\": %d,\n"
                "  \"jobs\": %d,\n"
                "  \"sample_rate\": %g,\n"
                "  \"write_ms\": %.1f,\n"
                "  \"write_mrec_per_s\": %.2f,\n"
                "  \"serial_ms\": %.1f,\n"
                "  \"pipeline_ms\": %.1f,\n"
                "  \"pipeline_jobs1_ms\": %.1f,\n"
                "  \"speedup\": %.3f,\n"
                "  \"deterministic\": %s,\n"
                "  \"exact_wss_mb\": %.3f,\n"
                "  \"sampled_wss_mb\": %.3f,\n"
                "  \"wss_rel_err\": %.4f\n"
                "}\n",
                static_cast<unsigned long long>(records), levels, jobs,
                sample_rate, write_ms,
                static_cast<double>(file.record_count()) / 1e3 / write_ms,
                serial_ms, pipeline_ms, pipeline1_ms, speedup,
                deterministic ? "true" : "false", exact_wss_mb,
                sampled_wss_mb, wss_rel_err);
  try {
    rda::util::write_file_atomic(out_path, json);
    std::printf("wrote %s\n", out_path.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "warning: %s\n", e.what());
  }

  std::remove(trace_path.c_str());
  return deterministic ? 0 : 1;
}
