// perfbench — one run of one benchmark workload.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-dir DIR]
//
// Prints context and every figure as it goes, then one JSON result line
// (correct / attempted / failed / metrics). Exits 1 when a correctness
// check failed, 2 on a usage error. run.py builds and drives it.
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench/calib.hpp"
#include "report.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {

void write_trace(const Options& options, const SpanLog& log, Report& report) {
  // One file per workload (the latest run wins), capped so repeated traced
  // runs do not fill the disk.
  const std::string path = options.trace_dir + "/" + options.workload + ".json";
  std::ofstream out(path);
  out << log.chrome_json(50'000);
  report.check(static_cast<bool>(out), "wrote trace " + path);
  std::printf("trace: %s (%zu spans, %llu dropped)\n", path.c_str(), log.size(),
              static_cast<unsigned long long>(log.dropped()));
}

double machine_factor() {
  return rda::bench::bench_calibration() / rda::bench::kCalibBaselineNs;
}

double measure_setup(const std::function<void()>& setup) {
  const std::vector<int> cpus = allowed_cpus();
  std::vector<std::vector<double>> by_cpu(cpus.size());
  for (std::size_t rep = 0; rep < 3 * cpus.size(); ++rep) {
    pin_to_cpu(cpus[rep % cpus.size()]);
    const Clock::time_point t0 = Clock::now();
    setup();
    const double seconds = std::chrono::duration<double>(Clock::now() - t0).count();
    by_cpu[rep % cpus.size()].push_back(seconds / machine_factor());
  }
  unpin(cpus);
  return mean_of_medians(by_cpu);
}

}  // namespace perfbench

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-dir DIR]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // A fixed mmap threshold: buffers of 1 MiB and more are mapped on
  // allocation and returned on free. glibc's default threshold moves with
  // the sizes freed so far, which made peak RSS differ by 10% between runs
  // of the same workload.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
  perfbench::Options options;
  bool have_workload = false;
  if ((argc - 1) % 2 != 0) return usage("every flag takes a value");
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (key == "--trace-dir") {
      options.trace_dir = value;
    } else {
      return usage(("unknown flag " + key).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");
  if (!(options.seconds > 0.0)) return usage("--seconds must be positive");

  using Runner = void (*)(const perfbench::Options&, perfbench::Report&);
  Runner runner = nullptr;
  if (options.workload == "gate_calm") runner = perfbench::run_gate_calm;
  if (options.workload == "gate_overcommit") runner = perfbench::run_gate_overcommit;
  if (options.workload == "service_adversarial") runner = perfbench::run_service_adversarial;
  if (options.workload == "sim_table2") runner = perfbench::run_sim_table2;
  if (runner == nullptr) return usage(("unknown workload " + options.workload).c_str());

  perfbench::Report report;
  std::printf("workload %s seed %llu seconds %g trace %d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  report.line("context (not gated):");
  report.info("nproc", perfbench::available_cpus(), "count");
  report.info("calib_ns", rda::bench::bench_calibration(), "ns");
  try {
    runner(options, report);
  } catch (const std::exception& e) {
    report.check(false, std::string("exception: ") + e.what());
  }
  std::printf("%s\n", report.result_json().c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}
