// What one benchmark run reports: human-readable lines as it goes, then one
// JSON result line (correct / attempted / failed / metrics) at the end.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "stats.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory the traced run writes its Chrome trace into.
  std::string trace_dir = ".";
};

class Report {
 public:
  /// A gated metric of the result line (end-to-end with --trace 0, per-layer
  /// with --trace 1). Non-finite values and invalid names fail the run.
  void metric(std::string_view name, double value, std::string_view unit);
  /// A printed-only figure ("name = value unit").
  void info(std::string_view name, double value, std::string_view unit,
            std::uint64_t samples = 0);
  /// A printed timing: median and tail percentile with the sample count.
  void timing(std::string_view name, const Timing& t, std::string_view unit);
  void line(std::string_view text);

  /// A correctness check; a violated one marks the run failed.
  void check(bool ok, std::string_view what);

  void set_operations(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ = attempted;
    failed_ = failed;
  }

  bool correct() const { return failures_ == 0; }
  std::string result_json() const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  int failures_ = 0;
};

}  // namespace perfbench
