#include "report.hpp"

#include <cmath>
#include <cstdio>
#include <string>

namespace perfbench {

void Report::metric(std::string_view name, double value,
                    std::string_view unit) {
  check(valid_metric_name(name), "metric name " + std::string(name));
  check(std::isfinite(value), "finite value of " + std::string(name));
  metrics_.push_back({std::string(name), value, std::string(unit)});
  info(name, value, unit);
}

void Report::info(std::string_view name, double value, std::string_view unit,
                  std::uint64_t samples) {
  if (samples > 0) {
    std::printf("  %-32.*s %16.6g %-8.*s (n=%llu)\n",
                static_cast<int>(name.size()), name.data(), value,
                static_cast<int>(unit.size()), unit.data(),
                static_cast<unsigned long long>(samples));
  } else {
    std::printf("  %-32.*s %16.6g %.*s\n", static_cast<int>(name.size()),
                name.data(), value, static_cast<int>(unit.size()),
                unit.data());
  }
}

void Report::timing(std::string_view name, const Timing& t,
                    std::string_view unit) {
  std::printf("  %-32.*s p50 %.6g %.*s, p%g %.6g %.*s (n=%llu)\n",
              static_cast<int>(name.size()), name.data(), t.p50,
              static_cast<int>(unit.size()), unit.data(), t.tail_p, t.tail,
              static_cast<int>(unit.size()), unit.data(),
              static_cast<unsigned long long>(t.samples));
}

void Report::line(std::string_view text) {
  std::printf("%.*s\n", static_cast<int>(text.size()), text.data());
}

void Report::check(bool ok, std::string_view what) {
  if (ok) return;
  ++failures_;
  std::printf("CHECK FAILED: %.*s\n", static_cast<int>(what.size()),
              what.data());
}

std::string Report::result_json() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
