#include "stats.hpp"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <string>

namespace perfbench {

double tail_percentile(std::uint64_t samples, std::span<const double> ladder,
                       double min_beyond) {
  double best = 0.0;
  for (const double p : ladder) {
    const double beyond = static_cast<double>(samples) * (1.0 - p / 100.0);
    // A hair of slack so 1000 samples qualify p99 despite 1 - 0.99 rounding
    // below 0.01.
    if (beyond + 1e-9 >= min_beyond) best = std::max(best, p);
  }
  return best;
}

Histogram::Histogram() : buckets_(kSub + kOctaves * kSub, 0) {}

std::size_t Histogram::bucket_of(double value) {
  if (!(value > 0.0)) return 0;
  if (value < static_cast<double>(kSub)) return static_cast<std::size_t>(value);
  const double capped = std::min(value, 0x1p55);
  const auto v = static_cast<std::uint64_t>(capped);
  const int octave = 63 - __builtin_clzll(v);  // >= kSubBits
  const int shift = octave - kSubBits;
  const std::size_t sub = static_cast<std::size_t>(v >> shift) - kSub;
  return kSub + static_cast<std::size_t>(shift) * kSub + sub;
}

double Histogram::bucket_floor(std::size_t bucket) {
  if (bucket < kSub) return static_cast<double>(bucket);
  const std::size_t shift = (bucket - kSub) / kSub;
  const std::size_t sub = (bucket - kSub) % kSub;
  return std::ldexp(static_cast<double>(kSub + sub), static_cast<int>(shift));
}

double Histogram::bucket_width(std::size_t bucket) {
  if (bucket < kSub) return 1.0;
  return std::ldexp(1.0, static_cast<int>((bucket - kSub) / kSub));
}

void Histogram::add(double value) {
  value = std::max(value, 0.0);
  ++buckets_[bucket_of(value)];
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
}

void Histogram::merge(const Histogram& other) {
  if (other.count_ == 0) return;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    buckets_[b] += other.buckets_[b];
  }
  min_ = count_ ? std::min(min_, other.min_) : other.min_;
  max_ = count_ ? std::max(max_, other.max_) : other.max_;
  count_ += other.count_;
  sum_ += other.sum_;
}

double Histogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  const double target = std::clamp(q, 0.0, 1.0) * static_cast<double>(count_);
  double cum = 0.0;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    const double c = static_cast<double>(buckets_[b]);
    if (c == 0.0) continue;
    if (cum + c >= target) {
      const double v = bucket_floor(b) + bucket_width(b) * (target - cum) / c;
      return std::clamp(v, min_, max_);
    }
    cum += c;
  }
  return max_;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos =
      std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

Timing summarize(const Histogram& histogram, std::span<const double> ladder) {
  Timing t;
  t.samples = histogram.count();
  t.p50 = histogram.quantile(0.5);
  t.tail_p = tail_percentile(t.samples, ladder);
  t.tail = t.tail_p > 0.0 ? histogram.quantile(t.tail_p / 100.0) : 0.0;
  return t;
}

Timing summarize(const std::vector<double>& values,
                 std::span<const double> ladder) {
  Timing t;
  t.samples = values.size();
  t.p50 = quantile(values, 0.5);
  t.tail_p = tail_percentile(t.samples, ladder);
  t.tail = t.tail_p > 0.0 ? quantile(values, t.tail_p / 100.0) : 0.0;
  return t;
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

FailAccount service_fail_account(std::span<const TenantOutcome> tenants,
                                 std::uint64_t adversary,
                                 std::uint64_t overflow_drops) {
  FailAccount account;
  for (const TenantOutcome& t : tenants) {
    if (t.tenant == adversary) continue;
    account.attempted += t.arrivals;
    account.failed += t.shed;
  }
  account.failed += overflow_drops;
  return account;
}

std::vector<int> allowed_cpus() {
  // Read once, on the first call (from main, before any thread is pinned):
  // later calls from a pinned thread would see only its one CPU.
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) out.push_back(c);
      }
    }
    if (out.empty()) out.push_back(0);
    return out;
  }();
  return cpus;
}

int available_cpus() { return static_cast<int>(allowed_cpus().size()); }

void pin_to_cpu(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

void unpin(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

double mean_of_medians(const std::vector<std::vector<double>>& by_cpu) {
  double sum = 0.0;
  int n = 0;
  for (const std::vector<double>& samples : by_cpu) {
    if (samples.empty()) continue;
    sum += median(samples);
    ++n;
  }
  return n ? sum / n : 0.0;
}

double peak_rss_mb() {
  // VmHWM, not getrusage: Linux carries ru_maxrss across execve, so a
  // process started from a larger parent would report the parent's peak.
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0.0;
}

}  // namespace perfbench
