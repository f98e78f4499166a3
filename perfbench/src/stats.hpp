// Measurement primitives of the benchmark: latency histograms, the
// percentile rule, metric-name validation, failure accounting and process
// context (CPU count, peak RSS).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

namespace perfbench {

/// Percentiles a timing may be reported at, lowest first.
inline constexpr std::array<double, 6> kPercentileLadder = {
    50.0, 90.0, 99.0, 99.9, 99.99, 99.999};
/// The gated tail stops at p99: deeper tails of a 4-core run measure the
/// host's preemptions, not the program.
inline constexpr std::array<double, 3> kGatedLadder = {50.0, 90.0, 99.0};

/// Highest percentile p of `ladder` that leaves at least `min_beyond` of the
/// `samples` above it (samples · (1 − p/100) ≥ min_beyond). 0 when even the
/// lowest rung has too few samples beyond it.
double tail_percentile(std::uint64_t samples, std::span<const double> ladder,
                       double min_beyond = 10.0);

/// The benchmark's own histogram rather than obs::LatencyHistogram: the
/// instrument must not change when the program under test does.
/// Log-linear histogram of non-negative values (nanoseconds by convention):
/// 1-wide buckets below 64, then 64 equal buckets per power of two (≤ 1.6%
/// relative width). Quantiles interpolate linearly inside the bucket that
/// holds the requested rank and are clamped into the observed [min, max].
class Histogram {
 public:
  Histogram();

  void add(double value);
  void merge(const Histogram& other);

  std::uint64_t count() const { return count_; }
  double mean() const { return count_ ? sum_ / static_cast<double>(count_) : 0.0; }
  /// q in [0, 1]; 0 when empty.
  double quantile(double q) const;

 private:
  static constexpr int kSubBits = 6;
  static constexpr std::size_t kSub = std::size_t{1} << kSubBits;
  static constexpr int kOctaves = 50;

  static std::size_t bucket_of(double value);
  static double bucket_floor(std::size_t bucket);
  static double bucket_width(std::size_t bucket);

  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Interpolated quantile of a small sample set (q in [0, 1]), the same rule
/// as Python's statistics.quantiles(method="inclusive"). 0 when empty.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// A timing as reported: median, the tail at `tail_p`, and the sample count.
struct Timing {
  double p50 = 0.0;
  double tail_p = 0.0;  ///< percentile of `tail` (0 = too few samples)
  double tail = 0.0;
  std::uint64_t samples = 0;
};
Timing summarize(const Histogram& histogram, std::span<const double> ladder);
Timing summarize(const std::vector<double>& values,
                 std::span<const double> ladder);

/// Metric names: 1–64 characters of [A-Za-z0-9_.-], starting with a letter
/// or digit.
bool valid_metric_name(std::string_view name);

/// One tenant's arrivals and sheds, as the service reports them.
struct TenantOutcome {
  std::uint64_t tenant = 0;
  std::uint64_t arrivals = 0;
  std::uint64_t shed = 0;
};

/// Operations attempted and failed. For the service only honest tenants
/// count: refusing the adversary is the defence working, not a failure.
struct FailAccount {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double fraction() const {
    return attempted ? static_cast<double>(failed) /
                           static_cast<double>(attempted)
                     : 0.0;
  }
};

/// Honest sheds plus queue-overflow drops over honest arrivals. Overflow
/// drops carry no tenant, so all of them are charged to the honest side.
FailAccount service_fail_account(std::span<const TenantOutcome> tenants,
                                 std::uint64_t adversary,
                                 std::uint64_t overflow_drops);

/// CPUs this process may run on, ascending (as at the first call).
std::vector<int> allowed_cpus();
int available_cpus();
/// Pins the calling thread to `cpu`, or lets it run on all of `cpus`.
/// The vCPUs of a shared host differ in speed (a busy neighbour on the same
/// physical core), so the single-threaded workloads spread their work evenly
/// over the CPUs instead of leaving the result to where the scheduler put
/// the thread. Threads inherit the mask of the thread that creates them.
void pin_to_cpu(int cpu);
void unpin(const std::vector<int>& cpus);
/// Mean over CPUs of the median of each CPU's samples (empty CPUs skipped).
double mean_of_medians(const std::vector<std::vector<double>>& by_cpu);
/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

}  // namespace perfbench
