// Open-loop arrival generation for the service front end.
//
// The ROADMAP's north star is a front end serving millions of users; the
// admission engine therefore has to be driven the way real traffic drives
// it — open loop, where arrivals keep coming regardless of how far behind
// the system is — not the closed-loop "submit, wait, submit" shape the
// figure benches use. A generator is a pure function of its seed: it
// streams arrivals one at a time in O(1) state, so a run over millions of
// short periods is reproducible bit-for-bit and two routing policies can
// be compared on the identical trace.
//
// Three arrival shapes, per the evaluation matrix:
//   * Poisson  — homogeneous rate λ (exponential inter-arrival gaps),
//   * diurnal  — nonhomogeneous λ(t) = λ·(1 + 0.8·sin(2πt/1 s)) via
//                thinning (the classic day/night load swing, compressed
//                to one second),
//   * bursty   — two-state MMPP: an ON state at 8× the OFF-state rate,
//                ON 1/8 of the time in 20 ms episodes on average, with
//                exponential state holding times.
// Every shape preserves the configured mean rate, so shapes are compared
// at equal offered load.
#pragma once

#include <cstdint>
#include <deque>
#include <string_view>

#include "util/rng.hpp"

namespace rda::service {

enum class ArrivalShape {
  kPoisson,
  kDiurnal,
  kBursty,
};

std::string_view to_string(ArrivalShape shape);

/// Adversarial tenant behaviors layered over any base shape. The transform
/// applies AFTER the base draw, so a kNone stream is bit-identical to one
/// generated before this extension existed.
enum class AdversaryKind {
  kNone,
  /// Declares factor× the working set it will actually touch — reserving
  /// LLC it never fills, starving honest tenants at admission.
  kWssInflator,
  /// Touches factor× the working set it declares — slipping past admission
  /// cheap, then thrashing the nodes it lands on.
  kUnderDeclarer,
  /// Splits every request into `churn_pieces` back-to-back stubs (full
  /// declared WSS each, 1/pieces of the service time) — same work, pieces×
  /// the admission/audit traffic.
  kChurn,
};

std::string_view to_string(AdversaryKind kind);

struct AdversaryConfig {
  AdversaryKind kind = AdversaryKind::kNone;
  /// The misbehaving tenant (1-based; others in the stream stay honest).
  std::uint64_t tenant = 1;
  /// Inflation / under-declaration severity (observed-vs-declared ratio is
  /// 1/factor for the inflator, factor for the under-declarer).
  double factor = 8.0;
  std::uint32_t churn_pieces = 8;
};

/// One submission hitting the front door.
struct Arrival {
  double time = 0.0;             ///< seconds since stream start
  std::uint64_t seq = 0;         ///< 0-based arrival index
  std::uint64_t tenant = 1;      ///< 1-based tenant id (locality key)
  double demand_bytes = 0.0;     ///< declared LLC working set
  double service_seconds = 0.0;  ///< base service time once admitted
  /// Working set the request will ACTUALLY touch; 0 = the declaration is
  /// truthful. Only adversarial streams set it — it is what the service
  /// layer's occupancy model reports to the audit path.
  double true_demand_bytes = 0.0;
};

struct ArrivalConfig {
  ArrivalShape shape = ArrivalShape::kPoisson;
  /// Long-run mean arrival rate (arrivals/second) for every shape.
  double rate = 20000.0;
  std::uint64_t seed = 1;

  /// Tenants draw 1..tenants; tenant 1 is "hot" and receives
  /// `hot_tenant_share` of the traffic (its reuse makes it the
  /// LLC-hit-sensitive tenant locality routing is supposed to help).
  std::uint32_t tenants = 8;
  double hot_tenant_share = 0.4;

  /// Declared demand ~ uniform in mean·(1 ± spread); same for service time.
  double demand_mean_bytes = 2.0 * 1024.0 * 1024.0;
  double demand_spread = 0.5;
  double service_mean_seconds = 2.0e-3;
  double service_spread = 0.5;

  /// Adversarial-tenant overlay (kNone = every tenant honest; the stream
  /// is then bit-identical to the pre-adversary generator).
  AdversaryConfig adversary{};
};

/// Anything that can feed the front end one arrival at a time. The seeded
/// generator is the one source here; a wrapper (one that times each call,
/// say) can stand in for it without the service layer noticing.
class ArrivalSource {
 public:
  virtual ~ArrivalSource() = default;
  virtual Arrival next() = 0;
};

/// Streams the arrival process defined by the config. next() is O(1);
/// calling it n times yields the first n arrivals of the (infinite) trace.
class ArrivalGenerator final : public ArrivalSource {
 public:
  explicit ArrivalGenerator(ArrivalConfig config);

  Arrival next() override;

  const ArrivalConfig& config() const { return config_; }

 private:
  double next_gap();

  ArrivalConfig config_;
  util::Rng rng_;
  double time_ = 0.0;
  std::uint64_t seq_ = 0;
  // kBursty state machine.
  bool burst_on_ = false;
  double state_ends_ = 0.0;
  /// kChurn stubs awaiting emission (seq assigned when they leave, so the
  /// stream's seq stays dense and monotonic).
  std::deque<Arrival> pending_;
};

}  // namespace rda::service
