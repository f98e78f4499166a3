// Seeded, deterministic fault injection.
//
// A FaultPlan is a script of faults — thread death while admitted or
// waitlisted, lost/delayed wakes, corrupted counter observations — each
// armed at a specific HOOK (admit, block, wake, release) and firing on the
// Nth matching consult of that hook. Injection points in core/admission,
// runtime/gate and sim/engine call consult() at well-defined,
// deterministic places (never from a timer), so the same plan + workload
// replays the same fault sequence bit-for-bit: the property tools/fault_matrix
// relies on to byte-compare runs.
//
// Everything is opt-in: every hook site holds a nullable FaultInjector* and
// the default (nullptr) costs one branch — the production hot path is
// untouched.
#pragma once

#include <cstdint>
#include <mutex>
#include <string_view>
#include <vector>

#include "sim/ids.hpp"

namespace rda::fault {

enum class FaultKind : std::uint8_t {
  kThreadDeath,     ///< thread disappears mid-period (admitted or waitlisted)
  kLostWake,        ///< an admission grant's wake notification is dropped
  kDelayedWake,     ///< the wake is delivered late (native gate only)
  kCorruptCounter,  ///< observed peak occupancy scaled by `factor`
};

std::string_view to_string(FaultKind kind);

/// Where in the lifecycle a fault can be armed. Each hook site consults the
/// injector exactly once per event of that type, in substrate-deterministic
/// order.
enum class Hook : std::uint8_t {
  kAdmit,    ///< after a period was admitted on the begin path
  kBlock,    ///< after a period was parked on the waitlist
  kWake,     ///< when an admission grant is about to be delivered
  kRelease,  ///< when a completed period's counters are observed
};

std::string_view to_string(Hook hook);

struct FaultSpec {
  FaultKind kind = FaultKind::kThreadDeath;
  Hook hook = Hook::kAdmit;
  /// Restricts the fault to one thread; kInvalidThread matches any.
  sim::ThreadId thread = sim::kInvalidThread;
  /// Fires on the Nth matching consult (1-based). With several specs on the
  /// same hook, at most one fires per consult; a spec whose count was
  /// reached while another fired takes the next matching consult.
  std::uint64_t at_count = 1;
  /// kCorruptCounter: multiplier applied to the observed peak occupancy.
  double factor = 1.0;
  /// kDelayedWake: how long the native gate sits on the notification.
  double delay_seconds = 0.0;
};

/// An ordered script of faults. Build one explicitly, or derive a pseudo-
/// random plan from a seed (every draw comes from util::Rng, so a seed fully
/// determines the plan).
class FaultPlan {
 public:
  FaultPlan() = default;

  FaultPlan& add(FaultSpec spec) {
    specs_.push_back(spec);
    return *this;
  }
  const std::vector<FaultSpec>& specs() const { return specs_; }
  bool empty() const { return specs_.empty(); }

  /// `fault_count` faults drawn from {thread death, lost wake, corrupt
  /// counter} spread across the first `thread_count` threads and the first
  /// few matching consults.
  static FaultPlan random(std::uint64_t seed, std::size_t fault_count,
                          std::size_t thread_count);

 private:
  std::vector<FaultSpec> specs_;
};

/// Arms a plan and answers hook-site consults. One spec fires at most once;
/// consult order is the only clock (no wall time), so firing is
/// deterministic per plan. Internally synchronized: the native gate consults
/// from multiple threads under its own mutex, but scenario drivers may also
/// probe fired() concurrently.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  /// Reports the hook event; returns the spec that fires on it, or nullptr.
  /// The returned pointer stays valid for the injector's lifetime.
  const FaultSpec* consult(Hook hook,
                           sim::ThreadId thread = sim::kInvalidThread);

  /// Specs that have fired, in firing order.
  std::vector<FaultSpec> fired() const;
  std::uint64_t consults() const;
  std::size_t armed() const;  ///< specs not yet fired

 private:
  struct Armed {
    FaultSpec spec;
    std::uint64_t matches = 0;
    bool fired = false;
  };

  mutable std::mutex mu_;
  std::vector<Armed> armed_;
  std::vector<FaultSpec> fired_log_;
  std::uint64_t consults_ = 0;
};

}  // namespace rda::fault
