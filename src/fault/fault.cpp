#include "fault/fault.hpp"

#include "util/rng.hpp"

namespace rda::fault {

std::string_view to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kThreadDeath: return "thread_death";
    case FaultKind::kLostWake: return "lost_wake";
    case FaultKind::kDelayedWake: return "delayed_wake";
    case FaultKind::kCorruptCounter: return "corrupt_counter";
  }
  return "?";
}

std::string_view to_string(Hook hook) {
  switch (hook) {
    case Hook::kAdmit: return "admit";
    case Hook::kBlock: return "block";
    case Hook::kWake: return "wake";
    case Hook::kRelease: return "release";
  }
  return "?";
}

FaultPlan FaultPlan::random(std::uint64_t seed, std::size_t fault_count,
                            std::size_t thread_count) {
  util::Rng rng(seed);
  FaultPlan plan;
  for (std::size_t i = 0; i < fault_count; ++i) {
    FaultSpec spec;
    switch (rng.next_below(3)) {
      case 0:
        spec.kind = FaultKind::kThreadDeath;
        // Split deaths between the admitted and the waitlisted state.
        spec.hook = rng.next_bool(0.5) ? Hook::kAdmit : Hook::kBlock;
        break;
      case 1:
        spec.kind = FaultKind::kLostWake;
        spec.hook = Hook::kWake;
        break;
      default:
        spec.kind = FaultKind::kCorruptCounter;
        spec.hook = Hook::kRelease;
        spec.factor = rng.next_double(0.1, 10.0);
        break;
    }
    if (thread_count > 0 && rng.next_bool(0.5)) {
      spec.thread = static_cast<sim::ThreadId>(rng.next_below(
          static_cast<std::uint64_t>(thread_count)));
    }
    spec.at_count = 1 + rng.next_below(4);
    plan.add(spec);
  }
  return plan;
}

FaultInjector::FaultInjector(FaultPlan plan) {
  armed_.reserve(plan.specs().size());
  for (const FaultSpec& spec : plan.specs()) {
    armed_.push_back(Armed{spec, 0, false});
  }
}

const FaultSpec* FaultInjector::consult(Hook hook, sim::ThreadId thread) {
  std::lock_guard<std::mutex> guard(mu_);
  ++consults_;
  const FaultSpec* firing = nullptr;
  for (Armed& armed : armed_) {
    if (armed.fired) continue;
    const FaultSpec& spec = armed.spec;
    if (spec.hook != hook) continue;
    if (spec.thread != sim::kInvalidThread && spec.thread != thread) continue;
    ++armed.matches;
    // `>=` not `==`: a spec whose count was reached while an earlier spec
    // fired on the same consult takes the next matching one.
    if (firing == nullptr && armed.matches >= spec.at_count) {
      armed.fired = true;
      fired_log_.push_back(spec);
      firing = &armed.spec;
    }
  }
  return firing;
}

std::vector<FaultSpec> FaultInjector::fired() const {
  std::lock_guard<std::mutex> guard(mu_);
  return fired_log_;
}

std::uint64_t FaultInjector::consults() const {
  std::lock_guard<std::mutex> guard(mu_);
  return consults_;
}

std::size_t FaultInjector::armed() const {
  std::lock_guard<std::mutex> guard(mu_);
  std::size_t pending = 0;
  for (const Armed& armed : armed_) {
    if (!armed.fired) ++pending;
  }
  return pending;
}

}  // namespace rda::fault
