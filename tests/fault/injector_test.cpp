// FaultInjector unit tests: consult-count determinism, hook/thread/node
// targeting, and the one-fire-per-consult fairness between same-hook specs.
#include "fault/fault.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace rda::fault {
namespace {

FaultSpec spec(FaultKind kind, Hook hook, std::uint64_t at_count = 1) {
  FaultSpec s;
  s.kind = kind;
  s.hook = hook;
  s.at_count = at_count;
  return s;
}

TEST(FaultInjector, FiresOnNthMatchingConsultExactlyOnce) {
  FaultPlan plan;
  plan.add(spec(FaultKind::kThreadDeath, Hook::kAdmit, 3));
  FaultInjector injector(std::move(plan));

  EXPECT_EQ(injector.consult(Hook::kAdmit), nullptr);
  EXPECT_EQ(injector.consult(Hook::kAdmit), nullptr);
  const FaultSpec* fired = injector.consult(Hook::kAdmit);
  ASSERT_NE(fired, nullptr);
  EXPECT_EQ(fired->kind, FaultKind::kThreadDeath);
  // A spec fires at most once.
  EXPECT_EQ(injector.consult(Hook::kAdmit), nullptr);
  EXPECT_EQ(injector.armed(), 0u);
  ASSERT_EQ(injector.fired().size(), 1u);
  EXPECT_EQ(injector.consults(), 4u);
}

TEST(FaultInjector, HookMismatchNeverMatches) {
  FaultPlan plan;
  plan.add(spec(FaultKind::kLostWake, Hook::kWake));
  FaultInjector injector(std::move(plan));

  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(injector.consult(Hook::kAdmit), nullptr);
    EXPECT_EQ(injector.consult(Hook::kRelease), nullptr);
  }
  const FaultSpec* fired = injector.consult(Hook::kWake);
  ASSERT_NE(fired, nullptr);
  EXPECT_EQ(fired->kind, FaultKind::kLostWake);
}

TEST(FaultInjector, ThreadTargetingRestrictsMatches) {
  FaultSpec targeted = spec(FaultKind::kThreadDeath, Hook::kAdmit);
  targeted.thread = 2;
  FaultPlan plan;
  plan.add(targeted);
  FaultInjector injector(std::move(plan));

  EXPECT_EQ(injector.consult(Hook::kAdmit, 1), nullptr);
  EXPECT_EQ(injector.consult(Hook::kAdmit, 3), nullptr);
  const FaultSpec* fired = injector.consult(Hook::kAdmit, 2);
  ASSERT_NE(fired, nullptr);
  EXPECT_EQ(fired->thread, 2u);
}

TEST(FaultInjector, UntargetedSpecMatchesAnyThread) {
  FaultPlan plan;
  plan.add(spec(FaultKind::kThreadDeath, Hook::kAdmit, 2));
  FaultInjector injector(std::move(plan));

  EXPECT_EQ(injector.consult(Hook::kAdmit, 7), nullptr);
  EXPECT_NE(injector.consult(Hook::kAdmit, 9), nullptr);
}

TEST(FaultInjector, AtMostOneSpecFiresPerConsult) {
  // Two specs armed on the same hook with at_count=1: the first consult can
  // satisfy both, but only one fires; the runner-up takes the next matching
  // consult (matches >= at_count) instead of being starved forever.
  FaultPlan plan;
  plan.add(spec(FaultKind::kThreadDeath, Hook::kAdmit));
  plan.add(spec(FaultKind::kCorruptCounter, Hook::kAdmit));
  FaultInjector injector(std::move(plan));

  const FaultSpec* first = injector.consult(Hook::kAdmit);
  ASSERT_NE(first, nullptr);
  const FaultSpec* second = injector.consult(Hook::kAdmit);
  ASSERT_NE(second, nullptr);
  EXPECT_NE(first->kind, second->kind);
  EXPECT_EQ(injector.armed(), 0u);
  EXPECT_EQ(injector.consult(Hook::kAdmit), nullptr);
}

TEST(FaultInjector, FiredLogPreservesFiringOrder) {
  FaultPlan plan;
  plan.add(spec(FaultKind::kLostWake, Hook::kWake, 2));
  plan.add(spec(FaultKind::kThreadDeath, Hook::kAdmit, 1));
  FaultInjector injector(std::move(plan));

  injector.consult(Hook::kAdmit);  // thread death fires first
  injector.consult(Hook::kWake);
  injector.consult(Hook::kWake);  // lost wake fires second

  const std::vector<FaultSpec> fired = injector.fired();
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[0].kind, FaultKind::kThreadDeath);
  EXPECT_EQ(fired[1].kind, FaultKind::kLostWake);
}

std::string plan_fingerprint(const FaultPlan& plan) {
  std::string out;
  for (const FaultSpec& s : plan.specs()) {
    out += std::string(to_string(s.kind)) + "/" +
           std::string(to_string(s.hook)) + "/t" + std::to_string(s.thread) +
           "/n" + std::to_string(s.at_count) + "/f" +
           std::to_string(s.factor) + ";";
  }
  return out;
}

TEST(FaultInjector, RandomPlanIsSeedDeterministic) {
  const FaultPlan a = FaultPlan::random(42, 4, 4);
  const FaultPlan b = FaultPlan::random(42, 4, 4);
  EXPECT_EQ(a.specs().size(), 4u);
  EXPECT_EQ(plan_fingerprint(a), plan_fingerprint(b));
}

TEST(FaultInjector, DifferentSeedsProduceDifferentPlans) {
  std::string first = plan_fingerprint(FaultPlan::random(1, 4, 4));
  bool any_different = false;
  for (std::uint64_t seed = 2; seed < 8; ++seed) {
    if (plan_fingerprint(FaultPlan::random(seed, 4, 4)) != first) {
      any_different = true;
      break;
    }
  }
  EXPECT_TRUE(any_different);
}

TEST(FaultInjector, ReplayingConsultSequenceReplaysFirings) {
  // The whole point of the design: consult order is the only clock, so the
  // same plan and consult sequence fire identically on every run.
  const std::vector<Hook> sequence = {Hook::kAdmit, Hook::kBlock, Hook::kWake,
                                      Hook::kAdmit, Hook::kWake,
                                      Hook::kRelease, Hook::kAdmit};
  auto run = [&] {
    FaultInjector injector(FaultPlan::random(11, 3, 2));
    std::string log;
    for (Hook h : sequence) {
      for (sim::ThreadId t = 0; t < 2; ++t) {
        const FaultSpec* f = injector.consult(h, t);
        if (f != nullptr) {
          log += std::string(to_string(f->kind)) + "@t" + std::to_string(t) +
                 ";";
        }
      }
    }
    return log;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace rda::fault
