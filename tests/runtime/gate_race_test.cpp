// Wake-delivery race regressions for the native gate.
//
// The single-lock gate hid two bug classes this suite pins:
//   * a lost-wakeup window: end() only pinged the condition variable when
//     the gate ran hardened, and the plain wait predicate only watched the
//     grant flag — so a plain waiter whose fate arrived WITHOUT a Waker
//     grant (evicted by a reap, or racing a timed withdraw) slept to its
//     full timeout (or forever, for a blocking begin);
//   * wait-accounting drift: hardened sliced waits counted every retry
//     slice as a separate wait, inflating GateStats::waits.
// Both are structural in the sharded gate (every fate transition notifies;
// waits are counted once per logical wait) — these tests keep them so. The
// spin-then-park cases below pin the same properties for a waiter whose
// fate lands while it spins instead of sleeping.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <optional>
#include <thread>

#include "fault/fault.hpp"
#include "runtime/affinity.hpp"
#include "runtime/gate.hpp"
#include "util/units.hpp"

namespace rda {
namespace {

using namespace std::chrono_literals;
using util::MB;

rt::GateConfig plain_config() {
  rt::GateConfig config;
  config.llc_capacity_bytes = static_cast<double>(MB(15));
  config.policy = core::PolicyKind::kStrict;
  return config;
}

/// Failure backstop only — nothing on the success path depends on it.
void await(const std::function<bool()>& pred, const char* what) {
  const auto deadline = std::chrono::steady_clock::now() + 30s;
  while (!pred()) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << what;
    std::this_thread::sleep_for(50us);
  }
}

// The timed-begin-vs-release race, rapid-fire: a release lands around the
// waiter's timeout on every round. Whatever side wins, the round must
// resolve promptly and leave no capacity charged, no waiter parked, and no
// stale grant to poison the NEXT round's begin (same thread, new period).
TEST(GateRace, TimedBeginVsReleaseRaceAlwaysResolves) {
  rt::AdmissionGate gate(plain_config());
  for (int round = 0; round < 120; ++round) {
    const core::PeriodId held = gate.begin(
        ResourceKind::kLLC, static_cast<double>(MB(10)), ReuseLevel::kHigh);
    std::optional<core::PeriodId> got;
    std::thread waiter([&gate, &got, round] {
      // Timeout varies through the contention window so successive rounds
      // land the withdraw on both sides of the release.
      got = gate.begin_for(ResourceKind::kLLC, static_cast<double>(MB(10)),
                           ReuseLevel::kHigh,
                           std::chrono::microseconds(50 + 40 * (round % 8)));
    });
    // No park rendezvous here — the waiter may already have timed out and
    // withdrawn. The stagger sweeps the release across the timeout window.
    std::this_thread::sleep_for(std::chrono::microseconds(20 * (round % 11)));
    gate.end(held);
    waiter.join();
    if (got.has_value()) gate.end(*got);
    EXPECT_LT(gate.usage(ResourceKind::kLLC), 1e-6) << "round " << round;
    EXPECT_EQ(gate.waiting(), 0u) << "round " << round;
  }
  const core::AdmissionCore::AuditReport audit = gate.audit();
  EXPECT_TRUE(audit.ok) << audit.detail;
  const rt::GateStats stats = gate.stats();
  EXPECT_EQ(stats.monitor.begins,
            stats.monitor.ends + stats.monitor.cancels);
}

// A plain (non-hardened) timed waiter whose release arrives mid-wait must
// wake on the release, not sleep out its generous timeout.
TEST(GateRace, ReleaseWakesPlainTimedWaiterPromptly) {
  rt::AdmissionGate gate(plain_config());
  const core::PeriodId held = gate.begin(
      ResourceKind::kLLC, static_cast<double>(MB(10)), ReuseLevel::kHigh);
  std::optional<core::PeriodId> got;
  const auto start = std::chrono::steady_clock::now();
  std::thread waiter([&gate, &got] {
    got = gate.begin_for(ResourceKind::kLLC, static_cast<double>(MB(10)),
                         ReuseLevel::kHigh, 30s);
  });
  await([&gate] { return gate.waiting() == 1; }, "waiter to park");
  gate.end(held);
  waiter.join();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(got.has_value());
  gate.end(*got);
  // Far below the 30 s timeout: the waiter was woken, not timed out.
  EXPECT_LT(elapsed, 10s);
  EXPECT_LT(gate.usage(ResourceKind::kLLC), 1e-6);
}

// A plain timed waiter reaped off the waitlist gets NO grant — only an
// evict notice. The old gate never surfaced those to plain waiters, so the
// reaped waiter slept to its full timeout.
TEST(GateRace, ReapEvictsPlainTimedWaiterPromptly) {
  rt::AdmissionGate gate(plain_config());
  const core::PeriodId held = gate.begin(
      ResourceKind::kLLC, static_cast<double>(MB(10)), ReuseLevel::kHigh);
  std::atomic<std::uint32_t> waiter_token{0};
  std::optional<core::PeriodId> got = core::kInvalidPeriod;
  const auto start = std::chrono::steady_clock::now();
  std::thread waiter([&gate, &waiter_token, &got] {
    waiter_token.store(rt::AdmissionGate::current_thread_token());
    got = gate.begin_for(ResourceKind::kLLC, static_cast<double>(MB(10)),
                         ReuseLevel::kHigh, 30s);
  });
  await([&gate] { return gate.waiting() == 1; }, "waiter to park");
  gate.reap_thread(waiter_token.load());
  waiter.join();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_FALSE(got.has_value());
  EXPECT_LT(elapsed, 10s) << "reaped waiter slept toward its timeout";
  gate.end(held);
  EXPECT_LT(gate.usage(ResourceKind::kLLC), 1e-6);
  EXPECT_EQ(gate.stats().monitor.reclaims, 1u);
}

// The blocking flavour: a reaped blocking waiter must observe
// AdmissionRejected instead of sleeping forever.
TEST(GateRace, ReapEvictsPlainBlockingWaiterWithError) {
  rt::AdmissionGate gate(plain_config());
  const core::PeriodId held = gate.begin(
      ResourceKind::kLLC, static_cast<double>(MB(10)), ReuseLevel::kHigh);
  std::atomic<std::uint32_t> waiter_token{0};
  std::atomic<bool> rejected{false};
  std::thread waiter([&gate, &waiter_token, &rejected] {
    waiter_token.store(rt::AdmissionGate::current_thread_token());
    try {
      const core::PeriodId id = gate.begin(
          ResourceKind::kLLC, static_cast<double>(MB(10)), ReuseLevel::kHigh);
      gate.end(id);
    } catch (const rt::AdmissionRejected&) {
      rejected.store(true);
    }
  });
  await([&gate] { return gate.waiting() == 1; }, "waiter to park");
  gate.reap_thread(waiter_token.load());
  waiter.join();
  EXPECT_TRUE(rejected.load());
  gate.end(held);
  EXPECT_LT(gate.usage(ResourceKind::kLLC), 1e-6);
}

// Hardened sliced waits: however many retry slices the sleeper needs, the
// stats record ONE logical wait (the slices are tallied separately), and
// the monitor's block count stays in lock-step.
TEST(GateRace, HardenedWaitCountsOneLogicalWait) {
  // An armed-but-empty injector hardens the gate without injecting faults.
  fault::FaultInjector injector{fault::FaultPlan{}};
  rt::GateConfig config = plain_config();
  config.fault_injector = &injector;
  config.retry.initial_slice_seconds = 0.0002;
  config.retry.max_slice_seconds = 0.002;
  rt::AdmissionGate gate(config);

  const core::PeriodId held = gate.begin(
      ResourceKind::kLLC, static_cast<double>(MB(10)), ReuseLevel::kHigh);
  std::thread waiter([&gate] {
    const core::PeriodId id = gate.begin(
        ResourceKind::kLLC, static_cast<double>(MB(10)), ReuseLevel::kHigh);
    gate.end(id);
  });
  await([&gate] { return gate.waiting() == 1; }, "waiter to park");
  // Hold long enough for several backoff slices to elapse.
  std::this_thread::sleep_for(20ms);
  gate.end(held);
  waiter.join();

  const rt::GateStats stats = gate.stats();
  EXPECT_EQ(stats.monitor.blocks, 1u);
  EXPECT_EQ(stats.waits, 1u) << "sliced wait counted per-slice";
  EXPECT_GE(stats.wait_slices, 2u);
  EXPECT_EQ(stats.no_sleep_blocks, 0u);
  EXPECT_GT(stats.total_wait_seconds, 0.0);
  EXPECT_LT(gate.usage(ResourceKind::kLLC), 1e-6);
}

// ---------------------------------------------------------------- spinning

constexpr int kSpinRounds = 2000;

/// One round of the spin race on a fresh gate (full spin budget): a waiter
/// thread parks behind a 10 MB hold, and `settle` runs the moment the
/// waiter is on the waitlist — busy polling, so it usually lands inside
/// the waiter's spin. `wait` is the waiter's begin; `may_spin` reports
/// whether the waiter's affinity mask lets it spin at all.
struct SpinRound {
  rt::GateStats stats;
  bool may_spin = false;
};

template <typename Wait, typename Settle>
SpinRound spin_round(Wait&& wait, Settle&& settle) {
  rt::AdmissionGate gate(plain_config());
  const core::PeriodId held = gate.begin(
      ResourceKind::kLLC, static_cast<double>(MB(10)), ReuseLevel::kHigh);
  SpinRound round;
  std::atomic<std::uint32_t> token{0};
  std::thread waiter([&] {
    round.may_spin = rt::affinity_cpus() > 1;
    token.store(rt::AdmissionGate::current_thread_token());
    wait(gate);
  });
  while (gate.waiting() == 0) {
  }
  settle(gate, held, token.load());
  waiter.join();
  round.stats = gate.stats();
  EXPECT_EQ(gate.waiting(), 0u);
  EXPECT_LE(round.stats.spun_waits, round.stats.waits);
  return round;
}

/// Repeats spin_round until a round's wait settled during the spin (true)
/// or the rounds run out; a waiter that may not spin must never spin.
template <typename Wait, typename Settle>
bool some_round_spun(Wait&& wait, Settle&& settle) {
  for (int i = 0; i < kSpinRounds; ++i) {
    const SpinRound round = spin_round(wait, settle);
    EXPECT_EQ(round.stats.waits, 1u);
    if (!round.may_spin) {
      EXPECT_EQ(round.stats.spun_waits, 0u);
      EXPECT_EQ(round.stats.spin_seconds, 0.0);
      return true;  // one CPU: the park path is all there is
    }
    if (round.stats.spun_waits == 1) return true;
  }
  return false;
}

// A grant that lands while the waiter spins admits it without parking.
TEST(GateRace, SpinGrantAdmitsWithoutParking) {
  EXPECT_TRUE(some_round_spun(
      [](rt::AdmissionGate& gate) {
        gate.end(gate.begin(ResourceKind::kLLC, static_cast<double>(MB(10)),
                            ReuseLevel::kHigh));
      },
      [](rt::AdmissionGate& gate, core::PeriodId held, std::uint32_t) {
        gate.end(held);
      }));
}

// A grant that comes after the spin budget ran out still wakes the parked
// waiter, and the expired spin is accounted.
TEST(GateRace, GrantAfterSpinBudgetWakesParkedWaiter) {
  const SpinRound round = spin_round(
      [](rt::AdmissionGate& gate) {
        gate.end(gate.begin(ResourceKind::kLLC, static_cast<double>(MB(10)),
                            ReuseLevel::kHigh));
      },
      [](rt::AdmissionGate& gate, core::PeriodId held, std::uint32_t) {
        std::this_thread::sleep_for(500 * rt::AdmissionGate::kSpinBudget);
        gate.end(held);
      });
  EXPECT_EQ(round.stats.monitor.ends, 2u);
  EXPECT_EQ(round.stats.waits, 1u);
  EXPECT_EQ(round.stats.spun_waits, 0u);
  if (round.may_spin) {
    EXPECT_GE(round.stats.spin_seconds,
              std::chrono::duration<double>(rt::AdmissionGate::kSpinBudget)
                  .count());
  }
}

// A reap during the spin evicts a blocking waiter with AdmissionRejected...
TEST(GateRace, SpinEvictionRejectsBlockingWaiter) {
  EXPECT_TRUE(some_round_spun(
      [](rt::AdmissionGate& gate) {
        EXPECT_THROW(gate.begin(ResourceKind::kLLC,
                                static_cast<double>(MB(10)),
                                ReuseLevel::kHigh),
                     rt::AdmissionRejected);
      },
      [](rt::AdmissionGate& gate, core::PeriodId held, std::uint32_t token) {
        gate.reap_thread(token);
        EXPECT_EQ(gate.stats().monitor.reclaims, 1u);
        gate.end(held);
      }));
}

// ...and a timed waiter with nullopt, long before its timeout.
TEST(GateRace, SpinEvictionEndsTimedWaiter) {
  EXPECT_TRUE(some_round_spun(
      [](rt::AdmissionGate& gate) {
        EXPECT_FALSE(gate.begin_for(ResourceKind::kLLC,
                                    static_cast<double>(MB(10)),
                                    ReuseLevel::kHigh, 30s)
                         .has_value());
      },
      [](rt::AdmissionGate& gate, core::PeriodId held, std::uint32_t token) {
        gate.reap_thread(token);
        gate.end(held);
      }));
}

// A thread whose affinity mask holds one CPU never spins: it would only
// hold the CPU its releaser may need.
TEST(GateRace, OneCpuWaiterNeverSpins) {
  bool pinnable = false;
  std::thread([&pinnable] { pinnable = rt::pin_to_cpu(0); }).join();
  if (!pinnable) return;  // nothing to check where threads cannot be pinned
  for (int i = 0; i < 20; ++i) {
    const SpinRound round = spin_round(
        [](rt::AdmissionGate& gate) {
          ASSERT_TRUE(rt::pin_to_cpu(0));
          gate.end(gate.begin(ResourceKind::kLLC,
                              static_cast<double>(MB(10)), ReuseLevel::kHigh));
        },
        [](rt::AdmissionGate& gate, core::PeriodId held, std::uint32_t) {
          gate.end(held);
        });
    EXPECT_EQ(round.stats.spun_waits, 0u);
    EXPECT_EQ(round.stats.spin_seconds, 0.0);
  }
}

}  // namespace
}  // namespace rda
