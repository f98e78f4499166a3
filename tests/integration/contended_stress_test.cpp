// Contended admission stress for the sharded core (satellite of the
// shard-the-core PR).
//
// Two attack angles:
//   * ContendedStress.*Churn*: 16 real threads hammer the native gate with
//     seeded random begin/try/timed traffic concurrently — no scripting, no
//     expected event stream; what must hold is the QUIESCENT state (usage
//     drained, waitlist empty, oversubscription tally zero, shard audit
//     clean) and the begin/end/cancel conservation laws. Runs under TSan in
//     tier-1, where the lock-free calm lane gets its memory-order checkup.
//   * AdmissionParity.Scripted*: seeded scripted sequences over 16 virtual
//     threads, driven through BOTH substrates (sim adapter and native gate,
//     drivers serialized exactly like parity_test.cpp) and compared
//     event-for-event. Expected admit/deny fates and a legal end ordering
//     are derived by replaying the generated ops through a bare reference
//     AdmissionCore first — the generator never guesses.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/admission.hpp"
#include "core/rda_scheduler.hpp"
#include "obs/recorder.hpp"
#include "runtime/gate.hpp"
#include "sim/calibration.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace rda {
namespace {

using namespace std::chrono_literals;
using util::MB;

constexpr double kCapacity = 15.0 * 1024.0 * 1024.0;
constexpr int kVThreads = 16;

// ---------------------------------------------------------------------------
// Part 1: free-running 16-thread churn against the native gate.
// ---------------------------------------------------------------------------

struct ChurnTotals {
  std::atomic<std::uint64_t> admitted{0};
  std::atomic<std::uint64_t> timed_out{0};
  std::atomic<std::uint64_t> try_denied{0};
};

void churn_worker(rt::AdmissionGate& gate, std::uint64_t seed, int ops,
                  ChurnTotals& totals) {
  util::Rng rng(seed);
  for (int op = 0; op < ops; ++op) {
    const double demand =
        static_cast<double>(MB(1)) * (0.5 + 5.5 * rng.next_double());
    if (rng.next_double() < 0.2) {
      const auto got = gate.try_begin(ResourceKind::kLLC, demand,
                                      ReuseLevel::kHigh);
      if (got.has_value()) {
        totals.admitted.fetch_add(1, std::memory_order_relaxed);
        gate.end(*got);
      } else {
        totals.try_denied.fetch_add(1, std::memory_order_relaxed);
      }
    } else {
      const auto got = gate.begin_for(
          ResourceKind::kLLC, demand, ReuseLevel::kHigh,
          std::chrono::microseconds(500 + rng.next_below(20000)));
      if (got.has_value()) {
        totals.admitted.fetch_add(1, std::memory_order_relaxed);
        if (rng.next_double() < 0.3) std::this_thread::yield();
        gate.end(*got);
      } else {
        totals.timed_out.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
}

void expect_quiescent(rt::AdmissionGate& gate) {
  EXPECT_EQ(gate.waiting(), 0u);
  EXPECT_LT(gate.usage(ResourceKind::kLLC), 1e-6);
  EXPECT_NEAR(gate.oversubscribed(ResourceKind::kLLC), 0.0, 1e-6);
  const core::AdmissionCore::AuditReport audit = gate.audit();
  EXPECT_TRUE(audit.ok) << audit.detail;
  const rt::GateStats stats = gate.stats();
  // Every begin resolved as an end or a cancel — nothing leaked.
  EXPECT_EQ(stats.monitor.begins, stats.monitor.ends + stats.monitor.cancels);
  // Every monitor block is accounted by exactly one wait-channel outcome.
  EXPECT_LE(stats.waits + stats.no_sleep_blocks,
            stats.monitor.blocks + stats.lost_wakes);
}

void run_churn(rt::GateConfig config, std::uint64_t seed, int ops) {
  config.llc_capacity_bytes = kCapacity;
  rt::AdmissionGate gate(config);
  ChurnTotals totals;
  std::vector<std::thread> workers;
  workers.reserve(kVThreads);
  for (int t = 0; t < kVThreads; ++t) {
    workers.emplace_back(churn_worker, std::ref(gate), seed + t, ops,
                         std::ref(totals));
  }
  for (std::thread& w : workers) w.join();
  // The load is feasible (every demand fits alone), so starvation-free
  // progress means a healthy majority of ops admit even on a small host.
  EXPECT_GT(totals.admitted.load(), static_cast<std::uint64_t>(ops));
  expect_quiescent(gate);
}

TEST(ContendedStress, SixteenThreadChurnDrainsClean) {
  rt::GateConfig config;
  config.policy = core::PolicyKind::kStrict;
  run_churn(config, 2024, 200);
}

TEST(ContendedStress, SixteenThreadChurnCompromiseFastPath) {
  rt::GateConfig config;
  config.policy = core::PolicyKind::kCompromise;
  run_churn(config, 4048, 200);
}

TEST(ContendedStress, SixteenThreadChurnHardenedSlicedWaits) {
  // An armed-but-empty injector forces every wait onto the hardened sliced
  // path and every core call onto the slow lane — the opposite extreme
  // from the calm-lane runs above.
  fault::FaultInjector injector{fault::FaultPlan{}};
  rt::GateConfig config;
  config.policy = core::PolicyKind::kStrict;
  config.fault_injector = &injector;
  config.retry.initial_slice_seconds = 0.0002;
  run_churn(config, 8096, 80);
}

// ---------------------------------------------------------------------------
// Part 2: seeded scripted parity over 16 virtual threads.
// ---------------------------------------------------------------------------

struct Op {
  enum Kind { kBegin, kEnd, kTryBegin } kind = kBegin;
  int vt = 0;
  double demand = 0.0;       ///< bytes (begins only)
  bool expect_admit = true;  ///< begins: immediately admitted?
};

std::string vt_label(int vt) { return "vt" + std::to_string(vt); }

/// Generates a seeded op script whose admit/deny expectations and end
/// ordering are DERIVED, not guessed: every candidate op is replayed
/// through a bare AdmissionCore as it is emitted, so an end is only ever
/// scripted for a period the reference shows admitted, and expect_admit
/// records the reference fate. Ends with a full drain.
std::vector<Op> make_script(std::uint64_t seed, core::WakeOrder wake_order,
                            int rounds) {
  core::AdmissionConfig config;
  config.llc_capacity_bytes = kCapacity;
  config.policy = core::PolicyKind::kStrict;
  config.monitor.wake_order = wake_order;
  core::AdmissionCore core(config);

  enum class State { kIdle, kParked, kAdmitted };
  struct Vt {
    State state = State::kIdle;
    core::PeriodId id = core::kInvalidPeriod;
  };
  std::array<Vt, kVThreads> vts;
  util::Rng rng(seed);
  std::vector<Op> script;
  double now = 0.0;

  const auto reclassify = [&] {
    for (Vt& vt : vts) {
      if (vt.state == State::kParked && core.is_admitted(vt.id)) {
        vt.state = State::kAdmitted;
      }
    }
  };
  const auto admit_one = [&](int vt, bool as_try) {
    core::AdmitRequest request;
    request.thread = static_cast<sim::ThreadId>(vt);
    request.process = static_cast<sim::ProcessId>(vt);
    request.demands = {{ResourceKind::kLLC,
                        static_cast<double>(MB(1 + rng.next_below(7)))}};
    request.reuse = ReuseLevel::kHigh;
    const double demand = request.demands[0].amount;
    const core::AdmitTicket ticket = core.admit(std::move(request), now);
    if (as_try && !ticket.admitted) {
      // A denied try-begin withdraws instead of waiting.
      EXPECT_TRUE(core.withdraw(ticket.id, now));
      script.push_back({Op::kTryBegin, vt, demand, false});
      return;
    }
    script.push_back({Op::kBegin, vt, demand, ticket.admitted});
    vts[static_cast<std::size_t>(vt)] = {
        ticket.admitted ? State::kAdmitted : State::kParked, ticket.id};
  };
  const auto release_one = [&](int vt) {
    core.release(vts[static_cast<std::size_t>(vt)].id, {}, now);
    script.push_back({Op::kEnd, vt, 0.0, false});
    vts[static_cast<std::size_t>(vt)] = {};
    reclassify();
  };

  for (int round = 0; round < rounds; ++round) {
    now += 1.0;
    const int vt = static_cast<int>(rng.next_below(kVThreads));
    switch (vts[static_cast<std::size_t>(vt)].state) {
      case State::kIdle:
        admit_one(vt, /*as_try=*/rng.next_double() < 0.15);
        break;
      case State::kAdmitted:
        release_one(vt);
        break;
      case State::kParked:
        // A parked vthread's OS thread is asleep; act elsewhere. Release
        // the lowest admitted period so the waiter makes progress.
        for (int other = 0; other < kVThreads; ++other) {
          if (vts[static_cast<std::size_t>(other)].state ==
              State::kAdmitted) {
            release_one(other);
            break;
          }
        }
        break;
    }
  }
  // Drain: release admitted periods until every vthread is idle. Parked
  // periods are woken by those releases (demands are individually
  // feasible) and then released in turn.
  for (bool active = true; active;) {
    active = false;
    now += 1.0;
    for (int vt = 0; vt < kVThreads; ++vt) {
      if (vts[static_cast<std::size_t>(vt)].state == State::kAdmitted) {
        release_one(vt);
        active = true;
        break;
      }
    }
    if (!active) {
      for (const Vt& vt : vts) {
        EXPECT_NE(vt.state, State::kParked)
            << "drain left a parked vthread with no admitted period";
      }
    }
  }
  return script;
}

struct EventKey {
  obs::EventKind kind;
  std::string label;
  double demand;

  bool operator==(const EventKey& o) const {
    return kind == o.kind && label == o.label && demand == o.demand;
  }
};

std::vector<EventKey> keys_of(const std::vector<obs::Event>& events) {
  std::vector<EventKey> keys;
  keys.reserve(events.size());
  for (const obs::Event& e : events) {
    keys.push_back({e.kind, std::string(e.label), e.demand});
  }
  return keys;
}

/// Sim-substrate replay: single-threaded, PhaseGate hooks called directly.
class SimDriver {
 public:
  SimDriver(const std::vector<Op>& script, core::WakeOrder wake_order) {
    core::RdaOptions options;
    options.monitor.wake_order = wake_order;
    options.trace_sink = &recorder_;
    core::RdaScheduler gate(kCapacity, sim::Calibration{}, options);
    gate.attach(waker_);
    std::array<sim::PhaseSpec, kVThreads> active_phase;
    double now = 0.0;
    for (const Op& op : script) {
      now += 1.0;
      const auto vt = static_cast<sim::ThreadId>(op.vt);
      const auto process = static_cast<sim::ProcessId>(op.vt);
      switch (op.kind) {
        case Op::kBegin: {
          sim::PhaseSpec phase;
          phase.wss_bytes = static_cast<std::uint64_t>(op.demand);
          phase.reuse = ReuseLevel::kHigh;
          phase.marked = true;
          phase.label = vt_label(op.vt);
          active_phase[static_cast<std::size_t>(op.vt)] = phase;
          const sim::BeginResult r =
              gate.on_phase_begin(vt, process, phase, now);
          EXPECT_EQ(r.admit, op.expect_admit) << "sim begin " << phase.label;
          break;
        }
        case Op::kTryBegin: {
          sim::PhaseSpec phase;
          phase.wss_bytes = static_cast<std::uint64_t>(op.demand);
          phase.reuse = ReuseLevel::kHigh;
          phase.marked = true;
          phase.label = vt_label(op.vt);
          const sim::BeginResult r =
              gate.on_phase_begin(vt, process, phase, now);
          EXPECT_FALSE(r.admit) << "sim try_begin " << phase.label;
          if (!r.admit) {
            const auto id = gate.core().active_for_thread(vt);
            EXPECT_TRUE(id.has_value());
            if (id.has_value()) {
              EXPECT_TRUE(gate.core().withdraw(*id, now));
            }
          }
          break;
        }
        case Op::kEnd:
          gate.on_phase_end(vt, process,
                            active_phase[static_cast<std::size_t>(op.vt)],
                            sim::PhaseObservation{}, now);
          break;
      }
    }
    stats_ = gate.monitor_stats();
    events_ = recorder_.events();
  }

  std::vector<EventKey> keys() const { return keys_of(events_); }
  const core::MonitorStats& stats() const { return stats_; }

 private:
  struct NullWaker final : sim::ThreadWaker {
    void wake(sim::ThreadId) override {}  // wake order is read from events
  };
  NullWaker waker_;
  obs::EventRecorder recorder_{1 << 14};
  core::MonitorStats stats_;
  std::vector<obs::Event> events_;
};

/// Native-substrate replay with real OS threads, serialized like
/// parity_test.cpp's driver but with failure deadlines instead of
/// unbounded spins (a regression must fail the test, not hang tier-1).
class NativeDriver {
 public:
  NativeDriver(const std::vector<Op>& script, core::WakeOrder wake_order) {
    rt::GateConfig config;
    config.llc_capacity_bytes = kCapacity;
    config.monitor.wake_order = wake_order;
    config.trace_sink = &recorder_;
    rt::AdmissionGate gate(config);

    std::array<std::atomic<core::PeriodId>, kVThreads> ids{};
    std::array<std::atomic<bool>, kVThreads> done{};
    std::array<std::optional<std::thread>, kVThreads> parked;

    const auto deadline_spin = [](const auto& pred, const char* what) {
      const auto deadline = std::chrono::steady_clock::now() + 30s;
      while (!pred()) {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline) << what;
        std::this_thread::sleep_for(50us);
      }
    };
    const auto settle = [&](int vt) {
      const auto slot = static_cast<std::size_t>(vt);
      deadline_spin(
          [&] { return done[slot].load(std::memory_order_acquire); },
          "vthread begin to settle");
      if (parked[slot].has_value()) {
        parked[slot]->join();
        parked[slot].reset();
      }
    };

    for (const Op& op : script) {
      const auto slot = static_cast<std::size_t>(op.vt);
      switch (op.kind) {
        case Op::kBegin: {
          done[slot].store(false, std::memory_order_relaxed);
          const std::size_t waiting_before = gate.waiting();
          std::thread worker([&gate, &ids, &done, op, slot] {
            const core::PeriodId id =
                gate.begin(ResourceKind::kLLC, op.demand, ReuseLevel::kHigh,
                           vt_label(op.vt));
            ids[slot].store(id, std::memory_order_relaxed);
            done[slot].store(true, std::memory_order_release);
          });
          if (op.expect_admit) {
            worker.join();
          } else {
            deadline_spin([&] { return gate.waiting() > waiting_before; },
                          "vthread to park");
            parked[slot] = std::move(worker);
          }
          break;
        }
        case Op::kTryBegin: {
          std::thread worker([&gate, op] {
            const auto denied = gate.try_begin(
                ResourceKind::kLLC, op.demand, ReuseLevel::kHigh,
                vt_label(op.vt));
            EXPECT_FALSE(denied.has_value()) << "native try_begin " << op.vt;
          });
          worker.join();
          break;
        }
        case Op::kEnd:
          settle(op.vt);
          gate.end(ids[slot].load(std::memory_order_relaxed));
          break;
      }
    }
    const core::AdmissionCore::AuditReport audit = gate.audit();
    EXPECT_TRUE(audit.ok) << audit.detail;
    EXPECT_LT(gate.usage(ResourceKind::kLLC), 1e-6);
    stats_ = gate.stats();
    events_ = recorder_.events();
  }

  std::vector<EventKey> keys() const { return keys_of(events_); }
  const core::MonitorStats& stats() const { return stats_.monitor; }

 private:
  obs::EventRecorder recorder_{1 << 14};
  rt::GateStats stats_;
  std::vector<obs::Event> events_;
};

void run_scripted_parity(std::uint64_t seed, core::WakeOrder wake_order) {
  const std::vector<Op> script = make_script(seed, wake_order, 240);
  ASSERT_GT(script.size(), 240u);

  const SimDriver sim(script, wake_order);
  const NativeDriver native(script, wake_order);

  const std::vector<EventKey> sim_keys = sim.keys();
  const std::vector<EventKey> native_keys = native.keys();
  ASSERT_EQ(sim_keys.size(), native_keys.size());
  for (std::size_t i = 0; i < sim_keys.size(); ++i) {
    ASSERT_TRUE(sim_keys[i] == native_keys[i])
        << "event " << i << ": sim " << to_string(sim_keys[i].kind) << "/"
        << sim_keys[i].label << "/" << sim_keys[i].demand << " vs native "
        << to_string(native_keys[i].kind) << "/" << native_keys[i].label
        << "/" << native_keys[i].demand;
  }
  EXPECT_EQ(sim.stats().begins, native.stats().begins);
  EXPECT_EQ(sim.stats().ends, native.stats().ends);
  EXPECT_EQ(sim.stats().immediate_admissions,
            native.stats().immediate_admissions);
  EXPECT_EQ(sim.stats().blocks, native.stats().blocks);
  EXPECT_EQ(sim.stats().wakes, native.stats().wakes);
  EXPECT_EQ(sim.stats().cancels, native.stats().cancels);
  EXPECT_EQ(sim.stats().begins, sim.stats().ends + sim.stats().cancels);
}

TEST(AdmissionParity, ScriptedSixteenVThreadsFifo) {
  run_scripted_parity(101, core::WakeOrder::kFifo);
}

TEST(AdmissionParity, ScriptedSixteenVThreadsBestFit) {
  run_scripted_parity(202, core::WakeOrder::kBestFitDemand);
}

TEST(AdmissionParity, ScriptedSecondSeedFifo) {
  run_scripted_parity(747, core::WakeOrder::kFifo);
}

}  // namespace
}  // namespace rda
