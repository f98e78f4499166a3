#include "fault/scenario.hpp"

#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "core/rda_scheduler.hpp"
#include "obs/reconcile.hpp"
#include "obs/recorder.hpp"
#include "runtime/gate.hpp"
#include "sim/engine.hpp"
#include "util/units.hpp"

namespace rda::fault {

std::string_view to_string(Substrate substrate) {
  switch (substrate) {
    case Substrate::kSim: return "sim";
    case Substrate::kNative: return "native";
  }
  return "?";
}

namespace {

using util::MB;

/// Records the FIRST violated invariant: later violations are usually
/// knock-on effects of the first, so the head of the chain is the one worth
/// printing in the CSV.
void require(ScenarioResult& result, bool ok, const std::string& why) {
  if (!ok && result.failure.empty()) result.failure = why;
}

/// Sim thread count per workload shape — what FaultPlan::random spreads its
/// thread-targeted faults across.
std::size_t shape_thread_count(const std::string& name) {
  if (name == "contended") return 4;
  if (name == "infeasible") return 4;
  if (name == "churn") return 3;
  if (name == "pool") return 4;
  if (name == "multires") return 4;
  return 4;
}

/// The shared watchdog configuration: round-triggered only. The time
/// trigger is deliberately off in scenarios — on the native substrate it
/// fires on wall-clock noise, which would break the byte-determinism the
/// fault matrix asserts.
core::WatchdogOptions scenario_watchdog(std::uint32_t max_wake_rounds) {
  core::WatchdogOptions wd;
  wd.enable = true;
  wd.max_wake_rounds = max_wake_rounds;
  wd.max_wait_seconds = 0.0;
  wd.clamp_fraction = 0.5;
  return wd;
}

void check_monitor_ledger(ScenarioResult& result,
                          const core::MonitorStats& stats) {
  // Every period that began must have left through exactly one door.
  const std::uint64_t closed = stats.ends + stats.cancels + stats.reclaims;
  require(result, stats.begins == closed,
          "period leak: begins=" + std::to_string(stats.begins) +
              " but ends+cancels+reclaims=" + std::to_string(closed));
}

/// Per-resource quiescence ledger, over EVERY configured kind (LLC, DRAM
/// bandwidth, energy budget): the stripe invariant usage + free − overdraft
/// == bound must hold per kind, and usage, overdraft, and the REVERSIBLE
/// oversubscription tally must each drain back to zero — a rung-2
/// force-admitted period that leaves through any door (pp_end, orphan
/// reclaim) takes its oversub charge and overdraft with it, on every
/// resource row it was charged on, not just the LLC. A reclaim path that
/// forgets the discharge on one row leaks apparent capacity permanently —
/// exactly the bug class this cell-level assert pins.
void check_resource_ledger(ScenarioResult& result,
                           const std::vector<obs::ResourceRow>& rows) {
  const obs::ReconcileReport report =
      obs::reconcile_resources(rows, /*expect_quiescent=*/true);
  require(result, report.ok, "resource ledger failed: " + report.message);
}

void check_shard_audit(ScenarioResult& result,
                       const core::AdmissionCore::AuditReport& audit) {
  require(result, audit.ok, "shard audit failed: " + audit.detail);
}

void check_events(ScenarioResult& result, const obs::EventRecorder& recorder,
                  const core::MonitorStats& stats) {
  require(result, recorder.dropped() == 0,
          "event ring overflowed (" + std::to_string(recorder.dropped()) +
              " dropped) - ledger cannot reconcile");
  if (recorder.dropped() != 0) return;
  const std::vector<obs::Event> events = recorder.events();
  const obs::ReconcileReport report = obs::reconcile(events, stats);
  require(result, report.ok, "event/stat reconcile failed: " + report.message);
  require(result, report.still_blocked == 0,
          "stranded waiters: " + std::to_string(report.still_blocked) +
              " periods still blocked at capture end");
  require(result, report.still_admitted == 0,
          "leaked admissions: " + std::to_string(report.still_admitted) +
              " periods still admitted at capture end");
}

void fill_monitor_counters(ScenarioResult& result,
                           const core::MonitorStats& stats) {
  result.begins = stats.begins;
  result.ends = stats.ends;
  result.reclaims = stats.reclaims;
  result.demand_clamps = stats.demand_clamps;
  result.force_admissions = stats.watchdog_force_admissions;
}

// --- Sim substrate ---------------------------------------------------------

void populate_sim(const std::string& name, sim::Engine& engine,
                  core::RdaScheduler& sched) {
  auto add_threads = [&](sim::ProcessId pid, int threads, int periods,
                         std::uint64_t wss, double flops) {
    for (int t = 0; t < threads; ++t) {
      sim::ProgramBuilder builder;
      for (int p = 0; p < periods; ++p) {
        builder.period("pp", flops, wss, ReuseLevel::kHigh);
      }
      engine.add_thread(pid, builder.build());
    }
  };

  if (name == "contended") {
    // Four 8 MB threads on a 15 MB LLC: constant waitlist churn, every
    // block/wake path live.
    for (int t = 0; t < 4; ++t) {
      add_threads(engine.create_process(), 1, 3, MB(8), 3e8);
    }
  } else if (name == "infeasible") {
    // A 24 MB demand on a 15 MB LLC, arriving while 5 MB competitors keep
    // the cache occupied (the warm-up phase delays it past the free-resource
    // liveness override, and three staggered competitors keep usage nonzero):
    // only the watchdog ladder — clamp, then forced oversubscription — can
    // admit it before the competitors drain.
    const sim::ProcessId big = engine.create_process();
    sim::ProgramBuilder builder;
    builder.plain("warm", 1e8, MB(1), ReuseLevel::kLow);
    builder.period("big", 2e8, MB(24), ReuseLevel::kHigh);
    builder.period("big", 2e8, MB(24), ReuseLevel::kHigh);
    engine.add_thread(big, builder.build());
    for (int t = 0; t < 3; ++t) {
      // Deliberately staggered period lengths: if the competitors ran in
      // lockstep the LLC would momentarily empty between their periods and
      // the free-resource liveness override would admit the big demand
      // before the watchdog's round trigger matures.
      add_threads(engine.create_process(), 1, 4, MB(5),
                  1.5e8 * static_cast<double>(t + 2));
    }
  } else if (name == "churn") {
    // Many short periods: exercises the release/rescan path density.
    for (int t = 0; t < 3; ++t) {
      add_threads(engine.create_process(), 1, 6, MB(4), 1e8);
    }
  } else if (name == "pool") {
    // §3.4 task pool whose aggregate demand over-commits (3 x 6 MB) plus an
    // independent competitor: the group pause/group admit path.
    const sim::ProcessId pool = engine.create_process();
    sched.mark_pool(pool);
    add_threads(pool, 3, 2, MB(6), 2e8);
    add_threads(engine.create_process(), 1, 2, MB(7), 2e8);
  } else if (name == "multires") {
    // Vector demands on all three resource rows: two 8 MB LLC-heavy threads
    // contend for cache while two streaming threads declare DRAM bandwidth
    // and watts that overcommit their budgets (2 x 18 GB/s on a 30 GB/s
    // row, 2 x 14 W on a 20 W cap). Waitlist churn — and any injected
    // corrupted counter — therefore lands on the bandwidth and energy rows
    // too, and the per-kind ledger must still drain all of them.
    for (int t = 0; t < 2; ++t) {
      add_threads(engine.create_process(), 1, 3, MB(8), 3e8);
    }
    for (int t = 0; t < 2; ++t) {
      sim::ProgramBuilder builder;
      for (int p = 0; p < 3; ++p) {
        builder.period_bw("stream", 2e8, MB(2), ReuseLevel::kLow, 18e9);
        builder.watts(14.0);
      }
      engine.add_thread(engine.create_process(), builder.build());
    }
  } else {
    throw std::runtime_error("unknown scenario shape: " + name);
  }
}

void run_sim(const ScenarioSpec& spec, FaultInjector& injector,
             ScenarioResult& result) {
  obs::EventRecorder recorder(1 << 16);

  sim::EngineConfig cfg;
  cfg.machine = sim::MachineConfig::e5_2420();
  cfg.fault_injector = &injector;
  sim::Engine engine(cfg);

  core::RdaOptions options;
  options.policy = core::PolicyKind::kStrict;
  options.trace_sink = &recorder;
  options.fault_injector = &injector;
  options.monitor.watchdog = scenario_watchdog(3);
  if (spec.name == "multires") {
    // All three resource rows configured, and counter feedback on so a
    // kCorruptCounter fault actually perturbs state the ledger must absorb.
    options.bandwidth_capacity = cfg.machine.dram_bandwidth;
    options.energy_capacity_watts = 20.0;
    options.feedback.enable = true;
  }
  core::RdaScheduler sched(static_cast<double>(cfg.machine.llc_bytes),
                           cfg.calib, options);
  engine.set_gate(&sched);

  populate_sim(spec.name, engine, sched);
  const sim::SimResult sim_result = engine.run();

  const core::MonitorStats& stats = sched.monitor_stats();
  fill_monitor_counters(result, stats);
  result.lost_wakes = sim_result.lost_wakes;
  result.recovered_wakes = sim_result.recovered_wakes;

  const core::AdmissionCore& core = sched.core();
  require(result, core.resources().effectively_free(ResourceKind::kLLC),
          "LLC load not conserved: " +
              std::to_string(core.resources().usage(ResourceKind::kLLC)) +
              " bytes still charged after all threads finished");
  check_resource_ledger(result, core.resource_rows());
  check_shard_audit(result, core.audit());
  require(result, core.monitor().registry().active_count() == 0,
          "registry not drained: " +
              std::to_string(core.monitor().registry().active_count()) +
              " periods still active");
  require(result, core.monitor().waitlist().empty(),
          "waitlist not drained: " +
              std::to_string(core.monitor().waitlist().size()) +
              " entries still parked");
  check_monitor_ledger(result, stats);
  check_events(result, recorder, stats);
}

// --- Native substrate ------------------------------------------------------

/// Spin until `pred` holds. The deadline is a failure backstop only — on the
/// success path nothing here depends on wall time, so determinism is kept.
void await(const std::function<bool()>& pred, const char* what) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) {
      throw std::runtime_error(std::string("scenario stalled waiting for ") +
                               what);
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
}

core::ReleaseObservation observed(double peak) {
  core::ReleaseObservation obs;
  obs.peak_occupancy = peak;
  obs.cache_contended = false;
  obs.has_counters = true;
  return obs;
}

/// Runs `body` on a worker thread, capturing any exception text so the
/// scenario reports it as a ledger failure instead of terminating.
struct Worker {
  std::thread thread;
  std::string error;

  explicit Worker(std::function<void()> body) {
    thread = std::thread([this, body = std::move(body)] {
      try {
        body();
      } catch (const std::exception& e) {
        error = e.what();
      }
    });
  }
  void join(ScenarioResult& result, const char* who) {
    thread.join();
    require(result, error.empty(),
            std::string(who) + " thread failed: " + error);
  }
};

/// Native scenarios sequence every gate interaction structurally (waiting()
/// polls, joins between rounds) so the injector's consult order — the only
/// fault clock — is identical on every run regardless of OS scheduling.
void run_native(const ScenarioSpec& spec, FaultInjector& injector,
                ScenarioResult& result) {
  obs::EventRecorder recorder(1 << 16);

  rt::GateConfig cfg;
  cfg.llc_capacity_bytes = 1000.0;
  cfg.policy = core::PolicyKind::kStrict;
  cfg.trace_sink = &recorder;
  cfg.fault_injector = &injector;
  cfg.monitor.watchdog =
      scenario_watchdog(spec.name == "infeasible" ? 1 : 3);
  rt::AdmissionGate gate(cfg);

  if (spec.name == "contended") {
    // Three hold/block/handoff rounds: the waiter can only be admitted by
    // the main thread's release, so every wake consult is a real grant.
    for (int round = 0; round < 3; ++round) {
      const core::PeriodId held =
          gate.begin(ResourceKind::kLLC, 600.0, ReuseLevel::kHigh, "hold");
      Worker waiter([&gate] {
        const core::PeriodId id =
            gate.begin(ResourceKind::kLLC, 600.0, ReuseLevel::kHigh, "wait");
        gate.end(id, observed(600.0));
      });
      await([&gate] { return gate.waiting() == 1; }, "waiter to park");
      gate.end(held, observed(600.0));
      waiter.join(result, "waiter");
    }
  } else if (spec.name == "infeasible") {
    // A demand larger than the whole gate (1500 on 1000) parked behind held
    // load: only the watchdog clamp rung (0.5 x capacity = 500) can admit
    // it. Main-thread pulses drive the wake rounds that escalate it.
    std::atomic<bool> release_holder{false};
    Worker holder([&gate, &release_holder] {
      const core::PeriodId id =
          gate.begin(ResourceKind::kLLC, 400.0, ReuseLevel::kHigh, "hold");
      while (!release_holder.load()) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
      gate.end(id, observed(400.0));
    });
    await([&gate] { return gate.usage(ResourceKind::kLLC) >= 400.0; },
          "holder admission");
    Worker waiter([&gate] {
      const core::PeriodId id =
          gate.begin(ResourceKind::kLLC, 1500.0, ReuseLevel::kHigh, "big");
      gate.end(id, observed(500.0));
    });
    await([&gate] { return gate.waiting() == 1; }, "big demand to park");
    for (int pulse = 0; pulse < 5 && gate.waiting() != 0; ++pulse) {
      const core::PeriodId id =
          gate.begin(ResourceKind::kLLC, 50.0, ReuseLevel::kLow, "pulse");
      gate.end(id, observed(50.0));
    }
    await([&gate] { return gate.waiting() == 0; }, "clamp escalation");
    waiter.join(result, "waiter");
    release_holder.store(true);
    holder.join(result, "holder");
  } else if (spec.name == "churn") {
    // Uncontended begin/end density: every end consults the counter hook.
    for (int i = 0; i < 6; ++i) {
      const core::PeriodId id =
          gate.begin(ResourceKind::kLLC, 300.0, ReuseLevel::kLow, "churn");
      gate.end(id, observed(300.0));
    }
  } else if (spec.name == "pool") {
    // §3.4 group pause: the second pool member's denial pauses the group;
    // the first member's end group-admits it.
    constexpr std::uint32_t kGroup = 7;
    gate.mark_pool(kGroup);
    std::atomic<bool> release_first{false};
    Worker first([&gate, &release_first] {
      gate.join_group(kGroup);
      const core::PeriodId id =
          gate.begin(ResourceKind::kLLC, 700.0, ReuseLevel::kHigh, "pool.a");
      while (!release_first.load()) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
      gate.end(id, observed(700.0));
    });
    await([&gate] { return gate.usage(ResourceKind::kLLC) >= 700.0; },
          "first pool member admission");
    Worker second([&gate] {
      gate.join_group(kGroup);
      const core::PeriodId id =
          gate.begin(ResourceKind::kLLC, 700.0, ReuseLevel::kHigh, "pool.b");
      gate.end(id, observed(700.0));
    });
    await([&gate] { return gate.waiting() == 1; }, "second member to park");
    release_first.store(true);
    first.join(result, "first pool member");
    second.join(result, "second pool member");
  } else {
    throw std::runtime_error("unknown scenario shape: " + spec.name);
  }

  const rt::GateStats stats = gate.stats();
  fill_monitor_counters(result, stats.monitor);
  result.lost_wakes = stats.lost_wakes;
  result.recovered_wakes = stats.recovered_wakes;

  require(result, gate.usage(ResourceKind::kLLC) < 1e-6,
          "LLC load not conserved: " +
              std::to_string(gate.usage(ResourceKind::kLLC)) +
              " still charged after all threads joined");
  require(result, gate.waiting() == 0,
          "waitlist not drained: " + std::to_string(gate.waiting()) +
              " entries still parked");
  check_resource_ledger(result, gate.resource_rows());
  check_shard_audit(result, gate.audit());
  check_monitor_ledger(result, stats.monitor);
  check_events(result, recorder, stats.monitor);
}

/// Native threads are identified by process-lifetime gate tokens whose
/// values depend on how many scenario cells ran before this one, so a plan
/// that targets specific thread ids would fire differently run to run.
/// Broadening every spec to match-any keeps firing keyed to the (structural,
/// deterministic) consult order alone.
FaultPlan untargeted(const FaultPlan& plan) {
  FaultPlan out;
  for (FaultSpec spec : plan.specs()) {
    spec.thread = sim::kInvalidThread;
    out.add(spec);
  }
  return out;
}

}  // namespace

ScenarioResult run_scenario(const ScenarioSpec& spec) {
  ScenarioResult result;
  result.name = spec.name;
  result.substrate = std::string(to_string(spec.substrate));
  result.seed = spec.seed;
  try {
    FaultPlan plan = spec.plan.empty()
                         ? FaultPlan::random(spec.seed, spec.fault_count,
                                             shape_thread_count(spec.name))
                         : spec.plan;
    if (spec.substrate == Substrate::kNative) plan = untargeted(plan);
    FaultInjector injector(std::move(plan));

    if (spec.substrate == Substrate::kSim) {
      run_sim(spec, injector, result);
    } else {
      run_native(spec, injector, result);
    }

    const std::vector<FaultSpec> fired = injector.fired();
    result.faults_fired = fired.size();
    for (const FaultSpec& f : fired) {
      if (!result.fired_kinds.empty()) result.fired_kinds += '+';
      result.fired_kinds += to_string(f.kind);
    }
    result.ok = result.failure.empty();
  } catch (const std::exception& e) {
    result.ok = false;
    if (result.failure.empty()) result.failure = e.what();
  }
  return result;
}

std::vector<ScenarioSpec> scenario_grid(std::uint64_t base_seed,
                                        std::size_t seeds) {
  static const char* kShapes[] = {"contended", "infeasible", "churn", "pool"};
  std::vector<ScenarioSpec> grid;
  grid.reserve((4 * 2 + 1) * seeds);
  for (const char* shape : kShapes) {
    for (const Substrate substrate : {Substrate::kSim, Substrate::kNative}) {
      for (std::size_t i = 0; i < seeds; ++i) {
        ScenarioSpec spec;
        spec.name = shape;
        spec.substrate = substrate;
        spec.seed = base_seed + i;
        // Seed index 0 is the fault-free control cell of each shape: the
        // ledger must hold with and without injected faults.
        spec.fault_count = i;
        grid.push_back(std::move(spec));
      }
    }
  }
  // The multi-resource shape runs on the sim substrate only (the native
  // scenarios drive the gate with scripted single-resource rounds): its
  // cells prove the per-kind ledger — bandwidth and energy rows included —
  // under the same random fault draws as the single-resource shapes.
  for (std::size_t i = 0; i < seeds; ++i) {
    ScenarioSpec spec;
    spec.name = "multires";
    spec.substrate = Substrate::kSim;
    spec.seed = base_seed + i;
    spec.fault_count = i;
    grid.push_back(std::move(spec));
  }
  // Scripted cells: the recovery paths a random draw might miss are pinned
  // so every matrix run proves them — death while admitted, death while
  // waitlisted, a lost grant on each substrate, and a delayed grant on the
  // native gate (which has real time for the delay to happen in).
  auto scripted = [&](const char* name, Substrate substrate, FaultKind kind,
                      Hook hook, std::uint64_t at_count) {
    ScenarioSpec spec;
    spec.name = name;
    spec.substrate = substrate;
    spec.seed = base_seed;
    FaultSpec f;
    f.kind = kind;
    f.hook = hook;
    f.at_count = at_count;
    spec.plan.add(f);
    grid.push_back(std::move(spec));
  };
  // at_count 1: in the contended shape only the very first admission is an
  // immediate admit (every later grant goes through the waitlist), so the
  // death must strike that one to hit the admitted-orphan path.
  scripted("contended", Substrate::kSim, FaultKind::kThreadDeath, Hook::kAdmit,
           1);
  scripted("contended", Substrate::kSim, FaultKind::kThreadDeath, Hook::kBlock,
           1);
  scripted("contended", Substrate::kSim, FaultKind::kLostWake, Hook::kWake, 1);
  scripted("contended", Substrate::kNative, FaultKind::kLostWake, Hook::kWake,
           1);
  scripted("contended", Substrate::kNative, FaultKind::kDelayedWake,
           Hook::kWake, 2);
  // Corrupted counters against the multi-resource rows: the release-path
  // corruption feeds the demand corrector while bandwidth and energy rows
  // carry load, so the per-kind ledger (oversubscription AND overdraft back
  // to zero on all three kinds) is proven under counter faults, not just
  // wake faults. Counts 1 and 4 strike an early and a late release.
  scripted("multires", Substrate::kSim, FaultKind::kCorruptCounter,
           Hook::kRelease, 1);
  scripted("multires", Substrate::kSim, FaultKind::kCorruptCounter,
           Hook::kRelease, 4);
  scripted("multires", Substrate::kSim, FaultKind::kThreadDeath, Hook::kBlock,
           2);
  return grid;
}

std::string csv_header() {
  return "name,substrate,seed,ok,failure,faults_fired,begins,ends,reclaims,"
         "demand_clamps,force_admissions,lost_wakes,"
         "recovered_wakes,fired_kinds\n";
}

namespace {

/// CSV fields must not smuggle separators: failure texts carry commas and
/// newlines (exception messages), which would shift every later column.
std::string sanitize(std::string text) {
  for (char& c : text) {
    if (c == ',') c = ';';
    if (c == '\n' || c == '\r') c = ' ';
  }
  return text;
}

}  // namespace

std::string csv_row(const ScenarioResult& r) {
  std::string row;
  row += r.name;
  row += ',';
  row += r.substrate;
  row += ',';
  row += std::to_string(r.seed);
  row += ',';
  row += r.ok ? '1' : '0';
  row += ',';
  row += sanitize(r.failure);
  row += ',';
  row += std::to_string(r.faults_fired);
  row += ',';
  row += std::to_string(r.begins);
  row += ',';
  row += std::to_string(r.ends);
  row += ',';
  row += std::to_string(r.reclaims);
  row += ',';
  row += std::to_string(r.demand_clamps);
  row += ',';
  row += std::to_string(r.force_admissions);
  row += ',';
  row += std::to_string(r.lost_wakes);
  row += ',';
  row += std::to_string(r.recovered_wakes);
  row += ',';
  row += r.fired_kinds;
  row += '\n';
  return row;
}

}  // namespace rda::fault
