#include "sim/engine.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace rda::sim {

Engine::Engine(EngineConfig config)
    : config_(std::move(config)),
      llc_(config_.machine.llc_bytes),
      energy_(config_.calib, config_.machine.cores) {
  RDA_CHECK(config_.machine.cores > 0);
  RDA_CHECK(config_.max_step > 0.0);
  cores_.resize(static_cast<std::size_t>(config_.machine.cores));
  core_ready_.resize(cores_.size());
}

ProcessId Engine::create_process() {
  processes_.emplace_back();
  return static_cast<ProcessId>(processes_.size() - 1);
}

ThreadId Engine::add_thread(ProcessId process, PhaseProgram program) {
  RDA_CHECK_MSG(!ran_, "cannot add threads after run()");
  RDA_CHECK(process < processes_.size());
  Thread t;
  t.id = static_cast<ThreadId>(threads_.size());
  t.process = process;
  t.program = std::move(program);
  t.state = ThreadState::kReady;
  t.home_core = static_cast<int>(threads_.size() % cores_.size());
  // The phases vector's heap buffer is stable across the Thread move below
  // and across threads_ reallocation, so the cached pointer stays valid.
  bind_phase(t);
  threads_.push_back(std::move(t));
  processes_[process].members.push_back(threads_.back().id);
  return threads_.back().id;
}

void Engine::set_gate(PhaseGate* gate) { gate_ = gate; }

void Engine::trace(obs::EventKind kind, const Thread& t) const {
  if (config_.trace_sink == nullptr) return;
  const PhaseSpec& phase = current_phase(t);
  obs::Event e;
  e.time = now_;
  e.kind = kind;
  e.thread = t.id;
  e.process = t.process;
  e.demand = static_cast<double>(phase.wss_bytes);
  e.set_label(phase.label);
  config_.trace_sink->record(e);
}

bool Engine::needs_point_processing(const Thread& t) const {
  if (t.state != ThreadState::kRunning) return false;
  if (t.pending_overhead > kTimeEpsilon) return false;
  if (t.point != Point::kBody) return true;
  return t.remaining <= kFlopEpsilon;
}

void Engine::enqueue_ready(Thread& t) {
  t.state = ThreadState::kReady;
  // A thread that slept keeps its vruntime but may not lag the pack —
  // standard CFS wake-up placement.
  t.vruntime = std::max(t.vruntime, vclock_);
  if (config_.scheduler == SchedulerMode::kPerCoreQueues) {
    core_ready_[static_cast<std::size_t>(t.home_core)].push(t.vruntime, t.id);
  } else {
    ready_.push(t.vruntime, t.id);
  }
}

bool Engine::any_ready() const {
  if (config_.scheduler == SchedulerMode::kPerCoreQueues) {
    for (const auto& q : core_ready_) {
      if (!q.empty()) return true;
    }
    return false;
  }
  return !ready_.empty();
}

ThreadId Engine::pop_for_core(std::size_t core) {
  ReadyQueue& own = core_ready_[core];
  if (!own.empty()) return own.pop_min().second;
  // Idle stealing: take the min-vruntime thread from the fullest queue.
  std::size_t victim = core;
  std::size_t best_size = 0;
  for (std::size_t c = 0; c < core_ready_.size(); ++c) {
    if (core_ready_[c].size() > best_size) {
      best_size = core_ready_[c].size();
      victim = c;
    }
  }
  if (best_size == 0) return kInvalidThread;
  const ThreadId tid = core_ready_[victim].pop_min().second;
  Thread& t = threads_[tid];
  t.home_core = static_cast<int>(core);  // migrate
  t.pending_overhead += config_.calib.migration_cost;
  ++result_.migrations;
  return tid;
}

ThreadId Engine::pop_ready() { return ready_.pop_min().second; }

bool Engine::dispatch() {
  bool placed = false;
  const bool per_core = config_.scheduler == SchedulerMode::kPerCoreQueues;
  for (std::size_t c = 0; c < cores_.size(); ++c) {
    Core& core = cores_[c];
    if (core.running != kInvalidThread) continue;
    ThreadId tid = kInvalidThread;
    if (per_core) {
      tid = pop_for_core(c);
      if (tid == kInvalidThread) continue;
    } else {
      if (ready_.empty()) break;
      tid = pop_ready();
    }
    Thread& t = threads_[tid];
    t.state = ThreadState::kRunning;
    t.core = static_cast<int>(c);
    vclock_ = std::max(vclock_, t.vruntime);
    if (core.last != kInvalidThread && core.last != tid) {
      t.pending_overhead += config_.calib.context_switch_cost;
      ++result_.context_switches;
    }
    core.running = tid;
    core.quantum_end = now_ + config_.calib.quantum;
    placed = true;
  }
  return placed;
}

void Engine::release_core(Thread& t) {
  if (t.core < 0) return;
  Core& core = cores_[static_cast<std::size_t>(t.core)];
  RDA_CHECK(core.running == t.id);
  core.running = kInvalidThread;
  core.last = t.id;
  t.core = -1;
}

void Engine::block(Thread& t, ThreadState blocked_state) {
  release_core(t);
  t.state = blocked_state;
  t.block_since = now_;
  // Parked long enough to lose the cache: co-runners evict a sleeper's
  // lines, so the inherited occupancy is forfeited.
  t.carry_occupancy = 0.0;
}

void Engine::finish(Thread& t) {
  release_core(t);
  t.state = ThreadState::kFinished;
  t.stats.finish_time = now_;
  ++finished_count_;
  barrier_check(processes_[t.process]);
}

int Engine::alive_members(const Process& p) const {
  int alive = 0;
  for (ThreadId tid : p.members) {
    if (threads_[tid].state != ThreadState::kFinished) ++alive;
  }
  return alive;
}

void Engine::barrier_check(Process& p) {
  if (p.barrier_arrivals == 0) return;
  if (p.barrier_arrivals < alive_members(p)) return;
  p.barrier_arrivals = 0;
  for (ThreadId tid : p.members) {
    Thread& m = threads_[tid];
    if (m.state == ThreadState::kBarrierBlocked) {
      m.stats.gate_blocked_time += 0.0;  // barrier time is not gate time
      enqueue_ready(m);
    }
  }
}

void Engine::process_points(Thread& t) {
  // Bounded loop: each iteration either consumes a phase transition or
  // returns; a program has finitely many phases.
  for (int guard = 0; guard < 1 << 20; ++guard) {
    if (t.state != ThreadState::kRunning) return;
    if (t.pending_overhead > kTimeEpsilon) return;

    switch (t.point) {
      case Point::kBegin: {
        const PhaseSpec& phase = current_phase(t);
        if (phase.marked && gate_ != nullptr && !t.admitted) {
          const BeginResult r =
              gate_->on_phase_begin(t.id, t.process, phase, now_);
          ++result_.api_calls;
          t.pending_overhead += r.call_cost;
          t.pending_cap = r.occupancy_cap;
          if (!r.admit) {
            ++result_.gate_blocks;
            trace(obs::EventKind::kBlock, t);
            // The paper parks the caller on a kernel wait queue; the API
            // cost is burned when it resumes.
            block(t, ThreadState::kGateBlocked);
            if (config_.fault_injector != nullptr) {
              const fault::FaultSpec* fired = config_.fault_injector->consult(
                  fault::Hook::kBlock, t.id);
              if (fired != nullptr &&
                  fired->kind == fault::FaultKind::kThreadDeath) {
                kill_thread(t);  // dies while parked on the waitlist
              }
            }
            return;
          }
          ++result_.gate_admissions;
          t.admitted = true;
          if (config_.fault_injector != nullptr) {
            const fault::FaultSpec* fired = config_.fault_injector->consult(
                fault::Hook::kAdmit, t.id);
            if (fired != nullptr &&
                fired->kind == fault::FaultKind::kThreadDeath) {
              kill_thread(t);  // dies holding admitted capacity
              return;
            }
          }
          if (t.pending_overhead > kTimeEpsilon) return;  // burn cost first
        }
        double cap = 0.0;
        if (gate_ != nullptr) {
          cap = phase.marked ? t.pending_cap : config_.unannotated_cap_bytes;
        }
        llc_.phase_enter(t.id, phase.wss_bytes, t.carry_occupancy, cap);
        trace(obs::EventKind::kBegin, t);
        t.carry_occupancy = 0.0;
        t.pending_cap = 0.0;
        t.point = Point::kBody;
        t.remaining = phase.flops;
        t.phase_body_start = now_;
        t.phase_occ_integral = 0.0;
        t.phase_occ_peak = llc_.occupancy_bytes(t.id);
        t.phase_dram_start = t.stats.dram_bytes;
        t.phase_flops_start = t.stats.flops;
        t.phase_contended = false;
        break;
      }
      case Point::kBody: {
        if (t.remaining > kFlopEpsilon) return;  // keep executing
        t.remaining = 0.0;
        trace(obs::EventKind::kEnd, t);
        const PhaseSpec& phase = current_phase(t);
        if (phase.marked && gate_ != nullptr) {
          PhaseObservation observed;
          observed.duration = std::max(0.0, now_ - t.phase_body_start);
          observed.peak_occupancy =
              std::max(t.phase_occ_peak, llc_.occupancy_bytes(t.id));
          observed.avg_occupancy =
              observed.duration > 0.0
                  ? t.phase_occ_integral / observed.duration
                  : observed.peak_occupancy;
          observed.dram_bytes = t.stats.dram_bytes - t.phase_dram_start;
          observed.flops = t.stats.flops - t.phase_flops_start;
          observed.cache_contended = t.phase_contended;
          t.carry_occupancy = llc_.phase_exit(t.id);
          const EndResult e =
              gate_->on_phase_end(t.id, t.process, phase, observed, now_);
          ++result_.api_calls;
          t.pending_overhead += e.call_cost;
        } else {
          t.carry_occupancy = llc_.phase_exit(t.id);
        }
        t.point = Point::kEnd;
        break;
      }
      case Point::kEnd: {
        const PhaseSpec& phase = current_phase(t);
        if (phase.barrier_after) {
          Process& p = processes_[t.process];
          ++p.barrier_arrivals;
          if (p.barrier_arrivals < alive_members(p)) {
            t.point = Point::kAdvance;
            block(t, ThreadState::kBarrierBlocked);
            return;
          }
          // Last arriver releases everyone (including itself).
          t.point = Point::kAdvance;
          barrier_check(p);
          break;
        }
        t.point = Point::kAdvance;
        break;
      }
      case Point::kAdvance: {
        ++t.phase_index;
        t.admitted = false;
        bind_phase(t);
        if (t.phase == nullptr) {
          finish(t);
          return;
        }
        t.point = Point::kBegin;
        break;
      }
    }
  }
  RDA_CHECK_MSG(false, "process_points did not converge for thread " << t.id);
}

void Engine::settle() {
  for (int guard = 0; guard < 1 << 20; ++guard) {
    const bool placed = dispatch();
    bool processed = false;
    for (Core& core : cores_) {
      if (core.running == kInvalidThread) continue;
      Thread& t = threads_[core.running];
      if (needs_point_processing(t)) {
        process_points(t);
        processed = true;
      }
    }
    if (!placed && !processed) return;
  }
  RDA_CHECK_MSG(false, "settle did not converge");
}

double Engine::compute_interval(const std::vector<PhaseRate>& rates,
                                const std::vector<ThreadId>& running) const {
  double dt = config_.max_step;
  for (std::size_t i = 0; i < running.size(); ++i) {
    const Thread& t = threads_[running[i]];
    if (t.pending_overhead > kTimeEpsilon) {
      dt = std::min(dt, t.pending_overhead);
    } else if (rates[i].flops_per_sec > 0.0) {
      dt = std::min(dt, t.remaining / rates[i].flops_per_sec);
    }
    const Core& core = cores_[static_cast<std::size_t>(t.core)];
    dt = std::min(dt, core.quantum_end - now_);
  }
  return std::max(dt, 1e-9);  // always make progress
}

SimResult Engine::run() {
  RDA_CHECK_MSG(!ran_, "Engine::run is single-shot");
  ran_ = true;
  if (gate_ != nullptr) gate_->attach(*this);
  for (Thread& t : threads_) enqueue_ready(t);

  std::vector<ThreadId> running;
  std::vector<PhaseRate> rates;
  std::vector<RateRequest> requests;
  std::vector<FillTraffic> fills;

  while (finished_count_ < threads_.size()) {
    settle();
    if (finished_count_ >= threads_.size()) break;
    if (now_ >= config_.time_limit) {
      result_.hit_time_limit = true;
      break;
    }

    running.clear();
    for (const Core& core : cores_) {
      if (core.running != kInvalidThread) running.push_back(core.running);
    }
    if (running.empty()) {
      RDA_CHECK_MSG(!any_ready(),
                    "ready threads exist but no core took them");
      // Before declaring deadlock, try recovery: resume threads whose wake
      // was lost, then let the gate's watchdog escalate a starved waiter.
      if (recover_stall()) continue;
      RDA_CHECK_MSG(false,
                    "scheduler deadlock: all unfinished threads are blocked");
    }

    // Rates for working threads; overhead-burning threads run at rate 0.
    requests.clear();
    for (ThreadId tid : running) {
      const Thread& t = threads_[tid];
      RateRequest req;
      if (t.pending_overhead > kTimeEpsilon || t.point != Point::kBody) {
        req.reuse = ReuseLevel::kLow;
        req.resident_fraction = 1.0;  // no memory traffic while in overhead
      } else {
        req.reuse = current_phase(t).reuse;
        req.resident_fraction = llc_.resident_fraction(tid);
      }
      requests.push_back(req);
    }
    rate_solver_.solve(config_.calib, requests, config_.machine.dram_bandwidth,
                       rates);
    // Zero out rates for overhead-burning threads (their request was a
    // placeholder so the vector stays aligned).
    for (std::size_t i = 0; i < running.size(); ++i) {
      const Thread& t = threads_[running[i]];
      if (t.pending_overhead > kTimeEpsilon || t.point != Point::kBody) {
        rates[i] = PhaseRate{};
      }
    }

    const double dt = compute_interval(rates, running);
    ++result_.sim_steps;

    // Integrate the interval.
    fills.clear();
    double interval_dram = 0.0;
    for (std::size_t i = 0; i < running.size(); ++i) {
      Thread& t = threads_[running[i]];
      t.stats.cpu_time += dt;
      t.vruntime += dt;
      if (t.pending_overhead > kTimeEpsilon) {
        t.pending_overhead = std::max(0.0, t.pending_overhead - dt);
        continue;
      }
      const PhaseRate& r = rates[i];
      const double work = std::min(t.remaining, r.flops_per_sec * dt);
      t.remaining -= work;
      t.stats.flops += work;
      result_.total_flops += work;
      const double bytes = r.dram_bytes_per_sec * dt;
      t.stats.dram_bytes += bytes;
      interval_dram += bytes;
      if (llc_.registered(t.id)) {
        fills.push_back({t.id, r.residency_bytes_per_sec * dt,
                         r.streaming_bytes_per_sec * dt});
      }
    }
    llc_.advance(fills);
    // Observation accumulators for the counter-feedback extension.
    const bool llc_full =
        llc_.total_occupancy() >
        0.95 * static_cast<double>(config_.machine.llc_bytes);
    for (const ThreadId tid : running) {
      Thread& t = threads_[tid];
      if (t.point != Point::kBody || !llc_.registered(tid)) continue;
      const double occ = llc_.occupancy_bytes(tid);
      t.phase_occ_integral += occ * dt;
      t.phase_occ_peak = std::max(t.phase_occ_peak, occ);
      t.phase_contended = t.phase_contended || llc_full;
    }
    energy_.accumulate(dt, static_cast<int>(running.size()), interval_dram);
    now_ += dt;

    // Quantum expiry: preempt only when someone is waiting.
    for (Core& core : cores_) {
      if (core.running == kInvalidThread) continue;
      if (now_ + kTimeEpsilon < core.quantum_end) continue;
      Thread& t = threads_[core.running];
      const bool someone_waiting =
          config_.scheduler == SchedulerMode::kPerCoreQueues
              ? !core_ready_[static_cast<std::size_t>(t.core)].empty()
              : !ready_.empty();
      if (someone_waiting) {
        release_core(t);
        enqueue_ready(t);
      } else {
        core.quantum_end = now_ + config_.calib.quantum;
      }
    }
  }

  result_.makespan = now_;
  result_.package_joules = energy_.package_joules();
  result_.dram_joules = energy_.dram_joules();
  result_.dram_bytes = energy_.dram_bytes();
  result_.threads.reserve(threads_.size());
  for (const Thread& t : threads_) result_.threads.push_back(t.stats);
  return result_;
}

void Engine::wake(ThreadId thread) {
  RDA_CHECK(thread < threads_.size());
  Thread& t = threads_[thread];
  RDA_CHECK_MSG(t.state == ThreadState::kGateBlocked,
                "wake on thread " << thread << " that is not gate-blocked");
  if (config_.fault_injector != nullptr) {
    const fault::FaultSpec* fired =
        config_.fault_injector->consult(fault::Hook::kWake, t.id);
    if (fired != nullptr) {
      if (fired->kind == fault::FaultKind::kLostWake) {
        // The grant stands core-side but the notification is dropped; the
        // thread stays parked until recover_stall() notices the mismatch.
        ++result_.lost_wakes;
        return;
      }
      if (fired->kind == fault::FaultKind::kThreadDeath) {
        t.stats.gate_blocked_time += now_ - t.block_since;
        kill_thread(t);  // dies in the instant the grant lands
        return;
      }
      // kDelayedWake has no distinct meaning in virtual time (delivery is
      // instantaneous either way); deliver normally.
    }
  }
  trace(obs::EventKind::kWake, t);
  t.stats.gate_blocked_time += now_ - t.block_since;
  t.admitted = true;  // the gate admits before waking (paper Fig. 6)
  ++result_.gate_admissions;
  enqueue_ready(t);
}

void Engine::kill_thread(Thread& t) {
  ++result_.injected_deaths;
  if (gate_ != nullptr) gate_->on_thread_exit(t.id, now_);
  // Death fires at admission-lifecycle hooks, before phase_enter, so the
  // thread normally holds no LLC registration; drop one defensively so the
  // cache model cannot leak occupancy.
  if (llc_.registered(t.id)) llc_.phase_exit(t.id);
  finish(t);
}

bool Engine::recover_stall() {
  if (gate_ == nullptr) return false;
  bool changed = false;
  for (Thread& t : threads_) {
    if (t.state != ThreadState::kGateBlocked) continue;
    if (!gate_->pending_admitted(t.id)) continue;
    // The gate granted the period but the wake never arrived; resume the
    // thread inline rather than through wake(), which would consult the
    // fault injector a second time for the same grant.
    t.stats.gate_blocked_time += now_ - t.block_since;
    t.admitted = true;
    ++result_.gate_admissions;
    ++result_.recovered_wakes;
    enqueue_ready(t);
    changed = true;
  }
  if (!changed) changed = gate_->on_stall(now_);
  return changed;
}

}  // namespace rda::sim
