// Seeded fault scenarios + the invariant ledger tools/fault_matrix asserts.
//
// A scenario is one (workload, fault plan, substrate) cell: it builds the
// workload, arms a FaultInjector with a plan derived from the seed, runs it
// through the simulator or the native gate, and then audits the admission
// ledger — capacity conserved, no stranded waiters, registry drained, event
// stream consistent with the monitor counters. The grid is what the
// fault_matrix tool sweeps; each cell is independent, so exp::run_cells can
// execute them in parallel, and every field of ScenarioResult is derived
// from seeded state only (no wall-clock), keeping the CSV byte-deterministic
// across runs and --jobs values.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fault/fault.hpp"

namespace rda::fault {

enum class Substrate : std::uint8_t {
  kSim,     ///< discrete-event engine + core::RdaScheduler
  kNative,  ///< real threads through rt::AdmissionGate
};

std::string_view to_string(Substrate substrate);

/// One cell of the fault matrix.
struct ScenarioSpec {
  std::string name;  ///< workload shape, e.g. "contended", "infeasible"
  Substrate substrate = Substrate::kSim;
  std::uint64_t seed = 1;
  /// Faults drawn from FaultPlan::random(seed, fault_count, ...); a scripted
  /// scenario may override `plan` instead (wins when non-empty).
  std::size_t fault_count = 2;
  FaultPlan plan;
};

struct ScenarioResult {
  std::string name;
  std::string substrate;
  std::uint64_t seed = 0;
  bool ok = false;            ///< every ledger invariant held
  std::string failure;        ///< first violated invariant (empty when ok)
  std::uint64_t faults_fired = 0;
  std::uint64_t begins = 0;
  std::uint64_t ends = 0;
  std::uint64_t reclaims = 0;
  std::uint64_t demand_clamps = 0;
  std::uint64_t force_admissions = 0;
  std::uint64_t lost_wakes = 0;
  std::uint64_t recovered_wakes = 0;
  /// Fired fault kinds in firing order, '+'-joined ("lost_wake+thread_death")
  /// — part of the byte-compared CSV, so it must be deterministic per seed.
  std::string fired_kinds;
};

/// Runs one cell. Never throws: an unexpected error is reported as a failed
/// ledger with the exception text in `failure`.
ScenarioResult run_scenario(const ScenarioSpec& spec);

/// The standard grid: every workload shape × substrate × `seeds` seeds.
std::vector<ScenarioSpec> scenario_grid(std::uint64_t base_seed,
                                        std::size_t seeds);

/// CSV header + row formatting shared by tools/fault_matrix and the tier-1
/// smoke stage (no timestamps — byte-identical across runs by construction).
std::string csv_header();
std::string csv_row(const ScenarioResult& r);

}  // namespace rda::fault
