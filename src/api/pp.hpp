// The user-level progress-period API (§2.3), paper-shaped.
//
// Applications communicate their just-in-time resource demands through two
// calls (paper Fig. 4):
//
//   double pp_id = pp_begin(RESOURCE_LLC, MB(6.3), REUSE_HIGH);
//   DGEMM(n, A, B, C);
//   pp_end(pp_id);
//
// Multi-resource periods declare a demand VECTOR instead (LLC bytes + DRAM
// bandwidth + watts under a RAPL-style cap):
//
//   const rda::core::ResourceDemand demands[] = {
//       {RESOURCE_LLC, MB(6.3)},
//       {RESOURCE_MEM_BW, 2.0e9},
//       {RESOURCE_ENERGY, 11.0},
//   };
//   double pp_id = pp_begin(demands, REUSE_HIGH);
//
// These free functions bind to one process-wide native AdmissionGate. Call
// pp_configure() once at startup (or accept the Table 1 defaults); every
// thread of the process then uses pp_begin/pp_end around its periods.
// PeriodScope is the RAII form.
#pragma once

#include <cstdint>
#include <span>

#include "common/types.hpp"
#include "runtime/gate.hpp"
#include "util/units.hpp"

namespace rda::api {

/// Installs/replaces the process-wide gate configuration. Not thread-safe
/// against concurrent pp_begin calls — configure before spawning workers.
void pp_configure(const rt::GateConfig& config);

/// The process-wide gate (created on first use with default config).
rt::AdmissionGate& pp_gate();

/// Begins a multi-resource progress period: every declared {resource,
/// amount} pair is admitted atomically (all-or-nothing: every row must fit
/// its bound). Blocks until admitted. Returns the unique period id.
/// The demands are copied into the calling thread's recycled buffer, so a
/// steady-state begin/end pair allocates nothing.
core::PeriodId pp_begin(std::span<const core::ResourceDemand> demands,
                        ReuseLevel reuse);

/// Single-resource form (the paper's Fig. 4 signature) — calls the gate's
/// single-resource begin, which passes the demand the same way.
core::PeriodId pp_begin(ResourceKind resource, std::uint64_t demand_bytes,
                        ReuseLevel reuse);

/// Ends the period identified by `id`.
void pp_end(core::PeriodId id);

/// RAII progress period: begins on construction, ends on destruction.
class PeriodScope {
 public:
  PeriodScope(ResourceKind resource, std::uint64_t demand_bytes,
              ReuseLevel reuse)
      : id_(pp_begin(resource, demand_bytes, reuse)) {}
  PeriodScope(std::span<const core::ResourceDemand> demands, ReuseLevel reuse)
      : id_(pp_begin(demands, reuse)) {}
  ~PeriodScope() { pp_end(id_); }
  PeriodScope(const PeriodScope&) = delete;
  PeriodScope& operator=(const PeriodScope&) = delete;
  core::PeriodId id() const { return id_; }

 private:
  core::PeriodId id_;
};

}  // namespace rda::api
