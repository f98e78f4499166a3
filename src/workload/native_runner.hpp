// Native analogue of the Table-2 BLAS workloads: real worker threads
// executing the real BLAS kernels, each kernel wrapped in a progress period
// through the real userspace AdmissionGate.
//
// This is the part of the evaluation that needs no simulator — on a
// multi-core machine with a shared LLC the three policies produce the
// paper's effect directly; on a small CI box it exercises the full native
// stack end-to-end and reports the gate statistics.
#pragma once

#include <optional>

#include "core/predicate.hpp"
#include "runtime/gate.hpp"

namespace rda::workload {

struct NativeRunConfig {
  /// nullopt = Linux default (no gate at all).
  std::optional<core::PolicyKind> policy;
  double llc_capacity_bytes = 15728640.0;
  double oversubscription = 2.0;
  int threads = 4;
  /// Kernel invocations per worker thread.
  int repeats = 4;
  /// Scales the operand dimensions (1.0 = defaults below).
  double size_scale = 1.0;
};

struct NativeRunResult {
  double seconds = 0.0;
  double flops = 0.0;
  std::uint64_t gate_waits = 0;
  double gate_wait_seconds = 0.0;

  double gflops() const { return seconds > 0.0 ? flops / seconds / 1e9 : 0.0; }
};

/// Runs the BLAS-`level` workload (level in {1,2,3}) natively. Workers cycle
/// through the level's four kernels (Table 2), each invocation wrapped in a
/// period declaring its true operand footprint with the level's reuse class.
NativeRunResult run_native_blas(int level, const NativeRunConfig& config);

}  // namespace rda::workload
