#include "api/pp.hpp"

#include <atomic>
#include <memory>
#include <mutex>

namespace rda::api {

namespace {

std::unique_ptr<rt::AdmissionGate>& gate_slot() {
  static std::unique_ptr<rt::AdmissionGate> gate;
  return gate;
}

std::once_flag& gate_once() {
  static std::once_flag flag;
  return flag;
}

/// gate_slot()'s gate once created: every pp_begin/pp_end reads this one
/// atomic instead of entering call_once.
std::atomic<rt::AdmissionGate*> current_gate{nullptr};

}  // namespace

void pp_configure(const rt::GateConfig& config) {
  gate_slot() = std::make_unique<rt::AdmissionGate>(config);
  current_gate.store(gate_slot().get(), std::memory_order_release);
}

rt::AdmissionGate& pp_gate() {
  if (rt::AdmissionGate* gate = current_gate.load(std::memory_order_acquire)) {
    return *gate;
  }
  std::call_once(gate_once(), [] {
    if (!gate_slot()) gate_slot() = std::make_unique<rt::AdmissionGate>();
    current_gate.store(gate_slot().get(), std::memory_order_release);
  });
  return *gate_slot();
}

core::PeriodId pp_begin(std::span<const core::ResourceDemand> demands,
                        ReuseLevel reuse) {
  return pp_gate().begin_multi(demands, reuse);
}

core::PeriodId pp_begin(ResourceKind resource, std::uint64_t demand_bytes,
                        ReuseLevel reuse) {
  return pp_gate().begin(resource, static_cast<double>(demand_bytes), reuse);
}

void pp_end(core::PeriodId id) { pp_gate().end(id); }

}  // namespace rda::api
