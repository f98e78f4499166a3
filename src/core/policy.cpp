#include "core/policy.hpp"

#include <limits>
#include <sstream>

#include "util/check.hpp"

namespace rda::core {

std::string to_string(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kLinuxDefault: return "Linux default";
    case PolicyKind::kStrict: return "RDA:Strict";
    case PolicyKind::kCompromise: return "RDA:Compromise";
  }
  return "?";
}

bool StrictPolicy::allow(double outcome,
                         const ResourceState& resource) const {
  (void)resource;
  return outcome >= 0.0;
}

CompromisePolicy::CompromisePolicy(double oversubscription_factor)
    : factor_(oversubscription_factor) {
  RDA_CHECK_MSG(factor_ >= 1.0, "oversubscription factor below 1 is stricter "
                                "than Strict; use StrictPolicy");
}

bool CompromisePolicy::allow(double outcome,
                             const ResourceState& resource) const {
  // usage + demand <= factor * capacity  <=>  outcome >= -(factor-1)*capacity
  return outcome >= -(factor_ - 1.0) * resource.capacity;
}

double CompromisePolicy::admission_bound(double capacity) const {
  return factor_ * capacity;
}

std::string CompromisePolicy::name() const {
  std::ostringstream os;
  os << "RDA:Compromise(x=" << factor_ << ")";
  return os.str();
}

bool AlwaysAdmitPolicy::allow(double outcome,
                              const ResourceState& resource) const {
  (void)outcome;
  (void)resource;
  return true;
}

double AlwaysAdmitPolicy::admission_bound(double capacity) const {
  (void)capacity;
  return std::numeric_limits<double>::infinity();
}

std::unique_ptr<SchedulingPolicy> make_policy(PolicyKind kind,
                                              double oversubscription) {
  switch (kind) {
    case PolicyKind::kLinuxDefault:
      return std::make_unique<AlwaysAdmitPolicy>();
    case PolicyKind::kStrict:
      return std::make_unique<StrictPolicy>();
    case PolicyKind::kCompromise:
      return std::make_unique<CompromisePolicy>(oversubscription);
  }
  return std::make_unique<AlwaysAdmitPolicy>();
}

}  // namespace rda::core
