#include "core/feedback.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace rda::core {

DemandCorrector::DemandCorrector(FeedbackOptions options)
    : options_(options) {
  RDA_CHECK(options_.decay > 0.0 && options_.decay <= 1.0);
}

double DemandCorrector::correction(const std::string& label,
                                   ResourceKind kind) const {
  if (!options_.enable) return 1.0;
  const auto it = states_.find(label);
  if (it == states_.end()) return 1.0;
  const State& state = it->second[static_cast<std::size_t>(kind)];
  if (state.samples < options_.min_samples) return 1.0;
  return std::clamp(state.ratio, FeedbackOptions::kMinCorrection,
                    FeedbackOptions::kMaxCorrection);
}

void DemandCorrector::observe(const std::string& label, ResourceKind kind,
                              double declared_demand, double observed_peak,
                              bool contended) {
  if (!options_.enable || declared_demand <= 0.0) return;
  ++observations_;
  State& state = states_[label][static_cast<std::size_t>(kind)];
  ++state.samples;
  // A contended peak is only a lower bound on what the period would use.
  state.ratio = update_usage_ratio(state.ratio, observed_peak / declared_demand,
                                   options_.decay, contended);
}

}  // namespace rda::core
