// Test helper: a batch waker that appends every granted thread, in wake
// order, to a caller-owned vector.
#pragma once

#include <vector>

#include "core/progress_monitor.hpp"

namespace rda::core {

inline ProgressMonitor::BatchWakeFn log_wakes(
    std::vector<sim::ThreadId>& woken) {
  return [&woken](const std::vector<ProgressMonitor::WakeGrant>& grants) {
    for (const ProgressMonitor::WakeGrant& g : grants) {
      woken.push_back(g.thread);
    }
  };
}

}  // namespace rda::core
