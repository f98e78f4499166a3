#include "runtime/affinity.hpp"

#include <algorithm>
#include <fstream>
#include <string>
#include <thread>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace rda::rt {

bool pin_to_cpu(int cpu) {
#if defined(__linux__)
  if (cpu < 0) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<unsigned>(cpu), &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
#else
  (void)cpu;
  return false;
#endif
}

int online_cpus() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

int affinity_cpus() {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
#endif
  return online_cpus();
}

std::optional<std::uint64_t> detect_llc_bytes() {
#if defined(__linux__)
  // The highest cache index on cpu0 is the LLC.
  for (int index = 4; index >= 0; --index) {
    const std::string path = "/sys/devices/system/cpu/cpu0/cache/index" +
                             std::to_string(index) + "/size";
    std::ifstream in(path);
    if (!in) continue;
    std::string text;
    in >> text;
    if (text.empty()) continue;
    char suffix = text.back();
    std::uint64_t multiplier = 1;
    if (suffix == 'K' || suffix == 'k') {
      multiplier = 1024;
      text.pop_back();
    } else if (suffix == 'M' || suffix == 'm') {
      multiplier = 1024 * 1024;
      text.pop_back();
    }
    try {
      return std::stoull(text) * multiplier;
    } catch (...) {
      continue;
    }
  }
#endif
  return std::nullopt;
}

}  // namespace rda::rt
