// Small platform helpers for the native runtime: CPU affinity pinning and
// LLC capacity detection (sysfs), with safe fallbacks for containers.
#pragma once

#include <cstdint>
#include <optional>

namespace rda::rt {

/// Pins the calling thread to one CPU. Returns false if unsupported or the
/// cpu index is out of range.
bool pin_to_cpu(int cpu);

/// Number of online CPUs (>=1).
int online_cpus();

/// Number of CPUs in the calling thread's affinity mask (>=1; online_cpus()
/// where the mask cannot be read).
int affinity_cpus();

/// Reads the last-level cache size from
/// /sys/devices/system/cpu/cpu0/cache/index<max>/size; nullopt when the
/// hierarchy is not exposed (common in containers).
std::optional<std::uint64_t> detect_llc_bytes();

}  // namespace rda::rt
