#include "runtime/affinity.hpp"

#include <gtest/gtest.h>

#include <thread>

namespace rda::rt {
namespace {

TEST(Affinity, OnlineCpusAtLeastOne) { EXPECT_GE(online_cpus(), 1); }

TEST(Affinity, PinToFirstCpuUsuallyWorks) {
  // CPU 0 exists on every Linux box; in constrained containers the call may
  // still fail, which must be reported as false, not crash.
  const bool ok = pin_to_cpu(0);
  (void)ok;
  SUCCEED();
}

TEST(Affinity, NegativeCpuRejected) { EXPECT_FALSE(pin_to_cpu(-1)); }

TEST(Affinity, AffinityCpusCountsTheThreadsMask) {
  // On a fresh thread, so the pin below leaves the test's own thread alone.
  std::thread([] {
    EXPECT_GE(affinity_cpus(), 1);
    EXPECT_LE(affinity_cpus(), online_cpus());
    if (pin_to_cpu(0)) {
      EXPECT_EQ(affinity_cpus(), 1);
    }
  }).join();
}

TEST(Affinity, DetectLlcDoesNotCrash) {
  const auto llc = detect_llc_bytes();
  if (llc.has_value()) {
    // Any real LLC is between 256 KB and 1 GB.
    EXPECT_GE(*llc, 256u * 1024u);
    EXPECT_LE(*llc, 1024ull * 1024ull * 1024ull);
  }
}

}  // namespace
}  // namespace rda::rt
