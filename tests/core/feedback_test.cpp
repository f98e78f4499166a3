// Counter-feedback demand correction (the related-work hybrid the paper
// flags as "a subject to explore in later work").
#include <gtest/gtest.h>

#include "core/feedback.hpp"
#include "core/rda_scheduler.hpp"
#include "sim/engine.hpp"
#include "util/check.hpp"
#include "util/units.hpp"

namespace rda::core {
namespace {

using rda::util::MB;

FeedbackOptions enabled() {
  FeedbackOptions o;
  o.enable = true;
  o.min_samples = 2;
  o.decay = 0.5;  // fast adaptation for unit tests
  return o;
}

TEST(DemandCorrector, DisabledReturnsUnity) {
  DemandCorrector corrector;  // enable == false
  corrector.observe("pp", 100.0, 20.0, false);
  corrector.observe("pp", 100.0, 20.0, false);
  EXPECT_DOUBLE_EQ(corrector.correction("pp"), 1.0);
}

TEST(DemandCorrector, UnknownLabelReturnsUnity) {
  DemandCorrector corrector(enabled());
  EXPECT_DOUBLE_EQ(corrector.correction("never-seen"), 1.0);
}

TEST(DemandCorrector, UnderSampledReturnsUnity) {
  DemandCorrector corrector(enabled());
  corrector.observe("pp", 100.0, 20.0, false);
  EXPECT_DOUBLE_EQ(corrector.correction("pp"), 1.0);  // 1 < min_samples
}

TEST(DemandCorrector, OverDeclarationShrinksCorrection) {
  DemandCorrector corrector(enabled());
  // Declared 100, really uses 25, repeatedly and uncontended.
  for (int i = 0; i < 10; ++i) corrector.observe("pp", 100.0, 25.0, false);
  const double c = corrector.correction("pp");
  EXPECT_LT(c, 0.5);
  EXPECT_GE(c, FeedbackOptions::kMinCorrection);  // clamp floor
}

TEST(DemandCorrector, UnderDeclarationGrowsCorrection) {
  DemandCorrector corrector(enabled());
  for (int i = 0; i < 3; ++i) corrector.observe("pp", 100.0, 250.0, false);
  EXPECT_NEAR(corrector.correction("pp"), 2.5, 1e-9);
}

TEST(DemandCorrector, ContendedObservationsNeverShrink) {
  DemandCorrector corrector(enabled());
  corrector.observe("pp", 100.0, 100.0, false);
  corrector.observe("pp", 100.0, 100.0, false);
  const double before = corrector.correction("pp");
  // Contended runs show a low peak because the period COULD not grow; that
  // must not be treated as evidence of a smaller appetite.
  for (int i = 0; i < 10; ++i) corrector.observe("pp", 100.0, 10.0, true);
  EXPECT_GE(corrector.correction("pp"), before - 1e-9);
}

TEST(DemandCorrector, CorrectionClampedAbove) {
  DemandCorrector corrector(enabled());
  corrector.observe("pp", 100.0, 4000.0, false);
  corrector.observe("pp", 100.0, 4000.0, false);
  EXPECT_DOUBLE_EQ(corrector.correction("pp"),
                   FeedbackOptions::kMaxCorrection);  // max clamp
}

TEST(DemandCorrector, LabelsIndependent) {
  DemandCorrector corrector(enabled());
  for (int i = 0; i < 3; ++i) {
    corrector.observe("small", 100.0, 30.0, false);
    corrector.observe("big", 100.0, 200.0, false);
  }
  EXPECT_LT(corrector.correction("small"), 1.0);
  EXPECT_GT(corrector.correction("big"), 1.0);
  EXPECT_EQ(corrector.tracked_labels(), 2u);
}

TEST(DemandCorrector, InvalidOptionsRejected) {
  FeedbackOptions bad;
  bad.decay = 0.0;
  EXPECT_THROW(DemandCorrector{bad}, util::CheckFailure);
}

// End-to-end helper: N processes, each running the same period `repeats`
// times, with the declared working set possibly diverging from the true one.
double run_misdeclared(bool feedback, double true_mb, double declared_mb,
                       int procs, int repeats) {
  sim::EngineConfig cfg;
  cfg.machine = sim::MachineConfig::e5_2420();
  sim::Engine engine(cfg);
  RdaOptions options;
  options.policy = PolicyKind::kStrict;
  options.feedback.enable = feedback;
  options.feedback.min_samples = 2;
  options.feedback.decay = 0.6;
  core::RdaScheduler gate(static_cast<double>(cfg.machine.llc_bytes),
                          cfg.calib, options);
  engine.set_gate(&gate);
  for (int p = 0; p < procs; ++p) {
    const sim::ProcessId pid = engine.create_process();
    sim::ProgramBuilder b;
    for (int r = 0; r < repeats; ++r) {
      b.period("misdeclared", 1e9, MB(true_mb), ReuseLevel::kHigh)
          .declared(MB(declared_mb));
    }
    engine.add_thread(pid, b.build());
  }
  return engine.run().makespan;
}

// Eight over-declaring processes (claim 12 MB, truly use 2 MB). Plain
// strict scheduling serializes them (one 12 MB claim at a time); feedback
// learns the real appetite after two instances and restores concurrency.
TEST(Feedback, OverDeclarationRegainsConcurrency) {
  const double plain = run_misdeclared(false, 2.0, 12.0, 8, 6);
  const double corrected = run_misdeclared(true, 2.0, 12.0, 8, 6);
  EXPECT_LT(corrected, 0.6 * plain);
}

// Honest declarations: feedback must be (nearly) a no-op.
TEST(Feedback, HonestDeclarationsUnchanged) {
  const double plain = run_misdeclared(false, 2.0, 2.0, 8, 6);
  const double corrected = run_misdeclared(true, 2.0, 2.0, 8, 6);
  EXPECT_NEAR(corrected, plain, 0.1 * plain);
}

// Under-declaration (claim 1 MB, truly 6 MB): without feedback twelve 6 MB
// working sets thrash the 15 MB cache; feedback grows the charge and blocks
// the over-commitment. Throughput must not be worse with feedback.
TEST(Feedback, UnderDeclarationProtectsCache) {
  const double plain = run_misdeclared(false, 6.0, 1.0, 12, 6);
  const double corrected = run_misdeclared(true, 6.0, 1.0, 12, 6);
  EXPECT_LT(corrected, 1.05 * plain);
}

// Per-kind independence (vector demands): a label that over-declares its
// LLC working set but nails its DRAM bandwidth must get its LLC charge
// shrunk without the bandwidth charge moving — and vice versa. One state
// per (label, kind), not one shared ratio.
TEST(DemandCorrector, KindsCorrectIndependently) {
  DemandCorrector corrector(enabled());
  for (int i = 0; i < 10; ++i) {
    // LLC: declares 100, uses 25. Bandwidth: declares 100, uses 100.
    corrector.observe("pp", ResourceKind::kLLC, 100.0, 25.0, false);
    corrector.observe("pp", ResourceKind::kMemBandwidth, 100.0, 100.0,
                      false);
  }
  EXPECT_NEAR(corrector.correction("pp", ResourceKind::kLLC), 0.25, 1e-6);
  EXPECT_DOUBLE_EQ(corrector.correction("pp", ResourceKind::kMemBandwidth),
                   1.0);
  // Untouched kinds under the same label stay at unity (and under-sampled).
  EXPECT_DOUBLE_EQ(corrector.correction("pp", ResourceKind::kEnergyBudget),
                   1.0);

  // The mirror image: bandwidth under-declared, LLC honest.
  DemandCorrector mirror(enabled());
  for (int i = 0; i < 3; ++i) {
    mirror.observe("bw", ResourceKind::kLLC, 100.0, 100.0, false);
    mirror.observe("bw", ResourceKind::kMemBandwidth, 100.0, 250.0, false);
  }
  EXPECT_DOUBLE_EQ(mirror.correction("bw", ResourceKind::kLLC), 1.0);
  EXPECT_NEAR(mirror.correction("bw", ResourceKind::kMemBandwidth), 2.5,
              1e-9);
}

}  // namespace
}  // namespace rda::core
