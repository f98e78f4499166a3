#include "core/waitlist.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace rda::core {
namespace {

Waitlist::Entry entry(PeriodId period, sim::ThreadId thread,
                      sim::ProcessId process) {
  return Waitlist::Entry{period, thread, process, 0.0};
}

TEST(Waitlist, FifoOrderPreserved) {
  Waitlist wl;
  wl.push(entry(1, 10, 0));
  wl.push(entry(2, 11, 0));
  wl.push(entry(3, 12, 1));
  ASSERT_EQ(wl.size(), 3u);
  EXPECT_EQ(wl.entries().front().period, 1u);
  EXPECT_EQ(wl.entries().back().period, 3u);
}

TEST(Waitlist, DrainWorkConservingSkipsNonFitting) {
  Waitlist wl;
  wl.push(entry(1, 10, 0));
  wl.push(entry(2, 11, 0));
  wl.push(entry(3, 12, 1));
  // Admit odd period ids only.
  const auto admitted = wl.drain_admissible(
      [](const Waitlist::Entry& e) { return e.period % 2 == 1; },
      /*head_only=*/false);
  ASSERT_EQ(admitted.size(), 2u);
  EXPECT_EQ(admitted[0].period, 1u);
  EXPECT_EQ(admitted[1].period, 3u);
  ASSERT_EQ(wl.size(), 1u);
  EXPECT_EQ(wl.entries().front().period, 2u);
}

TEST(Waitlist, DrainHeadOnlyStopsAtFirstRejection) {
  Waitlist wl;
  wl.push(entry(1, 10, 0));
  wl.push(entry(2, 11, 0));
  wl.push(entry(3, 12, 1));
  const auto admitted = wl.drain_admissible(
      [](const Waitlist::Entry& e) { return e.period != 2; },
      /*head_only=*/true);
  // Head (1) admitted, 2 rejected -> stop; 3 never examined.
  ASSERT_EQ(admitted.size(), 1u);
  EXPECT_EQ(admitted[0].period, 1u);
  EXPECT_EQ(wl.size(), 2u);
}

TEST(Waitlist, DrainAdmitAllEmptiesList) {
  Waitlist wl;
  for (PeriodId id = 1; id <= 5; ++id) wl.push(entry(id, 10, 0));
  const auto admitted = wl.drain_admissible(
      [](const Waitlist::Entry&) { return true; }, false);
  EXPECT_EQ(admitted.size(), 5u);
  EXPECT_TRUE(wl.empty());
}

TEST(Waitlist, RemoveProcessPullsWholeGroup) {
  Waitlist wl;
  wl.push(entry(1, 10, 7));
  wl.push(entry(2, 11, 8));
  wl.push(entry(3, 12, 7));
  EXPECT_EQ(wl.count_process(7), 2u);
  const auto removed = wl.remove_process(7);
  ASSERT_EQ(removed.size(), 2u);
  EXPECT_EQ(removed[0].period, 1u);
  EXPECT_EQ(removed[1].period, 3u);
  EXPECT_EQ(wl.size(), 1u);
  EXPECT_EQ(wl.count_process(7), 0u);
}

TEST(Waitlist, RemoveAtPullsOneEntry) {
  Waitlist wl;
  wl.push(entry(1, 10, 0));
  wl.push(entry(2, 11, 0));
  wl.push(entry(3, 12, 1));
  const Waitlist::Entry pulled = wl.remove_at(1);
  EXPECT_EQ(pulled.period, 2u);
  ASSERT_EQ(wl.size(), 2u);
  EXPECT_EQ(wl.entries()[0].period, 1u);
  EXPECT_EQ(wl.entries()[1].period, 3u);
  EXPECT_THROW(wl.remove_at(2), util::CheckFailure);
}

Waitlist::Entry sized(PeriodId period, double demand) {
  Waitlist::Entry e{period, static_cast<sim::ThreadId>(period),
                    static_cast<sim::ProcessId>(period), 0.0};
  e.demand = demand;
  return e;
}

TEST(WakeStrategy, FifoPicksFirstFitting) {
  Waitlist wl;
  wl.push(sized(1, 8.0));
  wl.push(sized(2, 2.0));
  wl.push(sized(3, 4.0));
  const FifoWakeStrategy fifo(/*work_conserving=*/true);
  const auto fits_small = [](const Waitlist::Entry& e) {
    return e.demand <= 4.0;
  };
  EXPECT_EQ(fifo.select(wl.entries(), fits_small), 1u);
  const auto fits_none = [](const Waitlist::Entry&) { return false; };
  EXPECT_EQ(fifo.select(wl.entries(), fits_none), WakeStrategy::npos);
}

TEST(WakeStrategy, FifoHeadOnlyBlocksBehindNonFittingHead) {
  Waitlist wl;
  wl.push(sized(1, 8.0));
  wl.push(sized(2, 2.0));
  const FifoWakeStrategy head_only(/*work_conserving=*/false);
  const auto fits_small = [](const Waitlist::Entry& e) {
    return e.demand <= 4.0;
  };
  // The head does not fit: nothing may be admitted past it.
  EXPECT_EQ(head_only.select(wl.entries(), fits_small), WakeStrategy::npos);
  const auto fits_all = [](const Waitlist::Entry&) { return true; };
  EXPECT_EQ(head_only.select(wl.entries(), fits_all), 0u);
}

TEST(WakeStrategy, BestFitPicksLargestFittingDemand) {
  Waitlist wl;
  wl.push(sized(1, 3.0));
  wl.push(sized(2, 9.0));  // does not fit
  wl.push(sized(3, 6.0));
  wl.push(sized(4, 6.0));  // tie: earlier index wins
  const BestFitWakeStrategy best_fit;
  const auto fits = [](const Waitlist::Entry& e) { return e.demand <= 6.0; };
  EXPECT_EQ(best_fit.select(wl.entries(), fits), 2u);
  EXPECT_EQ(best_fit.select({}, fits), WakeStrategy::npos);
}

TEST(WakeStrategy, FactoryMapsOrderAndConservation) {
  EXPECT_EQ(make_wake_strategy(WakeOrder::kFifo, true)->name(), "fifo");
  EXPECT_EQ(make_wake_strategy(WakeOrder::kFifo, false)->name(),
            "fifo-head-only");
  EXPECT_EQ(make_wake_strategy(WakeOrder::kBestFitDemand, true)->name(),
            make_wake_strategy(WakeOrder::kBestFitDemand, false)->name());
  EXPECT_EQ(to_string(WakeOrder::kBestFitDemand), "best-fit");
}

TEST(Waitlist, CounterTracksContents) {
  Waitlist waitlist;
  util::Rng rng(7);
  std::uint64_t next_period = 1;
  std::size_t expected = 0;
  for (int round = 0; round < 200; ++round) {
    if (expected == 0 || rng.next_double() < 0.6) {
      Waitlist::Entry e;
      e.period = next_period++;
      e.thread = static_cast<sim::ThreadId>(1 + rng.next_below(64));
      e.process = static_cast<sim::ProcessId>(e.thread);
      waitlist.push(e);
      ++expected;
    } else {
      waitlist.remove_at(rng.next_below(expected));
      --expected;
    }
    // The Dekker flag the lock-free lane reads must equal the list's true
    // size after every mutation.
    ASSERT_EQ(waitlist.size(), expected);
    ASSERT_EQ(waitlist.entries().size(), expected);
    // The list is in strict arrival order.
    std::uint64_t prev_seq = 0;
    for (const Waitlist::Entry& e : waitlist.entries()) {
      ASSERT_GT(e.seq, prev_seq);
      prev_seq = e.seq;
    }
  }
}

TEST(Waitlist, RestoreReinsertsAtOriginalFifoPosition) {
  Waitlist waitlist;
  for (std::uint64_t p = 1; p <= 8; ++p) {
    Waitlist::Entry e;
    e.period = p;
    e.thread = static_cast<sim::ThreadId>(p);
    waitlist.push(e);
  }
  Waitlist::Entry taken = waitlist.remove_at(3);
  EXPECT_EQ(waitlist.size(), 7u);
  waitlist.restore(taken);
  ASSERT_EQ(waitlist.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(waitlist.entries()[i].period, i + 1) << "index " << i;
  }
}

TEST(Waitlist, RandomOperationsMatchVectorReference) {
  // One seeded sequence of every mutation the slow lane issues, mirrored on
  // a plain vector: after each step the seqs ascend, the counter matches
  // the contents, and the contents equal the reference entry for entry.
  Waitlist waitlist;
  std::vector<Waitlist::Entry> reference;
  util::Rng rng(2024);
  PeriodId next_period = 1;
  std::uint64_t next_seq = 1;
  const auto matches = [&](const Waitlist::Entry& a,
                           const Waitlist::Entry& b) {
    return a.period == b.period && a.thread == b.thread &&
           a.process == b.process && a.seq == b.seq;
  };
  const auto check = [&](int step) {
    SCOPED_TRACE(testing::Message() << "step " << step);
    ASSERT_EQ(waitlist.size(), waitlist.entries().size());
    ASSERT_EQ(waitlist.entries().size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      if (i > 0) {
        ASSERT_LT(waitlist.entries()[i - 1].seq, waitlist.entries()[i].seq);
      }
      ASSERT_TRUE(matches(waitlist.entries()[i], reference[i])) << i;
    }
  };
  // The entry most recently pulled by remove_at, awaiting restore().
  std::vector<Waitlist::Entry> pulled;
  for (int step = 0; step < 3000; ++step) {
    const double roll = rng.next_double();
    if (roll < 0.4 || reference.empty()) {
      Waitlist::Entry e;
      e.period = next_period++;
      e.thread = static_cast<sim::ThreadId>(e.period);
      e.process = static_cast<sim::ProcessId>(1 + rng.next_below(6));
      waitlist.push(e);
      e.seq = next_seq++;
      reference.push_back(e);
    } else if (roll < 0.6) {
      const std::size_t index = rng.next_below(reference.size());
      const Waitlist::Entry e = waitlist.remove_at(index);
      ASSERT_TRUE(matches(e, reference[index]));
      reference.erase(reference.begin() +
                      static_cast<std::ptrdiff_t>(index));
      pulled.push_back(e);
    } else if (roll < 0.75 && !pulled.empty()) {
      const std::size_t pick = rng.next_below(pulled.size());
      const Waitlist::Entry e = pulled[pick];
      pulled.erase(pulled.begin() + static_cast<std::ptrdiff_t>(pick));
      waitlist.restore(e);
      reference.insert(
          std::lower_bound(reference.begin(), reference.end(), e.seq,
                           [](const Waitlist::Entry& r, std::uint64_t seq) {
                             return r.seq < seq;
                           }),
          e);
    } else if (roll < 0.9) {
      const bool head_only = rng.next_bool(0.5);
      const std::uint64_t parity = rng.next_below(2);
      const auto admit = [parity](const Waitlist::Entry& e) {
        return e.period % 2 == parity;
      };
      const std::vector<Waitlist::Entry> drained =
          waitlist.drain_admissible(admit, head_only);
      std::vector<Waitlist::Entry> expected;
      for (auto it = reference.begin(); it != reference.end();) {
        if (admit(*it)) {
          expected.push_back(*it);
          it = reference.erase(it);
        } else if (head_only) {
          break;
        } else {
          ++it;
        }
      }
      ASSERT_EQ(drained.size(), expected.size());
      for (std::size_t i = 0; i < drained.size(); ++i) {
        ASSERT_TRUE(matches(drained[i], expected[i])) << i;
      }
    } else {
      const auto process = static_cast<sim::ProcessId>(1 + rng.next_below(6));
      const std::size_t before = reference.size();
      reference.erase(std::remove_if(reference.begin(), reference.end(),
                                     [process](const Waitlist::Entry& e) {
                                       return e.process == process;
                                     }),
                      reference.end());
      EXPECT_EQ(waitlist.count_process(process), before - reference.size());
      EXPECT_EQ(waitlist.remove_process(process).size(),
                before - reference.size());
    }
    check(step);
    if (testing::Test::HasFatalFailure()) return;
  }
}

TEST(Waitlist, EmptyOperations) {
  Waitlist wl;
  EXPECT_TRUE(wl.empty());
  EXPECT_TRUE(wl.drain_admissible([](const auto&) { return true; }, false)
                  .empty());
  EXPECT_TRUE(wl.remove_process(1).empty());
  EXPECT_EQ(wl.count_process(1), 0u);
}

}  // namespace
}  // namespace rda::core
