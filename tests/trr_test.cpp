#include "trr/undocumented_trr.h"

#include "trr/counter_trr.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace hbmrd::trr {
namespace {

bool contains(const std::vector<int>& xs, int x) {
  return std::find(xs.begin(), xs.end(), x) != xs.end();
}

/// One round of steps as on_window sees it, folded here independently of
/// Bank::plan: distinct rows by first ACT, ACTs per row, rows by last ACT.
struct FoldedRound {
  std::vector<int> rows;
  std::vector<std::uint64_t> acts;
  std::vector<int> recency;

  explicit FoldedRound(const std::vector<int>& steps) {
    std::vector<std::size_t> last;
    for (std::size_t k = 0; k < steps.size(); ++k) {
      const auto it = std::find(rows.begin(), rows.end(), steps[k]);
      const auto r = static_cast<std::size_t>(it - rows.begin());
      if (it == rows.end()) {
        rows.push_back(steps[k]);
        acts.push_back(0);
        last.push_back(0);
      }
      ++acts[r];
      last[r] = k;
    }
    std::vector<std::size_t> order(rows.size());
    for (std::size_t r = 0; r < order.size(); ++r) order[r] = r;
    std::sort(order.begin(), order.end(),
              [&last](auto a, auto b) { return last[a] > last[b]; });
    for (auto r : order) recency.push_back(rows[r]);
  }

  [[nodiscard]] dram::ActivationWindow window(std::uint64_t rounds) const {
    return {rows, acts, recency, rounds, 0};
  }
};

TEST(UndocumentedTrr, Every17thRefIsTrrCapable) {
  UndocumentedTrr trr;
  trr.on_activate(100, 0);  // one sampled row so capable REFs do work
  int capable = 0;
  for (int ref = 1; ref <= 34; ++ref) {
    const auto victims = trr.on_refresh(ref);
    if (!victims.empty()) {
      ++capable;
      EXPECT_EQ(ref % 17, 0) << "victim refresh on non-17th REF " << ref;
    }
    trr.on_activate(100, ref);  // keep the row in the sampler
  }
  EXPECT_EQ(capable, 2);
}

TEST(UndocumentedTrr, RefreshesBothNeighbors) {
  UndocumentedTrr trr;
  trr.on_activate(500, 0);
  std::vector<int> victims;
  for (int ref = 1; ref <= 17; ++ref) victims = trr.on_refresh(ref);
  EXPECT_TRUE(contains(victims, 499));
  EXPECT_TRUE(contains(victims, 501));
}

TEST(UndocumentedTrr, PhaseIsTheChannelsRefOrdinal) {
  // A bank's tracker is first asked at whatever REF of its channel follows
  // the bank's first command: the ordinal alone makes a REF TRR-capable.
  UndocumentedTrr trr;
  trr.on_activate(500, 0);
  EXPECT_TRUE(trr.on_refresh(16).empty());
  const auto victims = trr.on_refresh(17);
  EXPECT_TRUE(contains(victims, 499));
  EXPECT_TRUE(contains(victims, 501));
}

TEST(UndocumentedTrr, FirstActAfterCapableRefIsHeldForAFullPeriod) {
  UndocumentedTrr trr;
  // Reach the first TRR-capable REF with no activity at all.
  for (int ref = 1; ref <= 17; ++ref) {
    EXPECT_TRUE(trr.on_refresh(ref).empty());
  }
  // First ACT after the capable REF.
  trr.on_activate(1000, 0);
  // 16 windows of junk activity evict row 1000 from the recency sampler.
  int junk = 2000;
  for (int ref = 18; ref < 34; ++ref) {
    for (int j = 0; j < 5; ++j) trr.on_activate(junk + j, 0);
    junk += 16;
    EXPECT_TRUE(trr.on_refresh(ref).empty());
  }
  const auto victims = trr.on_refresh(34);
  EXPECT_TRUE(contains(victims, 999));
  EXPECT_TRUE(contains(victims, 1001));
}

TEST(UndocumentedTrr, HalfCountRuleDetectsHeavyHitters) {
  UndocumentedTrr trr;
  for (int ref = 1; ref <= 17; ++ref) trr.on_refresh(ref);
  // Window: row 3000 gets 5 of 9 activations (more than half), then four
  // trailing junk rows flush the sampler.
  trr.on_activate(9999, 0);  // absorbs the first-ACT latch
  // Close that window so 9999's single ACT cannot look like a heavy hitter
  // relative to an empty window.
  trr.on_refresh(18);
  for (int i = 0; i < 5; ++i) trr.on_activate(3000, 0);
  for (int j = 0; j < 4; ++j) trr.on_activate(5000 + 8 * j, 0);
  // REFs until the next capable one (REF 34).
  std::vector<int> victims;
  for (int ref = 19; ref <= 34; ++ref) victims = trr.on_refresh(ref);
  EXPECT_TRUE(contains(victims, 2999));
  EXPECT_TRUE(contains(victims, 3001));
}

TEST(UndocumentedTrr, ExactlyHalfIsNotDetected) {
  UndocumentedTrr trr;
  for (int ref = 1; ref <= 18; ++ref) trr.on_refresh(ref);
  trr.on_activate(7777, 0);  // absorbs the first-ACT latch
  // Row 3000: 4 of the window's 9 activations — not more than half.
  for (int i = 0; i < 4; ++i) trr.on_activate(3000, 0);
  for (int j = 0; j < 4; ++j) trr.on_activate(5000 + 8 * j, 0);
  std::vector<int> victims;
  for (int ref = 19; ref <= 34; ++ref) victims = trr.on_refresh(ref);
  EXPECT_FALSE(contains(victims, 2999));
  EXPECT_FALSE(contains(victims, 3001));
}

TEST(UndocumentedTrr, SamplerHoldsLastFourDistinctRows) {
  UndocumentedTrr trr;
  for (int row : {10, 20, 30, 40, 50}) trr.on_activate(row, 0);
  const auto& sampler = trr.sampler();
  ASSERT_EQ(sampler.size(), 4u);
  EXPECT_EQ(sampler.front(), 50);
  EXPECT_FALSE(std::find(sampler.begin(), sampler.end(), 10) !=
               sampler.end());
  // Re-activating an old row moves it to the front without duplication.
  trr.on_activate(20, 0);
  EXPECT_EQ(trr.sampler().front(), 20);
  EXPECT_EQ(trr.sampler().size(), 4u);
}

TEST(UndocumentedTrr, FourTrailingDummiesEvictAggressors) {
  // The Fig. 14 bypass geometry: aggressors hammered below the half-count
  // threshold, then N trailing distinct dummies. With N >= 4 the sampler
  // holds only dummies at the capable REF and the victims stay unprotected;
  // with N = 3 an aggressor survives in the sampler and gets neutralized.
  for (int dummies : {3, 4, 6}) {
    UndocumentedTrr trr;
    std::vector<int> victims;
    for (int ref = 1; ref <= 17; ++ref) {
      trr.on_activate(7000, 0);  // leading dummy absorbs first-ACT
      for (int i = 0; i < 30; ++i) {
        trr.on_activate(4000, 0);  // aggressor pair around victim 4001
        trr.on_activate(4002, 0);
      }
      for (int d = 0; d < dummies; ++d) {
        trr.on_activate(7000 + 8 * d, 0);
      }
      const auto v = trr.on_refresh(ref);
      victims.insert(victims.end(), v.begin(), v.end());
    }
    const bool victim_protected = contains(victims, 4001);
    EXPECT_EQ(victim_protected, dummies < 4) << "dummies=" << dummies;
  }
}

TEST(UndocumentedTrr, BulkActivationMatchesRepeatedSingles) {
  UndocumentedTrr a;
  UndocumentedTrr b;
  a.on_window(FoldedRound({42, 42}).window(5));
  for (int i = 0; i < 10; ++i) b.on_activate(42, 0);
  a.on_activate(43, 0);
  b.on_activate(43, 0);
  for (int ref = 1; ref <= 17; ++ref) {
    EXPECT_EQ(a.on_refresh(ref), b.on_refresh(ref));
  }
}

TEST(UndocumentedTrr, WindowMatchesPerStepActivations) {
  // One on_window call must leave the tracker exactly as the window's
  // steps would, one on_activate each, round after round: same sampler,
  // same pending latches, and the same victims at every later REF (the
  // window counts and the first-ACT latch show there).
  util::Stream rng(0x7e5a11);
  constexpr int kWindows = 600;
  // Rows are spaced so no two share a victim; the window draws from the
  // first ten, the prior state from all sixteen.
  const auto row_of = [](std::uint64_t i) {
    return 1000 + 4 * static_cast<int>(i);
  };
  for (int w = 0; w < kWindows; ++w) {
    TrrParams params;
    params.sampler_capacity = static_cast<int>(rng.next_below(6));
    params.pending_capacity = static_cast<int>(1 + rng.next_below(4));
    UndocumentedTrr folded(params);
    std::uint64_t ref = 1 + rng.next_below(17);
    const auto prior_ops = rng.next_below(40);
    for (std::uint64_t op = 0; op < prior_ops; ++op) {
      if (rng.next_below(4) == 0) {
        folded.on_refresh(ref++);
      } else {
        folded.on_activate(row_of(rng.next_below(16)), 0);
      }
    }
    UndocumentedTrr stepped = folded;

    const auto distinct = 1 + rng.next_below(10);
    std::vector<int> steps(1 + rng.next_below(80));
    for (int& row : steps) row = row_of(rng.next_below(distinct));
    const std::uint64_t rounds = 1 + rng.next_below(3);

    folded.on_window(FoldedRound(steps).window(rounds));
    for (std::uint64_t round = 0; round < rounds; ++round) {
      for (int row : steps) stepped.on_activate(row, 0);
    }
    ASSERT_EQ(folded.sampler(), stepped.sampler()) << "window " << w;
    ASSERT_EQ(folded.pending(), stepped.pending()) << "window " << w;
    for (int k = 0; k < 34; ++k, ++ref) {
      ASSERT_EQ(folded.on_refresh(ref), stepped.on_refresh(ref))
          << "window " << w << " ref " << ref;
    }
  }
}

TEST(UndocumentedTrr, PendingCapacityEvictsOldest) {
  TrrParams params;
  params.pending_capacity = 2;
  UndocumentedTrr trr(params);
  for (int ref = 1; ref <= 17; ++ref) trr.on_refresh(ref);
  // Three windows, each with a distinct heavy hitter; capacity 2 keeps the
  // last two only. Every window also has >= 4 junk acts to flush the
  // sampler and a leading junk act for the first-ACT latch.
  int heavy = 100;
  for (int w = 0; w < 3; ++w) {
    trr.on_activate(8000, 0);  // absorbs the first-ACT latch in window 0
    for (int i = 0; i < 9; ++i) trr.on_activate(heavy, 0);
    for (int j = 0; j < 4; ++j) trr.on_activate(9000 + 8 * j, 0);
    trr.on_refresh(18 + w);
    heavy += 50;
  }
  std::vector<int> victims;
  for (int ref = 21; ref <= 34; ++ref) {
    const auto v = trr.on_refresh(ref);
    victims.insert(victims.end(), v.begin(), v.end());
  }
  EXPECT_FALSE(contains(victims, 99));   // evicted heavy hitter (row 100)
  EXPECT_TRUE(contains(victims, 149));   // row 150 kept
  EXPECT_TRUE(contains(victims, 199));   // row 200 kept
}

TEST(CounterTrr, TracksAndRefreshesTopRow) {
  CounterTrr trr;
  for (int i = 0; i < 100; ++i) trr.on_activate(600, 0);
  for (int i = 0; i < 3; ++i) trr.on_activate(700 + 8 * i, 0);
  std::vector<int> victims;
  for (int ref = 1; ref <= 17; ++ref) victims = trr.on_refresh(ref);
  EXPECT_TRUE(contains(victims, 599));
  EXPECT_TRUE(contains(victims, 601));
  // The handled row's counter resets; junk rows do not dominate.
  EXPECT_FALSE(trr.counters().contains(600));
}

TEST(CounterTrr, PhaseIsTheChannelsRefOrdinal) {
  CounterTrr trr;
  for (int i = 0; i < 10; ++i) trr.on_activate(600, 0);
  EXPECT_TRUE(trr.on_refresh(33).empty());
  const auto victims = trr.on_refresh(34);
  EXPECT_TRUE(contains(victims, 599));
  EXPECT_TRUE(contains(victims, 601));
}

TEST(CounterTrr, BoundedTableDecrements) {
  CounterTrrParams params;
  params.table_entries = 2;
  CounterTrr trr(params);
  trr.on_activate(1, 0);
  trr.on_activate(2, 0);
  trr.on_activate(3, 0);  // forces a decrement-all; both entries hit zero
  EXPECT_TRUE(trr.counters().empty());
  trr.on_window(FoldedRound({4, 4}).window(5));
  EXPECT_EQ(trr.counters().at(4), 10u);
}

TEST(CounterTrr, MissesSingleActivationAggressors) {
  // The discriminator vs the observed mechanism: a count-1 first ACT is
  // forgotten long before the capable REF when junk churns the table.
  CounterTrrParams params;
  params.table_entries = 4;
  CounterTrr trr(params);
  trr.on_activate(500, 0);
  for (int w = 0; w < 17; ++w) {
    for (int j = 0; j < 6; ++j) trr.on_activate(900 + 8 * j, 0);
  }
  std::vector<int> victims;
  for (int ref = 1; ref <= 17; ++ref) {
    const auto v = trr.on_refresh(ref);
    victims.insert(victims.end(), v.begin(), v.end());
  }
  EXPECT_FALSE(contains(victims, 499));
  EXPECT_FALSE(contains(victims, 501));
}

TEST(UndocumentedTrr, RejectsBadParams) {
  TrrParams params;
  params.trr_ref_interval = 0;
  EXPECT_THROW(UndocumentedTrr{params}, std::invalid_argument);
}

}  // namespace
}  // namespace hbmrd::trr
