#include "dram/timing.h"

#include <gtest/gtest.h>

namespace hbmrd::dram {
namespace {

TEST(TimingParams, PaperDerivedQuantities) {
  const TimingParams t;
  // Sec. 7: activation budget between two REFs.
  EXPECT_EQ(t.activation_budget(), 78);
  // Sec. 7: the bypass pattern repeats 8205 times per refresh window.
  EXPECT_EQ(t.refs_per_window(), 8205);
  EXPECT_EQ(t.rows_per_ref(), 2);
  // Sec. 2.2: a REF may be delayed by at most 9 * tREFI = 35.1 us.
  EXPECT_NEAR(cycles_to_ns(t.max_ref_delay()), 35100.0, 150.0);
  EXPECT_NEAR(cycles_to_ns(t.t_refi), 3900.0, 1.0);
  EXPECT_NEAR(cycles_to_seconds(t.t_refw), 0.032, 1e-6);
  // Minimum aggressor on-time is tRAS-limited at ~29-30 ns (Sec. 6).
  EXPECT_NEAR(cycles_to_ns(t.t_ras), 30.0, 1.5);
}

TEST(TimingConversions, RoundTrip) {
  EXPECT_EQ(ns_to_cycles(cycles_to_ns(1234)), 1234u);
  EXPECT_EQ(seconds_to_cycles(1.0), 600'000'000u);
  EXPECT_DOUBLE_EQ(cycles_to_seconds(600'000'000), 1.0);
}

/// A REF to a channel of one bank: the bank's share, then the channel's
/// clock (RefreshChannel::refresh checks in this order).
void refresh(BankTimingChecker& checker, RefreshClock& clock, Cycle now) {
  checker.check_refresh(now);
  clock.on_refresh(now, TimingParams{});
}

TEST(BankTimingChecker, LegalSequenceAccepted) {
  const TimingParams t;
  BankTimingChecker checker(t);
  RefreshClock clock;
  EXPECT_NO_THROW(checker.on_activate(100, clock));
  EXPECT_NO_THROW(checker.on_read(100 + t.t_rcd));
  EXPECT_NO_THROW(checker.on_write(100 + t.t_rcd + 1));
  EXPECT_NO_THROW(checker.on_precharge(100 + t.t_ras));
  EXPECT_NO_THROW(checker.on_activate(100 + t.t_rc, clock));
  EXPECT_NO_THROW(checker.on_precharge(100 + t.t_rc + t.t_ras));
  EXPECT_NO_THROW(refresh(checker, clock, 100 + t.t_rc + t.t_ras + t.t_rp));
}

TEST(BankTimingChecker, OpenCloseStateMachine) {
  BankTimingChecker checker{TimingParams{}};
  const RefreshClock clock;
  EXPECT_FALSE(checker.bank_open());
  checker.on_activate(0, clock);
  EXPECT_TRUE(checker.bank_open());
  EXPECT_EQ(checker.open_since(), 0u);
  EXPECT_THROW(checker.on_activate(1000, clock), TimingViolation);  // open
  checker.on_precharge(100);
  EXPECT_FALSE(checker.bank_open());
  EXPECT_NO_THROW(checker.on_precharge(101));  // PRE of closed bank: no-op
}

TEST(BankTimingChecker, ReadWriteRequireOpenRow) {
  BankTimingChecker checker{TimingParams{}};
  EXPECT_THROW(checker.on_read(10), TimingViolation);
  EXPECT_THROW(checker.on_write(10), TimingViolation);
  checker.on_activate(100, RefreshClock{});
  EXPECT_THROW(checker.on_read(101), TimingViolation);  // tRCD
}

TEST(BankTimingChecker, RefreshRequiresPrechargedBank) {
  const TimingParams t;
  BankTimingChecker checker(t);
  RefreshClock clock;
  checker.on_activate(0, clock);
  EXPECT_THROW(refresh(checker, clock, 1000), TimingViolation);
  checker.on_precharge(t.t_ras);
  EXPECT_THROW(refresh(checker, clock, t.t_ras + 1), TimingViolation);  // tRP
  EXPECT_NO_THROW(refresh(checker, clock, t.t_ras + t.t_rp));
  // Back-to-back REFs honour tRFC.
  EXPECT_THROW(refresh(checker, clock, t.t_ras + t.t_rp + 1),
               TimingViolation);
  EXPECT_NO_THROW(refresh(checker, clock, t.t_ras + t.t_rp + t.t_rfc));
  // A rejected REF records nothing: the clock counts the two legal ones.
  EXPECT_EQ(clock.refs, 2u);
  EXPECT_EQ(clock.last_ref, t.t_ras + t.t_rp + t.t_rfc);
}

TEST(BankTimingChecker, ActHonoursTrfcFromTheChannelsLastRef) {
  // The channel clock gates every bank's ACT, including a bank that had no
  // command before the REF (its checker holds no history at all).
  const TimingParams t;
  RefreshClock clock;
  clock.on_refresh(1000, t);
  BankTimingChecker idle(t);
  EXPECT_THROW(idle.on_activate(1000 + t.t_rfc - 1, clock), TimingViolation);
  EXPECT_FALSE(idle.bank_open());
  EXPECT_NO_THROW(idle.on_activate(1000 + t.t_rfc, clock));
}

TEST(BankTimingChecker, WindowChecksItsFirstActAndRecordsItsLastPre) {
  const TimingParams t;
  const RefreshClock clock;
  BankTimingChecker checker(t);
  checker.on_activate(0, clock);
  checker.on_precharge(t.t_ras);
  // tRC from the last ACT binds the window's first ACT.
  EXPECT_THROW(checker.on_window(t.t_rc - 1, 500, 500 + t.t_ras, clock),
               TimingViolation);
  checker.on_window(t.t_rc, 500, 500 + t.t_ras, clock);
  EXPECT_FALSE(checker.bank_open());
  EXPECT_EQ(checker.open_since(), 500u);
  // The next ACT is held to tRP after the window's last PRE and tRC after
  // its last ACT.
  EXPECT_THROW(checker.on_activate(500 + t.t_ras + t.t_rp - 1, clock),
               TimingViolation);
  EXPECT_NO_THROW(checker.on_activate(500 + t.t_rc, clock));
}

/// Property sweep: a gap below each minimum constraint is rejected, the
/// exact minimum is accepted.
class TimingGapTest : public ::testing::TestWithParam<int> {};

TEST_P(TimingGapTest, TRasBoundary) {
  const TimingParams t;
  const int deficit = GetParam();
  BankTimingChecker checker(t);
  checker.on_activate(1000, RefreshClock{});
  const Cycle pre = 1000 + t.t_ras - static_cast<Cycle>(deficit);
  if (deficit > 0) {
    EXPECT_THROW(checker.on_precharge(pre), TimingViolation);
  } else {
    EXPECT_NO_THROW(checker.on_precharge(pre));
  }
}

TEST_P(TimingGapTest, TRcBoundary) {
  const TimingParams t;
  const int deficit = GetParam();
  BankTimingChecker checker(t);
  const RefreshClock clock;
  checker.on_activate(1000, clock);
  checker.on_precharge(1000 + t.t_ras);
  const Cycle act = 1000 + t.t_rc - static_cast<Cycle>(deficit);
  if (deficit > 0) {
    EXPECT_THROW(checker.on_activate(act, clock), TimingViolation);
  } else {
    EXPECT_NO_THROW(checker.on_activate(act, clock));
  }
}

INSTANTIATE_TEST_SUITE_P(GapSweep, TimingGapTest,
                         ::testing::Values(-8, -2, -1, 0, 1, 2, 5));

}  // namespace
}  // namespace hbmrd::dram
