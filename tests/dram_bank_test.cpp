#include "dram/bank.h"

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <span>
#include <vector>

#include "disturb/fault_model.h"
#include "dram/geometry.h"
#include "sense_oracle.h"

namespace hbmrd::dram {
namespace {

constexpr BankAddress kAddr{0, 0, 0};
// Mid-subarray victim: subarray 5 spans physical rows 3904..4671.
constexpr int kVictim = 4300;

disturb::DisturbParams test_params() {
  disturb::DisturbParams p;
  p.seed = 0xBADC0FFEEull;
  return p;
}

struct TestBank {
  disturb::FaultModel fault{test_params()};
  Environment env{60.0};
  TimingParams timing{};
  disturb::BankThresholdCache cache{kAddr, 16};
  CheckpointLadder ladder;
  RefreshChannel channel{timing};
  Bank bank{kAddr, &fault, &env, timing, cache, ladder, channel};
  Cycle now = 1000;

  void write_row(int row, const RowBits& bits) {
    bank.activate(row, now);
    std::array<std::uint64_t, kWordsPerColumn> column;
    for (int c = 0; c < kColumns; ++c) {
      bits.get_column(c, column);
      bank.write_column(c, column, now + timing.t_rcd + 1);
    }
    now += timing.t_ras + 100;
    bank.precharge(now);
    now += timing.t_rp + 100;
  }

  RowBits read_row(int row) {
    bank.activate(row, now);
    RowBits bits;
    std::array<std::uint64_t, kWordsPerColumn> column;
    for (int c = 0; c < kColumns; ++c) {
      bank.read_column(c, column, now + timing.t_rcd + 1);
      bits.set_column(c, column);
    }
    now += timing.t_ras + 100;
    bank.precharge(now);
    now += timing.t_rp + 100;
    return bits;
  }

  void hammer(int victim, std::uint64_t count) {
    const std::array<HammerStep, 2> steps = {
        HammerStep{victim - 1, timing.t_ras},
        HammerStep{victim + 1, timing.t_ras}};
    now = bank.bulk_hammer(steps, count, now) + 100;
  }
};

/// Victim bitflips after a fresh init + double-sided hammer of `count`.
int flips_after(std::uint64_t count) {
  TestBank t;
  const auto victim_bits = RowBits::filled(0x55);
  t.write_row(kVictim, victim_bits);
  t.write_row(kVictim - 1, RowBits::filled(0xAA));
  t.write_row(kVictim + 1, RowBits::filled(0xAA));
  t.hammer(kVictim, count);
  return t.read_row(kVictim).count_diff(victim_bits);
}

/// Smallest power-of-two hammer count that flips at least one victim cell.
std::uint64_t doubling_hc() {
  static const std::uint64_t hc = [] {
    for (std::uint64_t count = 8192; count <= (1u << 21); count *= 2) {
      if (flips_after(count) > 0) return count;
    }
    ADD_FAILURE() << "no bitflips up to 2M hammers";
    return std::uint64_t{1 << 21};
  }();
  return hc;
}

TEST(Bank, PowerOnContentsAreDeterministic) {
  TestBank a;
  TestBank b;
  EXPECT_EQ(a.read_row(123), b.read_row(123));
  EXPECT_NE(a.read_row(123), a.read_row(124));  // rows differ
}

TEST(Bank, WriteReadRoundTripSurvivesPrecharge) {
  TestBank t;
  const auto bits = RowBits::filled(0xC3);
  t.write_row(777, bits);
  EXPECT_EQ(t.read_row(777), bits);
  EXPECT_EQ(t.read_row(777), bits);  // second read identical
}

TEST(Bank, HammerFlipsVictimCells) {
  const auto hc = doubling_hc();
  EXPECT_EQ(flips_after(hc / 2), 0);
  EXPECT_GT(flips_after(hc), 0);
}

/// Property: bitflip count is monotone non-decreasing in hammer count.
class HammerMonotoneTest
    : public ::testing::TestWithParam<std::pair<std::uint64_t, std::uint64_t>> {
};

TEST_P(HammerMonotoneTest, FlipsNonDecreasing) {
  const auto [low, high] = GetParam();
  EXPECT_LE(flips_after(low), flips_after(high));
}

INSTANTIATE_TEST_SUITE_P(
    CountSweep, HammerMonotoneTest,
    ::testing::Values(std::pair{8192u, 32768u}, std::pair{32768u, 131072u},
                      std::pair{131072u, 524288u},
                      std::pair{262144u, 1048576u}));

TEST(Bank, RefreshResetsAccumulatedDose) {
  const auto hc = doubling_hc();
  TestBank t;
  const auto victim_bits = RowBits::filled(0x55);
  t.write_row(kVictim, victim_bits);
  t.write_row(kVictim - 1, RowBits::filled(0xAA));
  t.write_row(kVictim + 1, RowBits::filled(0xAA));
  // Two half-doses with a victim refresh in between never flip...
  t.hammer(kVictim, hc / 2);
  t.bank.refresh_row(kVictim, t.now);
  t.hammer(kVictim, hc / 2);
  EXPECT_EQ(t.read_row(kVictim).count_diff(victim_bits), 0);
  // ...whereas the same total without the refresh does (fresh instance).
  EXPECT_GT(flips_after(hc), 0);
}

TEST(Bank, ActivationRestoresTheActivatedRow) {
  const auto hc = doubling_hc();
  TestBank t;
  const auto victim_bits = RowBits::filled(0x55);
  t.write_row(kVictim, victim_bits);
  t.write_row(kVictim - 1, RowBits::filled(0xAA));
  t.write_row(kVictim + 1, RowBits::filled(0xAA));
  t.hammer(kVictim, hc / 2);
  // Reading the victim activates (senses + restores) it.
  EXPECT_EQ(t.read_row(kVictim).count_diff(victim_bits), 0);
  t.hammer(kVictim, hc / 2);
  EXPECT_EQ(t.read_row(kVictim).count_diff(victim_bits), 0);
}

TEST(Bank, DisturbanceDoesNotCrossSubarrayBoundary) {
  // Subarray 0 ends at physical row 831; subarray 1 starts at 832.
  TestBank t;
  const auto bits = RowBits::filled(0x55);
  t.write_row(831, bits);
  t.write_row(833, bits);
  const std::array<HammerStep, 1> steps = {
      HammerStep{832, t.timing.t_ras}};
  t.now = t.bank.bulk_hammer(steps, 2'000'000, t.now) + 100;
  // Row 831 (other subarray): untouched. Row 833 (same subarray): flipped.
  EXPECT_EQ(t.read_row(831).count_diff(bits), 0);
  EXPECT_GT(t.read_row(833).count_diff(bits), 0);
}

TEST(Bank, BulkHammerMatchesIterativeExecution) {
  constexpr std::uint64_t kCount = 40000;
  // Iterative: explicit ACT/PRE pairs at the canonical schedule.
  TestBank slow;
  const auto victim_bits = RowBits::filled(0x55);
  slow.write_row(kVictim, victim_bits);
  slow.write_row(kVictim - 1, RowBits::filled(0xAA));
  slow.write_row(kVictim + 1, RowBits::filled(0xAA));
  TestBank fast;
  fast.write_row(kVictim, victim_bits);
  fast.write_row(kVictim - 1, RowBits::filled(0xAA));
  fast.write_row(kVictim + 1, RowBits::filled(0xAA));

  Cycle now = std::max(slow.now, fast.now);
  slow.now = fast.now = now;
  for (std::uint64_t i = 0; i < kCount; ++i) {
    for (int row : {kVictim - 1, kVictim + 1}) {
      slow.bank.activate(row, slow.now);
      slow.bank.precharge(slow.now + slow.timing.t_ras);
      slow.now += slow.timing.t_rc;
    }
  }
  fast.hammer(kVictim, kCount);

  slow.now += 100;
  EXPECT_EQ(slow.read_row(kVictim), fast.read_row(kVictim));
}

TEST(Bank, FoldedWindowDoseMatchesPerCommandEpochs) {
  // One window activates row A at two on-times in alternation (tRAS,
  // RowPress, tRAS), interleaved with row B. apply() folds A's steps into
  // one dose entry per on-time; each victim's ledger must still hold the
  // per-command path's epochs, in its order, with its counts.
  constexpr std::uint64_t kIterations = 3000;
  constexpr int kA = kVictim - 1;
  constexpr int kB = kVictim + 1;
  TestBank slow;
  TestBank fast;
  const Cycle press = slow.timing.t_ras + 2000;
  const std::array<HammerStep, 5> steps = {
      HammerStep{kA, slow.timing.t_ras}, HammerStep{kB, slow.timing.t_ras},
      HammerStep{kA, press}, HammerStep{kB, slow.timing.t_ras},
      HammerStep{kA, slow.timing.t_ras}};
  for (TestBank* t : {&slow, &fast}) {
    t->write_row(kVictim, RowBits::filled(0x55));
    t->write_row(kA, RowBits::filled(0xAA));
    t->write_row(kB, RowBits::filled(0xAA));
    t->write_row(kA - 1, RowBits::filled(0x55));
  }

  // Per command, at the canonical schedule bulk_hammer replays.
  for (std::uint64_t i = 0; i < kIterations; ++i) {
    Cycle prev_pre = 0;
    Cycle prev_act = 0;
    for (std::size_t k = 0; k < steps.size(); ++k) {
      Cycle act = slow.now;
      if (k > 0) {
        act = std::max(prev_pre + slow.timing.t_rp,
                       prev_act + slow.timing.t_rc);
      }
      slow.bank.activate(steps[k].row, act);
      slow.bank.precharge(act + steps[k].on_cycles);
      prev_act = act;
      prev_pre = act + steps[k].on_cycles;
    }
    slow.now = std::max(prev_pre + slow.timing.t_rp,
                        prev_act + slow.timing.t_rc);
  }
  fast.now = fast.bank.bulk_hammer(steps, kIterations, fast.now);
  EXPECT_EQ(fast.now, slow.now);

  for (int victim : {kA - 2, kA - 1, kVictim, kB + 1, kB + 2}) {
    SCOPED_TRACE(victim);
    const auto* want = slow.bank.ledger(victim);
    const auto* got = fast.bank.ledger(victim);
    ASSERT_NE(want, nullptr);
    ASSERT_NE(got, nullptr);
    ASSERT_EQ(got->epochs().size(), want->epochs().size());
    for (std::size_t e = 0; e < want->epochs().size(); ++e) {
      SCOPED_TRACE(e);
      const auto& w = want->epochs()[e];
      const auto& g = got->epochs()[e];
      EXPECT_EQ(g.distance, w.distance);
      EXPECT_EQ(g.aggressor_version, w.aggressor_version);
      EXPECT_EQ(g.unit, w.unit);
      EXPECT_EQ(g.count, w.count);
    }
  }
  // The victim between A and B: after the three epochs of the setup
  // writes (longer on-times), A at tRAS, B, then A pressed.
  const auto& all = fast.bank.ledger(kVictim)->epochs();
  ASSERT_EQ(all.size(), 6u);
  const std::span<const disturb::DoseEpoch> epochs(all.data() + 3, 3);
  EXPECT_EQ(epochs[0].distance, -1);
  EXPECT_EQ(epochs[0].count, 2 * kIterations);
  EXPECT_EQ(epochs[1].distance, 1);
  EXPECT_EQ(epochs[1].count, 2 * kIterations);
  EXPECT_EQ(epochs[1].unit, epochs[0].unit);
  EXPECT_EQ(epochs[2].distance, -1);
  EXPECT_EQ(epochs[2].count, kIterations);
  EXPECT_GT(epochs[2].unit, epochs[0].unit);

  EXPECT_EQ(fast.read_row(kVictim), slow.read_row(kVictim));
  EXPECT_EQ(fast.read_row(kA - 1), slow.read_row(kA - 1));
  const auto& s = slow.bank.counters();
  const auto& f = fast.bank.counters();
  EXPECT_EQ(f.activations, s.activations);
  EXPECT_EQ(f.bitflips_materialized, s.bitflips_materialized);
  EXPECT_EQ(f.sense_word_ops, s.sense_word_ops);
  EXPECT_EQ(f.sense_cells_visited, s.sense_cells_visited);
  EXPECT_EQ(f.bulk_hammer_windows, 1u);
  EXPECT_EQ(f.hammer_dedup_hits, 3u);  // 5 steps over 2 distinct rows
}

TEST(Bank, PrechargeWhoseVictimsGrowTheRowTable) {
  // disturb_neighbors resolves each victim once and keeps the pointers to
  // the end, so creating the victims must not move the row table. Fill
  // the table to every size up to 140 states, so that some run finds it
  // full or one to three entries short of full whatever its growth
  // policy, then ACT+PRE an aggressor whose four victims are all new.
  constexpr int kFirst = 1000;  // subarray 1; kVictim's is subarray 5
  for (int extra = 0; extra <= 135; ++extra) {
    SCOPED_TRACE(extra);
    TestBank t;
    // Sweeping the aggressor up one row at a time adds one state per ACT
    // after the first: its new +2 victim.
    for (int row = kFirst; row <= kFirst + extra; ++row) {
      t.bank.activate(row, t.now);
      t.now += t.timing.t_ras;
      t.bank.precharge(t.now);
      t.now += t.timing.t_rp;
    }
    ASSERT_EQ(t.bank.touched_rows(), static_cast<std::size_t>(5 + extra));

    const Cycle on = t.timing.t_ras + 50;
    t.bank.activate(kVictim, t.now);
    t.bank.precharge(t.now + on);
    ASSERT_EQ(t.bank.touched_rows(), static_cast<std::size_t>(10 + extra));
    for (int victim : {kVictim - 2, kVictim - 1, kVictim + 1, kVictim + 2}) {
      SCOPED_TRACE(victim);
      const auto* ledger = t.bank.ledger(victim);
      ASSERT_NE(ledger, nullptr);
      ASSERT_EQ(ledger->epochs().size(), 1u);
      const auto& epoch = ledger->epochs()[0];
      EXPECT_EQ(epoch.distance, kVictim - victim);
      EXPECT_EQ(epoch.aggressor_version, 0u);
      EXPECT_EQ(epoch.unit, t.fault.taggon_factor(on));
      EXPECT_EQ(epoch.count, 1u);
      EXPECT_EQ(epoch.aggressor_bits, nullptr);
    }
    // The swept rows keep their own victims' epochs.
    ASSERT_NE(t.bank.ledger(kFirst + extra + 2), nullptr);
    EXPECT_EQ(t.bank.ledger(kFirst + extra + 2)->epochs().size(), 1u);
  }
}

TEST(Bank, RetentionDecayAppearsOverTime) {
  TestBank t;
  t.env.temperature_c = 90.0;
  const auto bits = RowBits::filled(0xFF);
  // Find a row with at least one weak cell within 4 s at 90 C.
  int weak_row = -1;
  for (int row = 100; row < 400; ++row) {
    t.write_row(row, bits);
    t.now += seconds_to_cycles(4.0);
    if (t.read_row(row).count_diff(bits) > 0) {
      weak_row = row;
      break;
    }
  }
  ASSERT_GE(weak_row, 0) << "no retention-weak row in scan range";
  // Short waits keep the data intact.
  t.write_row(weak_row, bits);
  t.now += seconds_to_cycles(0.030);
  EXPECT_EQ(t.read_row(weak_row).count_diff(bits), 0);
  // Longer waits decay at least as many cells as shorter ones.
  t.write_row(weak_row, bits);
  t.now += seconds_to_cycles(4.0);
  const int at_4s = t.read_row(weak_row).count_diff(bits);
  t.write_row(weak_row, bits);
  t.now += seconds_to_cycles(40.0);
  const int at_40s = t.read_row(weak_row).count_diff(bits);
  EXPECT_GT(at_4s, 0);
  EXPECT_GE(at_40s, at_4s);
}

TEST(Bank, PointerRefreshWalksAllRows) {
  TestBank t;
  EXPECT_EQ(t.bank.refresh_pointer(), 0);
  t.channel.refresh(t.now);
  EXPECT_EQ(t.bank.refresh_pointer(), t.timing.rows_per_ref());
  // A full window of REFs covers every row and wraps the pointer around.
  for (int i = 1; i < t.timing.refs_per_window(); ++i) {
    t.now += t.timing.t_rfc + 10;
    t.channel.refresh(t.now);
  }
  const int expected =
      (t.timing.refs_per_window() * t.timing.rows_per_ref()) % kRowsPerBank;
  EXPECT_EQ(t.bank.refresh_pointer(), expected);
}

TEST(Bank, RefAfterIdleRefsRefreshesTheChannelsPointerRows) {
  TestBank t;
  constexpr int kRefs = 5;
  for (int i = 0; i < kRefs; ++i) {
    t.channel.refresh(t.now);
    t.now += t.timing.t_rfc + 10;
  }
  // The REFs skipped the bank: it had no command, so it has no state.
  EXPECT_EQ(t.bank.touched_rows(), 0u);
  const int pointer = kRefs * t.timing.rows_per_ref();
  ASSERT_EQ(t.bank.refresh_pointer(), pointer);
  ASSERT_EQ(t.timing.rows_per_ref(), 2);
  // One ACT+PRE of the row after the next REF's two rows doses both of
  // them and the two rows above it.
  const int aggressor = pointer + 2;
  t.bank.activate(aggressor, t.now);
  t.now += t.timing.t_ras;
  t.bank.precharge(t.now);
  t.now += t.timing.t_rp;
  for (int row : {pointer, pointer + 1, aggressor + 1, aggressor + 2}) {
    ASSERT_NE(t.bank.ledger(row), nullptr) << row;
    ASSERT_FALSE(t.bank.ledger(row)->empty()) << row;
  }
  t.channel.refresh(t.now);
  EXPECT_TRUE(t.bank.ledger(pointer)->empty());
  EXPECT_TRUE(t.bank.ledger(pointer + 1)->empty());
  EXPECT_FALSE(t.bank.ledger(aggressor + 1)->empty());
  EXPECT_FALSE(t.bank.ledger(aggressor + 2)->empty());
  EXPECT_EQ(t.bank.refresh_pointer(), pointer + t.timing.rows_per_ref());
}

class CountingDefense : public ReadDisturbDefense {
 public:
  std::unique_ptr<ReadDisturbDefense> clone() const override {
    return std::make_unique<CountingDefense>(*this);
  }
  void on_activate(int row, Cycle) override {
    ++activations;
    last_row = row;
  }
  void on_window(const ActivationWindow& window) override {
    for (auto acts : window.acts) activations += acts * window.rounds;
    last_row = window.recency.front();
  }
  std::vector<int> on_refresh(std::uint64_t ref) override {
    ++refreshes;
    last_ref = ref;
    return victims_to_refresh;
  }

  std::uint64_t activations = 0;
  int refreshes = 0;
  std::uint64_t last_ref = 0;  // the channel ordinal of the last REF
  int last_row = -1;
  std::vector<int> victims_to_refresh;
};

TEST(Bank, DefenseHooksAreInvoked) {
  TestBank t;
  auto defense = std::make_unique<CountingDefense>();
  auto* raw = defense.get();
  t.bank.set_defense(std::move(defense));

  t.bank.activate(10, t.now);
  t.bank.precharge(t.now + t.timing.t_ras);
  t.now += 1000;
  EXPECT_EQ(raw->activations, 1u);
  EXPECT_EQ(raw->last_row, 10);

  const std::array<HammerStep, 1> steps = {HammerStep{20, t.timing.t_ras}};
  t.now = t.bank.bulk_hammer(steps, 500, t.now) + 100;
  EXPECT_EQ(raw->activations, 501u);
  EXPECT_EQ(raw->last_row, 20);

  t.channel.refresh(t.now);
  EXPECT_EQ(raw->refreshes, 1);
  EXPECT_EQ(raw->last_ref, 1u);
}

TEST(Bank, DefenseVictimRefreshProtects) {
  const auto hc = doubling_hc();
  TestBank t;
  auto defense = std::make_unique<CountingDefense>();
  auto* raw = defense.get();
  t.bank.set_defense(std::move(defense));
  const auto victim_bits = RowBits::filled(0x55);
  t.write_row(kVictim, victim_bits);
  t.write_row(kVictim - 1, RowBits::filled(0xAA));
  t.write_row(kVictim + 1, RowBits::filled(0xAA));
  t.hammer(kVictim, hc / 2);
  raw->victims_to_refresh = {kVictim};
  t.channel.refresh(t.now);  // defense refreshes the victim
  t.now += t.timing.t_rfc + 10;
  t.hammer(kVictim, hc / 2);
  EXPECT_EQ(t.read_row(kVictim).count_diff(victim_bits), 0);
}

TEST(Bank, DefenseVictimRefreshDisturbsItsNeighbors) {
  // Sec. 8.1: a TRR victim refresh is a row activation, so it carries the
  // HalfDouble vector — the refreshed row's neighbours receive dose.
  TestBank t;
  auto defense = std::make_unique<CountingDefense>();
  auto* raw = defense.get();
  t.bank.set_defense(std::move(defense));
  t.write_row(200, RowBits::filled(0x55));
  t.write_row(201, RowBits::filled(0x55));
  raw->victims_to_refresh = {200};
  t.channel.refresh(t.now);
  const auto* neighbor_ledger = t.bank.ledger(201);
  ASSERT_NE(neighbor_ledger, nullptr);
  EXPECT_GT(neighbor_ledger->adjacent_dose(), 0.0);
  // Pointer refreshes stay disturbance-free: a defense-less refresh pass
  // touches no additional rows.
  TestBank plain;
  plain.channel.refresh(plain.now);
  EXPECT_EQ(plain.bank.touched_rows(), 0u);
}

TEST(Bank, ProtocolErrors) {
  TestBank t;
  t.bank.activate(5, t.now);
  EXPECT_THROW(t.bank.activate(6, t.now + 1000), TimingViolation);
  EXPECT_THROW(t.bank.precharge(t.now + 1), TimingViolation);  // tRAS
  EXPECT_THROW(t.channel.refresh(t.now + 5000),  // open bank
               TimingViolation);
  t.bank.precharge(t.now + t.timing.t_ras);
  std::array<std::uint64_t, kWordsPerColumn> buffer;
  EXPECT_THROW(t.bank.read_column(0, buffer, t.now + 500), TimingViolation);
  EXPECT_THROW(t.bank.activate(-1, t.now + 5000), std::out_of_range);
  EXPECT_THROW(t.bank.activate(kRowsPerBank, t.now + 5000),
               std::out_of_range);
}

TEST(Bank, BulkHammerValidation) {
  TestBank t;
  const std::array<HammerStep, 1> steps = {HammerStep{10, t.timing.t_ras}};
  EXPECT_THROW(t.bank.bulk_hammer({}, 10, t.now), std::invalid_argument);
  EXPECT_THROW(t.bank.bulk_hammer(steps, 0, t.now), std::invalid_argument);
  const std::array<HammerStep, 1> short_on = {HammerStep{10, 1}};
  EXPECT_THROW(t.bank.bulk_hammer(short_on, 10, t.now), TimingViolation);
  t.bank.activate(5, t.now);
  EXPECT_THROW(t.bank.bulk_hammer(steps, 10, t.now + 1000), TimingViolation);
}

TEST(Bank, CountersTrackDeviceEvents) {
  TestBank t;
  EXPECT_EQ(t.bank.counters().activations, 0u);
  t.write_row(100, RowBits::filled(0x55));  // one ACT
  t.write_row(99, RowBits::filled(0xAA));
  t.write_row(101, RowBits::filled(0xAA));
  t.hammer(100, 1000);  // 2 aggressors x 1000 via the fast path
  EXPECT_EQ(t.bank.counters().activations, 3u + 2000u);
  t.channel.refresh(t.now);
  t.now += t.timing.t_rfc + 10;
  EXPECT_EQ(t.channel.issued(), 1u);
  // Flips materialize into the counter too.
  const auto before = t.bank.counters().bitflips_materialized;
  t.hammer(100, 2'000'000);
  (void)t.read_row(100);
  EXPECT_GT(t.bank.counters().bitflips_materialized, before);
}

/// The row's deterministic power-on contents.
RowBits power_on(const TestBank& t, int row) {
  RowBits bits;
  for (int w = 0; w < RowBits::kWords; ++w) {
    bits.words()[static_cast<std::size_t>(w)] =
        t.fault.power_on_word(kAddr, row, w);
  }
  return bits;
}

TEST(Bank, DoseOnlyVictimSkipsContentsAndCache) {
  TestBank t;
  t.write_row(kVictim - 1, RowBits::filled(0xAA));
  t.write_row(kVictim + 1, RowBits::filled(0xAA));
  const auto lookups = t.cache.stats().lookups();
  // Far below any threshold: the never-written victim gets a dose ledger
  // through both the fast path and a plain ACT/PRE, and nothing else.
  t.hammer(kVictim, 1000);
  t.bank.activate(kVictim - 1, t.now);
  t.now += t.timing.t_ras + 100;
  t.bank.precharge(t.now);
  t.now += t.timing.t_rp + 100;
  ASSERT_NE(t.bank.ledger(kVictim), nullptr);
  EXPECT_FALSE(t.bank.ledger(kVictim)->empty());
  EXPECT_EQ(t.cache.stats().lookups(), lookups);
  const auto stored = t.bank.stored_row(kVictim);
  ASSERT_TRUE(stored.has_value());
  EXPECT_EQ(stored->bits, power_on(t, kVictim));
  EXPECT_EQ(t.cache.stats().lookups(), lookups);
  // The first read materializes the contents: one cache peek.
  EXPECT_EQ(t.read_row(kVictim), power_on(t, kVictim));
  EXPECT_EQ(t.cache.stats().lookups(), lookups + 1);
}

TEST(Bank, WritingAnAggressorKeepsItsOpenEpochContents) {
  TestBank t;
  t.write_row(kVictim, RowBits::filled(0x55));
  t.write_row(kVictim - 1, RowBits::filled(0xAA));
  t.write_row(kVictim + 1, RowBits::filled(0xAA));
  t.hammer(kVictim, doubling_hc());
  // Rewriting the aggressor must copy its contents, not change the ones
  // the victim's open epoch shares.
  t.write_row(kVictim - 1, RowBits::filled(0x0F));
  const disturb::DoseLedger* ledger = t.bank.ledger(kVictim);
  ASSERT_NE(ledger, nullptr);
  int hammered_epochs = 0;
  for (const auto& e : ledger->epochs()) {
    ASSERT_NE(e.aggressor_bits, nullptr);
    if (e.count > 1) {
      ++hammered_epochs;
      EXPECT_EQ(*e.aggressor_bits, RowBits::filled(0xAA));
    }
  }
  EXPECT_EQ(hammered_epochs, 2);
  const auto stored = t.bank.stored_row(kVictim);
  ASSERT_TRUE(stored.has_value());
  const RowBits expected = oracle::per_cell_sense(
      t.fault, kAddr, kVictim, stored->bits, *ledger,
      cycles_to_seconds(t.now - stored->last_restore), t.env.temperature_c);
  const RowBits got = t.read_row(kVictim);
  EXPECT_EQ(got, expected);
  EXPECT_GT(got.count_diff(RowBits::filled(0x55)), 0);
}

TEST(Bank, RestoreRecoversContentsSharedWithThePreImage) {
  TestBank t;
  t.write_row(kVictim, RowBits::filled(0x55));
  t.write_row(kVictim - 1, RowBits::filled(0xAA));
  t.write_row(kVictim + 1, RowBits::filled(0xAA));
  ASSERT_EQ(t.ladder.push(), 0u);
  for (int round = 0; round < 2; ++round) {
    // A column write and a flipping sense each replace contents that the
    // pre-images share; restoring must bring back the pushed contents.
    t.write_row(kVictim - 1, RowBits::filled(0x3C));
    EXPECT_EQ(t.read_row(kVictim - 1), RowBits::filled(0x3C));
    t.hammer(kVictim, 2 * doubling_hc());
    EXPECT_NE(t.read_row(kVictim), RowBits::filled(0x55));
    t.ladder.restore(0);
    EXPECT_EQ(t.read_row(kVictim - 1), RowBits::filled(0xAA))
        << "round " << round;
    EXPECT_EQ(t.read_row(kVictim), RowBits::filled(0x55)) << "round " << round;
    t.ladder.restore(0);
  }
  t.ladder.discard();
}

TEST(Bank, RestoreErasingMiddleTableEntriesKeepsOtherRows) {
  TestBank t;
  t.write_row(1000, RowBits::filled(0x11));
  t.write_row(2000, RowBits::filled(0x22));
  t.hammer(1500, 5000);  // dose-only rows around never-written aggressors
  struct Saved {
    int row;
    RowBits bits;
    Cycle last_restore;
    std::size_t epochs;
    double adjacent_dose;
  };
  std::vector<Saved> saved;
  for (int row = 900; row < 2100; ++row) {
    const auto stored = t.bank.stored_row(row);
    if (!stored) continue;
    const auto* ledger = t.bank.ledger(row);
    saved.push_back({row, stored->bits, stored->last_restore,
                     ledger->epochs().size(), ledger->adjacent_dose()});
  }
  const std::size_t touched = t.bank.touched_rows();
  ASSERT_EQ(saved.size(), touched);

  ASSERT_EQ(t.ladder.push(), 0u);
  // New rows first (they sit mid-table once later rows follow), then
  // changes to rows that already had state.
  t.write_row(1200, RowBits::filled(0x33));
  t.write_row(1300, RowBits::filled(0x44));
  t.write_row(2000, RowBits::filled(0x55));
  t.hammer(1000, 7000);
  ASSERT_GT(t.bank.touched_rows(), touched);
  t.ladder.restore(0);

  EXPECT_EQ(t.bank.touched_rows(), touched);
  for (const auto& s : saved) {
    const auto stored = t.bank.stored_row(s.row);
    ASSERT_TRUE(stored.has_value()) << "row " << s.row;
    EXPECT_EQ(stored->bits, s.bits) << "row " << s.row;
    EXPECT_EQ(stored->last_restore, s.last_restore) << "row " << s.row;
    const auto* ledger = t.bank.ledger(s.row);
    EXPECT_EQ(ledger->epochs().size(), s.epochs) << "row " << s.row;
    EXPECT_EQ(ledger->adjacent_dose(), s.adjacent_dose) << "row " << s.row;
  }
  for (int row : {1198, 1199, 1200, 1201, 1202, 1300}) {
    EXPECT_EQ(t.bank.ledger(row), nullptr) << "row " << row;
  }
  t.ladder.discard();
}

TEST(Bank, DropRowStatesReclaimsMemory) {
  TestBank t;
  t.write_row(100, RowBits::filled(0xFF));
  EXPECT_GT(t.bank.touched_rows(), 0u);
  t.bank.drop_row_states();
  EXPECT_EQ(t.bank.touched_rows(), 0u);
  // Contents revert to power-on garbage.
  EXPECT_NE(t.read_row(100), RowBits::filled(0xFF));
}

}  // namespace
}  // namespace hbmrd::dram
