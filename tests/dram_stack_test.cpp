#include "dram/stack.h"

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <memory>
#include <stdexcept>
#include <vector>

#include "trr/counter_trr.h"
#include "trr/undocumented_trr.h"

namespace hbmrd::dram {
namespace {

StackConfig test_config(MappingScheme scheme = MappingScheme::kIdentity) {
  StackConfig config;
  config.disturb.seed = 0x57ACull;
  config.mapping = scheme;
  return config;
}

/// test_config() with Chip 0's undocumented TRR in every bank.
StackConfig trr_config() {
  StackConfig config = test_config();
  config.defense_factory = [](const BankAddress&) {
    return std::make_unique<trr::UndocumentedTrr>();
  };
  return config;
}

/// test_config() with the alternative-hypothesis counter TRR in every bank.
StackConfig counter_trr_config() {
  StackConfig config = test_config();
  config.defense_factory = [](const BankAddress&) {
    return std::make_unique<trr::CounterTrr>();
  };
  return config;
}

struct StackFixture {
  explicit StackFixture(StackConfig config = test_config())
      : stack(std::move(config)) {}

  Stack stack;
  TimingParams timing{};
  Cycle now = 1000;

  void write_row(const RowAddress& addr, const RowBits& bits) {
    stack.activate(addr, now);
    std::array<std::uint64_t, kWordsPerColumn> column;
    for (int c = 0; c < kColumns; ++c) {
      bits.get_column(c, column);
      stack.write_column(addr.bank, c, column, now + timing.t_rcd + 1);
    }
    now += timing.t_ras + 100;
    stack.precharge(addr.bank, now);
    now += timing.t_rp + 100;
  }

  RowBits read_row(const RowAddress& addr) {
    stack.activate(addr, now);
    RowBits bits;
    std::array<std::uint64_t, kWordsPerColumn> column;
    for (int c = 0; c < kColumns; ++c) {
      stack.read_column(addr.bank, c, column, now + timing.t_rcd + 1);
      bits.set_column(c, column);
    }
    now += timing.t_ras + 100;
    stack.precharge(addr.bank, now);
    now += timing.t_rp + 100;
    return bits;
  }

  /// One REF to `channel` now; the clock moves past its tRFC.
  void ref(int channel) {
    stack.refresh(channel, now);
    now += timing.t_rfc + 10;
  }
};

TEST(Stack, BanksAreIndependent) {
  StackFixture f;
  const RowAddress a{{0, 0, 0}, 50};
  const RowAddress b{{3, 1, 7}, 50};
  f.write_row(a, RowBits::filled(0x11));
  f.write_row(b, RowBits::filled(0x22));
  EXPECT_EQ(f.read_row(a), RowBits::filled(0x11));
  EXPECT_EQ(f.read_row(b), RowBits::filled(0x22));
}

TEST(Stack, MappingTranslatesActivations) {
  StackFixture f(test_config(MappingScheme::kPairSwap));
  const BankAddress bank{0, 0, 0};
  // Logical 1 is physical 2 under pair-swap.
  f.write_row({bank, 1}, RowBits::filled(0x77));
  EXPECT_EQ(f.stack.mapping().to_physical(1), 2);
  // The bank's open-row bookkeeping is physical: hammering logical rows 0
  // and 2 (physical 0 and 1) must disturb... verified at study level; here
  // we check that reading logical 1 returns what was written (round trip
  // through the translation).
  EXPECT_EQ(f.read_row({bank, 1}), RowBits::filled(0x77));
}

TEST(Stack, BulkHammerTranslatesLogicalRows) {
  // Under pair-swap, victim logical 4301 <-> physical neighbors of its
  // physical row; use the identity part (offset 3 in block of 4: 4303).
  StackFixture f(test_config(MappingScheme::kPairSwap));
  const BankAddress bank{0, 0, 0};
  const int victim_physical = 4302;  // logical 4301
  const int victim_logical = f.stack.mapping().to_logical(victim_physical);
  const int aggr_low = f.stack.mapping().to_logical(victim_physical - 1);
  const int aggr_high = f.stack.mapping().to_logical(victim_physical + 1);

  f.write_row({bank, victim_logical}, RowBits::filled(0x55));
  f.write_row({bank, aggr_low}, RowBits::filled(0xAA));
  f.write_row({bank, aggr_high}, RowBits::filled(0xAA));
  const std::array<HammerStep, 2> steps = {
      HammerStep{aggr_low, f.timing.t_ras},
      HammerStep{aggr_high, f.timing.t_ras}};
  f.now = f.stack.bulk_hammer(bank, steps, 2'000'000, f.now) + 100;
  EXPECT_GT(f.read_row({bank, victim_logical})
                .count_diff(RowBits::filled(0x55)),
            0);
}

TEST(Stack, ModeRegistersRoundTrip) {
  StackFixture f;
  f.stack.mode_register_set(4, 0x1);
  EXPECT_EQ(f.stack.mode_register_read(4), 0x1u);
  EXPECT_TRUE(f.stack.mode_registers().ecc_enabled());
  EXPECT_THROW(f.stack.mode_register_set(99, 0), std::out_of_range);
}

TEST(Stack, EccCorrectsSingleFlipAndCountsIt) {
  StackFixture f;
  f.stack.mode_registers().set_ecc_enabled(true);
  const BankAddress bank{0, 0, 0};
  const RowAddress addr{bank, 4300};
  f.write_row(addr, RowBits::filled(0x55));

  // Inject a single-bit error directly into the stored row (simulator
  // backdoor: flip via a tiny hammer is imprecise, so poke the bank).
  // A 1-bit error in word 0 must be corrected transparently.
  f.stack.bank(bank).activate(4300, f.now);
  std::array<std::uint64_t, kWordsPerColumn> column;
  f.stack.bank(bank).read_column(0, column, f.now + f.timing.t_rcd + 1);
  column[0] ^= 1ull;  // corrupt one bit
  f.stack.bank(bank).write_column(0, column, f.now + f.timing.t_rcd + 2);
  f.now += f.timing.t_ras + 100;
  f.stack.bank(bank).precharge(f.now);
  f.now += 100;

  EXPECT_EQ(f.read_row(addr), RowBits::filled(0x55));
  EXPECT_EQ(f.stack.ecc_counters().corrected_words, 1u);
  EXPECT_EQ(f.stack.ecc_counters().detected_uncorrectable_words, 0u);
}

TEST(Stack, EccDetectsDoubleFlip) {
  StackFixture f;
  f.stack.mode_registers().set_ecc_enabled(true);
  const BankAddress bank{0, 0, 0};
  const RowAddress addr{bank, 4300};
  f.write_row(addr, RowBits::filled(0x55));

  f.stack.bank(bank).activate(4300, f.now);
  std::array<std::uint64_t, kWordsPerColumn> column;
  f.stack.bank(bank).read_column(0, column, f.now + f.timing.t_rcd + 1);
  column[0] ^= 0b101ull;  // two bitflips in one word
  f.stack.bank(bank).write_column(0, column, f.now + f.timing.t_rcd + 2);
  f.now += f.timing.t_ras + 100;
  f.stack.bank(bank).precharge(f.now);
  f.now += 100;

  (void)f.read_row(addr);
  EXPECT_EQ(f.stack.ecc_counters().detected_uncorrectable_words, 1u);
}

TEST(Stack, EccDisabledPassesRawBitsThrough) {
  StackFixture f;
  const BankAddress bank{0, 0, 0};
  const RowAddress addr{bank, 100};
  f.write_row(addr, RowBits::filled(0x00));
  EXPECT_EQ(f.stack.ecc_counters().corrected_words, 0u);
  EXPECT_EQ(f.read_row(addr), RowBits::filled(0x00));
}

TEST(Stack, DocumentedTrrModeRefreshesTargetNeighbors) {
  // Arm TRR Mode on a victim whose neighbours accumulated dose; a REF must
  // reset that dose (JESD235 TRR Mode, Sec. 7 footnote 2).
  StackFixture f;
  const BankAddress bank{0, 0, 0};
  const int target = 4301;
  f.write_row({bank, target - 1}, RowBits::filled(0x55));
  f.write_row({bank, target + 1}, RowBits::filled(0x55));
  // Hammer the target so both neighbours carry dose.
  const std::array<HammerStep, 1> steps = {HammerStep{target, f.timing.t_ras}};
  f.now = f.stack.bulk_hammer(bank, steps, 1000, f.now) + 100;
  ASSERT_GT(f.stack.bank(bank).ledger(target - 1)->adjacent_dose(), 0.0);

  f.stack.mode_registers().set_trr_mode_enabled(true);
  f.stack.mode_registers().set_trr_target(0, 0, target);
  f.stack.refresh(0, f.now);
  f.now += f.timing.t_rfc + 100;
  EXPECT_EQ(f.stack.bank(bank).ledger(target - 1)->adjacent_dose(), 0.0);
  EXPECT_EQ(f.stack.bank(bank).ledger(target + 1)->adjacent_dose(), 0.0);
}

TEST(Stack, RefreshRequiresValidChannel) {
  StackFixture f;
  EXPECT_THROW(f.stack.refresh(-1, f.now), std::out_of_range);
  EXPECT_THROW(f.stack.refresh(8, f.now), std::out_of_range);
}

TEST(Stack, DropRowStatesClearsParityToo) {
  StackFixture f;
  f.stack.mode_registers().set_ecc_enabled(true);
  const BankAddress bank{1, 0, 2};
  f.write_row({bank, 10}, RowBits::filled(0x42));
  f.stack.drop_row_states(bank);
  EXPECT_EQ(f.stack.bank(bank).touched_rows(), 0u);
  // Reading power-on garbage must not decode stale parity: with the parity
  // dropped the raw contents come back unmodified and uncounted.
  const auto before = f.stack.ecc_counters().detected_uncorrectable_words;
  (void)f.read_row({bank, 10});
  EXPECT_EQ(f.stack.ecc_counters().detected_uncorrectable_words, before);
}

// ---------------------------------------------------------------------------
// Checkpoint ladder: banks record their layers lazily.

TEST(StackCheckpoint, BankFirstMutatedUnderALaterRungRewinds) {
  StackFixture f;
  const RowAddress early{{0, 0, 0}, 50};   // mutated under rung 0
  const RowAddress late{{2, 1, 4}, 60};    // first mutated under rung 1
  const RowAddress idle{{5, 0, 9}, 70};    // never touched after a push
  f.write_row(early, RowBits::filled(0x11));
  f.write_row(late, RowBits::filled(0x22));
  f.write_row(idle, RowBits::filled(0x33));

  const auto k0 = f.stack.push_checkpoint();
  f.write_row(early, RowBits::filled(0x44));
  const auto k1 = f.stack.push_checkpoint();
  f.write_row(late, RowBits::filled(0x55));
  const auto k2 = f.stack.push_checkpoint();
  f.write_row(late, RowBits::filled(0x66));
  ASSERT_EQ(k2, 2u);
  EXPECT_EQ(f.stack.checkpoint_depth(), 3u);
  // One layer per rung a bank was mutated under; none for the idle bank.
  EXPECT_EQ(f.stack.bank(early.bank).checkpoint_depth(), 1u);
  EXPECT_EQ(f.stack.bank(late.bank).checkpoint_depth(), 2u);
  EXPECT_EQ(f.stack.bank(idle.bank).checkpoint_depth(), 0u);
  EXPECT_EQ(f.stack.bank({7, 1, 15}).checkpoint_depth(), 0u);

  f.stack.restore_checkpoint(k2);
  EXPECT_EQ(f.stack.checkpoint_depth(), 3u);
  EXPECT_EQ(f.read_row(late), RowBits::filled(0x55));
  EXPECT_EQ(f.read_row(early), RowBits::filled(0x44));

  f.stack.restore_checkpoint(k1);
  EXPECT_EQ(f.stack.checkpoint_depth(), 2u);
  EXPECT_EQ(f.read_row(late), RowBits::filled(0x22));
  EXPECT_EQ(f.read_row(early), RowBits::filled(0x44));
  EXPECT_EQ(f.read_row(idle), RowBits::filled(0x33));

  f.stack.restore_checkpoint(k0);
  EXPECT_EQ(f.read_row(early), RowBits::filled(0x11));
  EXPECT_EQ(f.read_row(late), RowBits::filled(0x22));
  EXPECT_EQ(f.read_row(idle), RowBits::filled(0x33));
  EXPECT_EQ(f.stack.bank(idle.bank).checkpoint_depth(), 1u);  // the read

  f.stack.discard_checkpoints();
  EXPECT_EQ(f.stack.checkpoint_depth(), 0u);
  for (const auto& addr : {early, late, idle}) {
    EXPECT_EQ(f.stack.bank(addr.bank).checkpoint_depth(), 0u);
  }
  EXPECT_THROW(f.stack.restore_checkpoint(0), std::out_of_range);
}

TEST(StackCheckpoint, RestoreRewindsRefAndPreaOfEveryBankInTheChannel) {
  StackFixture f;
  constexpr int kChannel = 3;
  const RowAddress open{{kChannel, 0, 2}, 400};
  const BankAddress other{kChannel, 1, 5};
  f.write_row(open, RowBits::filled(0x5A));
  f.stack.refresh(kChannel, f.now);  // pointers off zero, tRFC history
  f.now += f.timing.t_rfc + 100;
  std::vector<int> pointers;
  for (int pc = 0; pc < kPseudoChannels; ++pc) {
    for (int b = 0; b < kBanksPerPseudoChannel; ++b) {
      pointers.push_back(f.stack.bank({kChannel, pc, b}).refresh_pointer());
    }
  }
  const Cycle opened_at = f.now;
  f.stack.activate(open, opened_at);  // a bank left open across the push
  f.now += f.timing.t_ras + 100;

  const auto k = f.stack.push_checkpoint();
  f.stack.precharge_all(kChannel, f.now);
  f.now += f.timing.t_rp + 100;
  const Cycle ref_at = f.now;
  f.stack.refresh(kChannel, ref_at);
  // Under the REF's tRFC window an ACT is illegal ...
  EXPECT_THROW(f.stack.activate({other, 10}, ref_at + 1), TimingViolation);
  EXPECT_EQ(f.stack.bank({kChannel + 1, 0, 0}).checkpoint_depth(), 0u);

  f.stack.restore_checkpoint(k);
  std::size_t i = 0;
  for (int pc = 0; pc < kPseudoChannels; ++pc) {
    for (int b = 0; b < kBanksPerPseudoChannel; ++b) {
      const Bank& bank = f.stack.bank({kChannel, pc, b});
      EXPECT_EQ(bank.refresh_pointer(), pointers[i++])
          << "pc " << pc << " bank " << b;
      EXPECT_EQ(bank.checkpoint_depth(), 0u);
    }
  }
  // ... and after the restore the REF never happened, while the PREA is
  // undone: the bank is open on its row again and precharges normally.
  EXPECT_NO_THROW(f.stack.activate({other, 10}, ref_at + 1));
  f.stack.precharge(other, ref_at + 1 + f.timing.t_ras);
  ASSERT_TRUE(f.stack.bank(open.bank).is_open());
  EXPECT_EQ(f.stack.bank(open.bank).open_row(),
            f.stack.mapping().to_physical(open.row));
  f.stack.precharge(open.bank, f.now);
  f.now += f.timing.t_rfc + f.timing.t_rp + 100;
  EXPECT_EQ(f.read_row(open), RowBits::filled(0x5A));
  f.stack.discard_checkpoints();
}

TEST(StackCheckpoint, CounterTrrReplaysIdenticallyAfterARestore) {
  // A rung keeps a clone of the counter TRR of each bank mutated under it,
  // so the counter table comes back with the rows: hammering again after
  // the restore makes the same TRR decisions and flips as a straight run.
  const BankAddress bank{0, 0, 0};
  constexpr int kVictim = 4300;
  const auto init = [&](StackFixture& f) {
    f.write_row({bank, kVictim}, RowBits::filled(0x55));
    f.write_row({bank, kVictim - 1}, RowBits::filled(0xAA));
    f.write_row({bank, kVictim + 1}, RowBits::filled(0xAA));
    for (int i = 0; i < 5; ++i) f.ref(bank.channel);
  };
  struct Outcome {
    std::map<int, std::uint64_t> counters;
    std::uint64_t victim_refreshes = 0;
    RowBits victim;
  };
  const auto attack = [&](StackFixture& f) {
    const auto before = f.stack.total_counters().defense_victim_refreshes;
    const std::array<HammerStep, 3> steps = {
        HammerStep{kVictim - 1, f.timing.t_ras},
        HammerStep{kVictim + 1, f.timing.t_ras},
        HammerStep{kVictim + 1, f.timing.t_ras}};
    for (int w = 0; w < 40; ++w) {
      f.now = f.stack.bulk_hammer(bank, steps, 20'000, f.now) + 100;
      f.ref(bank.channel);
    }
    Outcome out;
    out.victim = f.read_row({bank, kVictim});
    out.victim_refreshes =
        f.stack.total_counters().defense_victim_refreshes - before;
    const auto* trr =
        dynamic_cast<const trr::CounterTrr*>(f.stack.bank(bank).defense());
    EXPECT_NE(trr, nullptr);
    if (trr != nullptr) out.counters = trr->counters();
    return out;
  };

  StackFixture straight{counter_trr_config()};
  init(straight);
  const Outcome expected = attack(straight);
  EXPECT_GT(expected.victim_refreshes, 0u);
  EXPECT_FALSE(expected.counters.empty());
  EXPECT_GT(expected.victim.count_diff(RowBits::filled(0x55)), 0);

  StackFixture f{counter_trr_config()};
  init(f);
  const Cycle pushed_at = f.now;
  const auto k = f.stack.push_checkpoint();
  const Outcome first = attack(f);
  EXPECT_EQ(first.counters, expected.counters);
  f.stack.restore_checkpoint(k);
  f.now = pushed_at;
  const Outcome replay = attack(f);
  EXPECT_EQ(replay.counters, expected.counters);
  EXPECT_EQ(replay.victim_refreshes, expected.victim_refreshes);
  EXPECT_EQ(replay.victim, expected.victim);
  f.stack.discard_checkpoints();
}

// ---------------------------------------------------------------------------
// REF is a channel command: one REF clock per channel, and a REF visits only
// the banks that have had a command.

TEST(StackRefresh, BankFirstActivatedAfterKRefsHasPointerKTimesRowsPerRef) {
  StackFixture f;
  constexpr int kRefs = 5;
  const BankAddress bank{2, 1, 6};
  for (int i = 0; i < kRefs; ++i) f.ref(bank.channel);
  EXPECT_EQ(f.stack.bank(bank).touched_rows(), 0u);
  f.write_row({bank, 300}, RowBits::filled(0x3C));
  EXPECT_EQ(f.stack.bank(bank).refresh_pointer(),
            kRefs * f.timing.rows_per_ref());
  EXPECT_EQ(f.stack.bank({3, 0, 0}).refresh_pointer(), 0);
}

TEST(StackRefresh, ActWithinTrfcOfARefThrowsOnAnUntouchedBank) {
  StackFixture f;
  constexpr int kChannel = 4;
  const Cycle ref_at = f.now;
  f.stack.refresh(kChannel, ref_at);
  EXPECT_THROW(f.stack.refresh(kChannel, ref_at + f.timing.t_rfc - 1),
               TimingViolation);
  const RowAddress idle{{kChannel, 1, 9}, 77};
  EXPECT_THROW(f.stack.activate(idle, ref_at + f.timing.t_rfc - 1),
               TimingViolation);
  EXPECT_NO_THROW(f.stack.activate(idle, ref_at + f.timing.t_rfc));
  // Another channel's banks are not gated by this REF.
  EXPECT_NO_THROW(f.stack.activate({{kChannel + 1, 0, 0}, 77}, ref_at + 1));
}

TEST(StackRefresh, OpenBankAndTrpAfterPreStillRejectARef) {
  StackFixture f;
  constexpr int kChannel = 6;
  const BankAddress bank{kChannel, 0, 3};
  f.stack.activate({bank, 40}, f.now);
  EXPECT_THROW(f.stack.refresh(kChannel, f.now + 1000), TimingViolation);
  const Cycle pre_at = f.now + 1000;
  f.stack.precharge(bank, pre_at);
  EXPECT_THROW(f.stack.refresh(kChannel, pre_at + f.timing.t_rp - 1),
               TimingViolation);
  // A rejected REF records nothing.
  EXPECT_EQ(f.stack.refresh_clock(kChannel).refs, 0u);
  EXPECT_EQ(f.stack.total_counters().refresh_commands, 0u);
  EXPECT_NO_THROW(f.stack.refresh(kChannel, pre_at + f.timing.t_rp));
  EXPECT_EQ(f.stack.refresh_clock(kChannel).refs, 1u);
  EXPECT_EQ(f.stack.refresh_clock(kChannel).last_ref,
            pre_at + f.timing.t_rp);
}

TEST(StackRefresh, TrrOfABankFirstTouchedAfter16RefsFiresOnThe17th) {
  StackFixture f{trr_config()};
  const BankAddress bank{1, 1, 2};
  for (int i = 0; i < 16; ++i) f.ref(bank.channel);
  // The bank's first ACT: the TRR's first-ACT latch holds row 4300.
  f.write_row({bank, 4300}, RowBits::filled(0x55));
  EXPECT_EQ(f.stack.bank(bank).counters().defense_victim_refreshes, 0u);
  f.ref(bank.channel);  // the channel's 17th REF is TRR-capable
  EXPECT_EQ(f.stack.bank(bank).counters().defense_victim_refreshes, 2u);
}

TEST(StackRefresh, RestoreRewindsTheChannelsRefClock) {
  StackFixture f{trr_config()};
  constexpr int kChannel = 5;
  const int rows_per_ref = f.timing.rows_per_ref();
  const BankAddress live{kChannel, 0, 1};
  const BankAddress idle{kChannel, 1, 14};
  f.write_row({live, 100}, RowBits::filled(0x11));
  for (int i = 0; i < 3; ++i) f.ref(kChannel);
  const auto k = f.stack.push_checkpoint();
  for (int i = 0; i < 5; ++i) f.ref(kChannel);
  // The REFs opened a layer in the live bank only; the idle bank opened
  // none and cloned no defense.
  EXPECT_EQ(f.stack.bank(live).checkpoint_depth(), 1u);
  for (int pc = 0; pc < kPseudoChannels; ++pc) {
    for (int b = 0; b < kBanksPerPseudoChannel; ++b) {
      if (BankAddress{kChannel, pc, b} == live) continue;
      EXPECT_EQ(f.stack.bank({kChannel, pc, b}).checkpoint_depth(), 0u);
    }
  }
  f.write_row({idle, 4300}, RowBits::filled(0x55));
  EXPECT_EQ(f.stack.bank(idle).refresh_pointer(), 8 * rows_per_ref);

  f.stack.restore_checkpoint(k);
  EXPECT_EQ(f.stack.refresh_clock(kChannel).refs, 3u);
  EXPECT_EQ(f.stack.bank(idle).refresh_pointer(), 3 * rows_per_ref);
  EXPECT_EQ(f.stack.bank(live).refresh_pointer(), 3 * rows_per_ref);
  // The TRR phase is back too: the idle bank's first ACT after the
  // restore is refreshed at the channel's 17th REF, 14 REFs on.
  f.write_row({idle, 4300}, RowBits::filled(0x55));
  const auto victim_refreshes = [&] {
    return f.stack.bank(idle).counters().defense_victim_refreshes;
  };
  const auto before = victim_refreshes();
  for (int i = 0; i < 13; ++i) f.ref(kChannel);
  EXPECT_EQ(victim_refreshes(), before);
  f.ref(kChannel);
  EXPECT_EQ(victim_refreshes(), before + 2);
  f.stack.discard_checkpoints();
}

TEST(StackRefresh, RefreshCommandsAreRefsTimesBanksPerChannel) {
  StackFixture f;
  const auto refs = [&] { return f.stack.total_counters().refresh_commands; };
  const auto per_ref = static_cast<std::uint64_t>(kBanksPerChannel);
  f.ref(0);  // no bank has had a command yet
  EXPECT_EQ(refs(), per_ref);
  f.write_row({{0, 0, 0}, 10}, RowBits::filled(0x01));
  f.write_row({{0, 1, 15}, 10}, RowBits::filled(0x02));
  f.write_row({{1, 0, 4}, 10}, RowBits::filled(0x03));
  f.ref(0);
  f.ref(1);
  f.ref(7);
  EXPECT_EQ(refs(), 4 * per_ref);
  // A rewound REF still counts, like every other device counter.
  const auto k = f.stack.push_checkpoint();
  f.ref(0);
  f.stack.restore_checkpoint(k);
  EXPECT_EQ(refs(), 5 * per_ref);
  f.stack.discard_checkpoints();
}

}  // namespace
}  // namespace hbmrd::dram
