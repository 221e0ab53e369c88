#include "bender/executor.h"

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "bender/program.h"
#include "trr/undocumented_trr.h"

namespace hbmrd::bender {
namespace {

constexpr dram::BankAddress kBank{0, 0, 0};
constexpr dram::BankAddress kOtherBank{2, 1, 5};

dram::StackConfig test_config() {
  dram::StackConfig config;
  config.disturb.seed = 0xEEECull;
  return config;
}

struct ExecutorFixture : ::testing::Test {
  dram::Stack stack{test_config()};
  Executor executor{&stack};
};

TEST_F(ExecutorFixture, WriteReadRoundTrip) {
  ProgramBuilder builder;
  builder.write_row(kBank, 42, dram::RowBits::filled(0x3C));
  builder.read_row(kBank, 42);
  const auto result = executor.run(std::move(builder).build());
  ASSERT_EQ(result.row_count(), 1u);
  EXPECT_EQ(result.row(0), dram::RowBits::filled(0x3C));
  EXPECT_GT(result.end_cycle, result.start_cycle);
}

TEST_F(ExecutorFixture, ReadsMultipleRowsInOrder) {
  ProgramBuilder builder;
  builder.write_row(kBank, 1, dram::RowBits::filled(0x01));
  builder.write_row(kOtherBank, 2, dram::RowBits::filled(0x02));
  builder.read_row(kBank, 1);
  builder.read_row(kOtherBank, 2);
  const auto result = executor.run(std::move(builder).build());
  ASSERT_EQ(result.row_count(), 2u);
  EXPECT_EQ(result.row(0), dram::RowBits::filled(0x01));
  EXPECT_EQ(result.row(1), dram::RowBits::filled(0x02));
  EXPECT_THROW((void)result.row(2), std::out_of_range);
}

TEST_F(ExecutorFixture, SchedulesMinimumLegalTiming) {
  const auto& t = stack.timing();
  ProgramBuilder builder;
  builder.act(kBank, 0).pre(kBank).act(kBank, 1).pre(kBank);
  const auto result = executor.run(std::move(builder).build());
  // Two ACT/PRE pairs cannot complete faster than tRC + tRAS.
  EXPECT_GE(result.elapsed(), t.t_rc + t.t_ras);
}

TEST_F(ExecutorFixture, WaitExtendsRowOnTime) {
  const auto& t = stack.timing();
  ProgramBuilder with_wait;
  with_wait.act(kBank, 0).wait(500).pre(kBank);
  const auto slow = executor.run(std::move(with_wait).build());
  EXPECT_GE(slow.elapsed(), 500u);

  // A fresh session measures the no-wait case without carry-over gating
  // from the previous program's tRC window.
  dram::Stack fresh_stack{test_config()};
  Executor fresh_executor{&fresh_stack};
  ProgramBuilder without;
  without.act(kBank, 0).pre(kBank);
  const auto fast = fresh_executor.run(std::move(without).build());
  EXPECT_LE(fast.elapsed(), t.t_ras + 2);
}

TEST_F(ExecutorFixture, HammerFastPathMatchesIterativeLoop) {
  // Same program shape, one via the analytic fast path (pure ACT/PRE loop)
  // and one forced through iterative execution by a REF in the body of a
  // second chip's run. Instead: compare fast path against a manually
  // unrolled program on a second identical stack.
  constexpr int kVictim = 4300;
  constexpr std::uint64_t kCount = 200000;
  auto run_setup = [](dram::Stack&, Executor& executor, bool fast) {
    ProgramBuilder init;
    init.write_row(kBank, kVictim, dram::RowBits::filled(0x55));
    init.write_row(kBank, kVictim - 1, dram::RowBits::filled(0xAA));
    init.write_row(kBank, kVictim + 1, dram::RowBits::filled(0xAA));
    executor.run(std::move(init).build());
    const std::array<int, 2> rows = {kVictim - 1, kVictim + 1};
    if (fast) {
      ProgramBuilder hammer;
      hammer.hammer(kBank, rows, kCount);
      executor.run(std::move(hammer).build());
    } else {
      // Unrolled: no loop instruction, so no fast path. Use a smaller
      // count and finish with the fast path for the rest to keep runtime
      // sane while still crossing the code seam.
      ProgramBuilder unrolled;
      for (int i = 0; i < 1000; ++i) {
        for (int row : rows) unrolled.act(kBank, row).pre(kBank);
      }
      executor.run(std::move(unrolled).build());
      ProgramBuilder hammer;
      hammer.hammer(kBank, rows, kCount - 1000);
      executor.run(std::move(hammer).build());
    }
    ProgramBuilder read;
    read.read_row(kBank, kVictim);
    return executor.run(std::move(read).build()).row(0);
  };

  dram::Stack fast_stack{test_config()};
  Executor fast_executor{&fast_stack};
  dram::Stack slow_stack{test_config()};
  Executor slow_executor{&slow_stack};
  const auto fast_row = run_setup(fast_stack, fast_executor, true);
  const auto slow_row = run_setup(slow_stack, slow_executor, false);
  EXPECT_EQ(fast_row, slow_row);
  EXPECT_GT(fast_row.count_diff(dram::RowBits::filled(0x55)), 0);
}

TEST_F(ExecutorFixture, RefInterleavedFastPathMatchesIterativeLoop) {
  // The TRR-bypass loop shape: an aggressor window, a REF, a dummy-row
  // window, a REF. As a loop it takes the hammer fast path (REFs replayed,
  // one bulk window per run and iteration); fully unrolled it has no loop,
  // so every command runs iteratively. The refresh pointer passes the
  // victim midway, so both paths must also agree on when it is refreshed.
  constexpr int kVictim = 4300;
  constexpr std::uint64_t kIterations = 3000;
  constexpr int kRounds = 16;
  constexpr dram::Cycle kOnWait = 200;  // RowPress: on-time above tRAS
  const std::array<int, 2> aggressors = {kVictim - 1, kVictim + 1};
  const std::array<int, 2> dummies = {kVictim + 1000, kVictim + 1002};
  const auto body = [&](ProgramBuilder& builder) {
    for (int r = 0; r < kRounds; ++r) {
      for (int row : aggressors) {
        builder.act(kBank, row).wait(kOnWait).pre(kBank);
      }
    }
    builder.ref(kBank.channel);
    for (int row : dummies) builder.act(kBank, row).pre(kBank);
    builder.ref(kBank.channel);
  };
  const auto run = [&](dram::Stack& target, bool as_loop) {
    Executor session{&target};
    ProgramBuilder init;
    init.write_row(kBank, kVictim, dram::RowBits::filled(0x55));
    for (int row : aggressors) {
      init.write_row(kBank, row, dram::RowBits::filled(0xAA));
    }
    session.run(std::move(init).build());
    ProgramBuilder hammer;
    if (as_loop) hammer.loop_begin(kIterations);
    for (std::uint64_t i = 0; i < (as_loop ? 1 : kIterations); ++i) {
      body(hammer);
    }
    if (as_loop) hammer.loop_end();
    session.run(std::move(hammer).build());
    ProgramBuilder read;
    read.read_row(kBank, kVictim);
    return std::pair{session.run(std::move(read).build()).row(0),
                     session.counters()};
  };

  dram::Stack unrolled_stack{test_config()};
  const auto [fast_row, fast] = run(stack, true);
  const auto [slow_row, slow] = run(unrolled_stack, false);
  EXPECT_EQ(fast_row, slow_row);
  EXPECT_GT(fast_row.count_diff(dram::RowBits::filled(0x55)), 0);
  EXPECT_EQ(fast.acts, slow.acts);
  EXPECT_EQ(fast.pres, slow.pres);
  EXPECT_EQ(fast.refs, slow.refs);
  EXPECT_EQ(slow.bulk_hammer_windows, 0u);
  EXPECT_EQ(fast.bulk_hammer_windows, 2 * kIterations);
}

TEST_F(ExecutorFixture, TrrBypassWindowMatchesUnrolledWithTrrAttached) {
  // The Fig. 14 window (REF, a leading dummy, the double-sided burst,
  // round-robin trailing dummies) on stacks with the undocumented TRR. Its
  // TRR-capable REFs refresh victims, so the loop's planned windows must
  // feed the sampler and window counts exactly as the unrolled commands.
  constexpr int kVictim = 4300;
  constexpr std::uint64_t kWindows = 17 * 40;
  constexpr int kAggressorActs = 30;
  const std::array<int, 2> aggressors = {kVictim - 1, kVictim + 1};
  const std::array<int, 3> dummies = {kVictim + 1000, kVictim + 1016,
                                      kVictim + 1032};
  auto config = test_config();
  config.defense_factory = [](const dram::BankAddress&) {
    return std::make_unique<trr::UndocumentedTrr>();
  };
  const int dummy_acts =
      stack.timing().activation_budget() - 2 * kAggressorActs;
  const auto window = [&](ProgramBuilder& builder) {
    builder.ref(kBank.channel);
    builder.act(kBank, dummies[0]).wait(100).pre(kBank);
    for (int i = 0; i < kAggressorActs; ++i) {
      for (int row : aggressors) builder.act(kBank, row).pre(kBank);
    }
    for (int i = 1; i < dummy_acts; ++i) {
      builder.act(kBank, dummies[static_cast<std::size_t>(i) %
                                 dummies.size()])
          .pre(kBank);
    }
  };
  struct Outcome {
    dram::RowBits row;
    ExecutorCounters exec;
    dram::BankCounters device;
    std::vector<int> sampler;
  };
  const auto run = [&](bool as_loop) {
    dram::Stack target{config};
    Executor session{&target};
    ProgramBuilder init;
    init.write_row(kBank, kVictim, dram::RowBits::filled(0x55));
    for (int row : aggressors) {
      init.write_row(kBank, row, dram::RowBits::filled(0xAA));
    }
    session.run(std::move(init).build());
    ProgramBuilder hammer;
    if (as_loop) hammer.loop_begin(kWindows);
    for (std::uint64_t i = 0; i < (as_loop ? 1 : kWindows); ++i) {
      window(hammer);
    }
    if (as_loop) hammer.loop_end();
    session.run(std::move(hammer).build());
    ProgramBuilder read;
    read.read_row(kBank, kVictim);
    auto& bank = target.bank(kBank);
    const auto* trr = dynamic_cast<trr::UndocumentedTrr*>(bank.defense());
    return Outcome{session.run(std::move(read).build()).row(0),
                   session.counters(), bank.counters(), trr->sampler()};
  };

  const Outcome fast = run(true);
  const Outcome slow = run(false);
  EXPECT_EQ(fast.row, slow.row);
  EXPECT_EQ(fast.exec.acts, slow.exec.acts);
  EXPECT_EQ(fast.exec.pres, slow.exec.pres);
  EXPECT_EQ(fast.exec.refs, slow.exec.refs);
  EXPECT_EQ(fast.exec.bulk_hammer_windows, kWindows);
  EXPECT_EQ(slow.exec.bulk_hammer_windows, 0u);
  EXPECT_EQ(fast.device.activations, slow.device.activations);
  EXPECT_GT(slow.device.defense_victim_refreshes, 0u);
  EXPECT_EQ(fast.device.defense_victim_refreshes,
            slow.device.defense_victim_refreshes);
  EXPECT_EQ(fast.sampler, slow.sampler);
}

TEST_F(ExecutorFixture, OutOfRangeRowInHammerLoopThrows) {
  for (bool with_ref : {false, true}) {
    ProgramBuilder builder;
    builder.loop_begin(4);
    if (with_ref) builder.ref(kBank.channel);
    builder.act(kBank, 10).pre(kBank);
    builder.act(kBank, dram::kRowsPerBank).pre(kBank);
    builder.loop_end();
    EXPECT_THROW(executor.run(std::move(builder).build()), std::out_of_range);
  }
}

TEST_F(ExecutorFixture, LoopWithRefRunsIteratively) {
  const auto& t = stack.timing();
  ProgramBuilder builder;
  builder.loop_begin(10);
  builder.ref(0);
  builder.wait(t.t_refi - 1);
  builder.loop_end();
  const auto result = executor.run(std::move(builder).build());
  EXPECT_GE(result.elapsed(), 10 * t.t_refi);
}

TEST_F(ExecutorFixture, RefRespectsTrfcCadence) {
  const auto& t = stack.timing();
  ProgramBuilder builder;
  builder.ref(0).ref(0).ref(0);
  const auto result = executor.run(std::move(builder).build());
  EXPECT_GE(result.elapsed(), 2 * t.t_rfc);
}

TEST_F(ExecutorFixture, PreAllClosesEveryBankOfChannel) {
  ProgramBuilder builder;
  builder.act({0, 0, 3}, 10).act({0, 1, 7}, 20);
  builder.wait(stack.timing().t_ras + 10);
  builder.pre_all(0);
  builder.ref(0);  // would throw if any bank stayed open
  EXPECT_NO_THROW(executor.run(std::move(builder).build()));
}

TEST_F(ExecutorFixture, MrsUpdatesModeRegisters) {
  ProgramBuilder builder;
  builder.mrs(4, 0x1);
  executor.run(std::move(builder).build());
  EXPECT_TRUE(stack.mode_registers().ecc_enabled());
}

TEST_F(ExecutorFixture, AdvanceMovesIdleClock) {
  const auto before = executor.now();
  executor.advance(12345);
  EXPECT_EQ(executor.now(), before + 12345);
}

TEST_F(ExecutorFixture, RejectsMalformedPrograms) {
  Program stray;
  stray.instructions.push_back(LoopEndInstr{});
  EXPECT_THROW(executor.run(stray), std::invalid_argument);

  Program unterminated;
  unterminated.instructions.push_back(LoopBeginInstr{3});
  unterminated.instructions.push_back(ActInstr{kBank, 1});
  EXPECT_THROW(executor.run(unterminated), std::invalid_argument);
}

TEST(Executor, RejectsNullStack) {
  EXPECT_THROW(Executor(nullptr), std::invalid_argument);
}

}  // namespace
}  // namespace hbmrd::bender
