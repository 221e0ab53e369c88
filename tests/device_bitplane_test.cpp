// Bitplane device-model parity (dram/bank.cpp word-parallel sense path).
//
// Contract: the sense's word loop over its candidate mask produces RowBits
// byte-identical to the per-cell reference sense (tests/sense_oracle.h)
// for every device state, and campaign artifacts stay byte-identical
// across --jobs. These tests pin that down at three levels: the plane-fill
// primitives against the per-cell fault-model hashes, the cached summary's
// planes against the per-cell predicates, and a seeded differential fuzz that
// checks every read of a warm-cache and a cold-cache bank against the
// oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "bender/platform.h"
#include "disturb/fault_model.h"
#include "disturb/threshold_cache.h"
#include "dram/bank.h"
#include "dram/chip_profiles.h"
#include "dram/geometry.h"
#include "dram/row_data.h"
#include "dram/timing.h"
#include "runner/runner.h"
#include "scratch.h"
#include "sense_oracle.h"
#include "util/rng.h"

namespace hbmrd::dram {
namespace {

constexpr BankAddress kAddr{0, 0, 0};

disturb::DisturbParams test_params() {
  disturb::DisturbParams p;
  p.seed = 0xB17B1A7Eull;
  return p;
}

// ---------------------------------------------------------------------------
// Plane-fill primitives vs the per-cell fault-model hashes.

TEST(BitplanePrimitives, MembershipPlanesMatchPerCellPredicates) {
  const disturb::FaultModel model(test_params());
  const auto& params = model.params();
  for (int row : {0, 17, 4300, kRowsPerBank - 1}) {
    const auto ctx = model.row_context(kAddr, row);
    const auto prefixes = model.row_hash_prefixes(kAddr, row);
    std::array<std::uint64_t, RowBits::kWords> outlier{};
    std::array<std::uint64_t, RowBits::kWords> weak{};
    std::array<std::uint64_t, RowBits::kWords> leaky{};
    std::array<std::uint64_t, RowBits::kWords> true_cells{};
    disturb::FaultModel::fill_membership_plane(
        prefixes.outlier, params.outlier_fraction, outlier);
    disturb::FaultModel::fill_membership_plane(prefixes.weak,
                                               ctx.weak_density, weak);
    disturb::FaultModel::fill_membership_plane(
        prefixes.leaky, params.leaky_cell_fraction, leaky);
    disturb::FaultModel::fill_membership_plane(
        prefixes.orientation, params.true_cell_fraction, true_cells);
    for (int bit = 0; bit < kRowBits; ++bit) {
      const auto w = static_cast<std::size_t>(bit >> 6);
      const int b = bit & 63;
      ASSERT_EQ((outlier[w] >> b) & 1u,
                model.is_outlier_cell(kAddr, row, bit) ? 1u : 0u)
          << "row " << row << " bit " << bit;
      ASSERT_EQ((weak[w] >> b) & 1u,
                model.is_weak_cell(kAddr, row, bit, ctx.weak_density) ? 1u
                                                                      : 0u)
          << "row " << row << " bit " << bit;
      ASSERT_EQ((leaky[w] >> b) & 1u,
                model.is_leaky_cell(kAddr, row, bit) ? 1u : 0u)
          << "row " << row << " bit " << bit;
      // A cell storing `true` is charged iff it is a true cell.
      ASSERT_EQ((true_cells[w] >> b) & 1u,
                model.is_charged(kAddr, row, bit, true) ? 1u : 0u)
          << "row " << row << " bit " << bit;
    }
  }
}

TEST(BitplanePrimitives, UniformRowsMatchPerCellHashes) {
  // The summary recomputes each uniform from a stored row prefix.
  const disturb::FaultModel model(test_params());
  for (int row : {3, 4300}) {
    disturb::RowThresholdSummary s;
    disturb::build_row_summary(model, kAddr, row, s);
    for (int bit = 0; bit < kRowBits; ++bit) {
      ASSERT_EQ(s.threshold_u(bit),
                model.cell_threshold_uniform(kAddr, row, bit))
          << "row " << row << " bit " << bit;
      const bool is_leaky = model.is_leaky_cell(kAddr, row, bit);
      ASSERT_EQ(s.retention_u(bit, is_leaky),
                model.retention_uniform(kAddr, row, bit, is_leaky))
          << "row " << row << " bit " << bit;
    }
  }
}

TEST(BitplanePrimitives, MembershipThresholdMatchesUnitCompare) {
  // The plane fill compares integer hashes; it must agree with comparing
  // the per-cell uniform against the fraction, edge fractions included.
  const disturb::FaultModel model(test_params());
  const auto prefixes = model.row_hash_prefixes(kAddr, 99);
  for (double fraction : {0.0, 1e-9, 0.02, 0.35, 0.999, 1.0, 2.0}) {
    std::array<std::uint64_t, RowBits::kWords> plane{};
    disturb::FaultModel::fill_membership_plane(prefixes.cell_threshold,
                                               fraction, plane);
    for (int bit = 0; bit < kRowBits; ++bit) {
      const bool via_unit =
          model.cell_threshold_uniform(kAddr, 99, bit) < fraction;
      ASSERT_EQ((plane[static_cast<std::size_t>(bit >> 6)] >> (bit & 63)) & 1u,
                via_unit ? 1u : 0u)
          << "fraction " << fraction << " bit " << bit;
    }
  }
}

// ---------------------------------------------------------------------------
// Cached summary: planes and retention floor agree with the per-cell
// fault-model predicates.

TEST(BitplaneSummary, PlanesMatchPredicatesAndPowerOn) {
  const disturb::FaultModel model(test_params());
  constexpr int kRow = 4300;
  disturb::RowThresholdSummary s;
  disturb::build_row_summary(model, kAddr, kRow, s);
  double min_retention = std::numeric_limits<double>::max();
  for (int bit = 0; bit < kRowBits; ++bit) {
    const auto w = static_cast<std::size_t>(bit >> 6);
    const int b = bit & 63;
    const bool outlier = model.is_outlier_cell(kAddr, kRow, bit);
    const bool weak =
        !outlier && model.is_weak_cell(kAddr, kRow, bit, s.ctx.weak_density);
    const bool leaky = model.is_leaky_cell(kAddr, kRow, bit);
    EXPECT_EQ((s.true_plane[w] >> b) & 1u,
              model.is_true_cell(kAddr, kRow, bit) ? 1u : 0u);
    EXPECT_EQ((s.leaky_plane[w] >> b) & 1u, leaky ? 1u : 0u);
    EXPECT_EQ((s.outlier_plane[w] >> b) & 1u, outlier ? 1u : 0u);
    EXPECT_EQ((s.weak_plane[w] >> b) & 1u, weak ? 1u : 0u);
    min_retention = std::min(
        min_retention,
        model.retention_seconds(kAddr, kRow, bit,
                                test_params().retention_ref_temp_c));
  }
  EXPECT_DOUBLE_EQ(s.min_retention_ref_s, min_retention);
  for (int w = 0; w < RowBits::kWords; ++w) {
    EXPECT_EQ(s.power_on[static_cast<std::size_t>(w)],
              model.power_on_word(kAddr, kRow, w))
        << "word " << w;
  }
}

// ---------------------------------------------------------------------------
// Bank-level differential fuzz: warm- and cold-cache banks vs the oracle.

RowBits random_row(util::Stream& rng) {
  RowBits bits;
  for (auto& word : bits.words()) word = rng.next_u64();
  return bits;
}

/// Two banks sharing one fault model and environment, driven through
/// identical command sequences: one with a warm threshold cache (room for
/// 16 summaries) and one with a cold one (a single summary, so most senses
/// rebuild theirs). Every read is checked against the per-cell oracle.
struct BankPair {
  disturb::FaultModel fault{test_params()};
  Environment env{60.0};
  TimingParams timing{};
  disturb::BankThresholdCache warm{kAddr, 16};
  disturb::BankThresholdCache cold{kAddr, 1};
  CheckpointLadder ladder;
  RefreshChannel channel{timing};
  std::array<Bank, 2> banks{
      Bank{kAddr, &fault, &env, timing, warm, ladder, channel},
      Bank{kAddr, &fault, &env, timing, cold, ladder, channel}};
  Cycle now = 1000;
  /// sense_cells_visited of bank 0 added by each checked read.
  std::vector<std::uint64_t> visited_per_read;

  void write_row(int row, const RowBits& bits) {
    for (auto& bank : banks) {
      bank.activate(row, now);
      std::array<std::uint64_t, kWordsPerColumn> column;
      for (int c = 0; c < kColumns; ++c) {
        bits.get_column(c, column);
        bank.write_column(c, column, now + timing.t_rcd + 1);
      }
      bank.precharge(now + timing.t_ras + 100);
    }
    now += timing.t_ras + 100 + timing.t_rp + 100;
  }

  /// What the per-cell oracle says a sense of `row` at `now` leaves behind,
  /// computed from bank `k`'s stored state.
  RowBits oracle_sense(std::size_t k, int row) const {
    const auto stored = banks[k].stored_row(row);
    const disturb::DoseLedger* ledger = banks[k].ledger(row);
    EXPECT_TRUE(stored.has_value() && ledger != nullptr) << "row " << row;
    if (!stored || ledger == nullptr) return {};
    return oracle::per_cell_sense(
        fault, kAddr, row, stored->bits, *ledger,
        cycles_to_seconds(now - stored->last_restore), env.temperature_c);
  }

  /// Reads both banks and asserts each equals the oracle's sense of its
  /// own pre-read state; returns the (common) row bits.
  RowBits read_row_checked(int row) {
    std::array<RowBits, 2> expected;
    for (std::size_t k = 0; k < banks.size(); ++k) {
      expected[k] = oracle_sense(k, row);
    }
    std::array<RowBits, 2> all;
    const std::uint64_t visited_before =
        banks[0].counters().sense_cells_visited;
    for (std::size_t k = 0; k < banks.size(); ++k) {
      banks[k].activate(row, now);
      std::array<std::uint64_t, kWordsPerColumn> column;
      for (int c = 0; c < kColumns; ++c) {
        banks[k].read_column(c, column, now + timing.t_rcd + 1);
        all[k].set_column(c, column);
      }
      banks[k].precharge(now + timing.t_ras + 100);
    }
    now += timing.t_ras + 100 + timing.t_rp + 100;
    visited_per_read.push_back(banks[0].counters().sense_cells_visited -
                               visited_before);
    for (std::size_t k = 0; k < banks.size(); ++k) {
      EXPECT_TRUE(all[k] == expected[k])
          << "row " << row << " differs from the oracle in bank " << k
          << " (" << all[k].count_diff(expected[k]) << " bits)";
    }
    return all[0];
  }

  void hammer(std::span<const HammerStep> steps, std::uint64_t count) {
    Cycle end = 0;
    for (auto& bank : banks) end = bank.bulk_hammer(steps, count, now);
    now = end + 100;
  }

  void idle_seconds(double s) { now += seconds_to_cycles(s); }
};

TEST(BitplaneDifferential, RandomizedSensesAreByteIdentical) {
  util::Stream rng(0xD1FFull);
  BankPair q;
  const std::array<std::uint8_t, 6> patterns = {0x00, 0xFF, 0x55,
                                                0xAA, 0x33, 0x6D};
  int null_snapshot_reads = 0;
  for (int trial = 0; trial < 24; ++trial) {
    // Mid-subarray victims, spread across two subarrays.
    const int victim =
        4100 + static_cast<int>(rng.next_u64() % 400) / 8 * 8 + 4;
    const auto victim_pattern =
        patterns[rng.next_u64() % patterns.size()];
    q.env.temperature_c = 40.0 + 55.0 * rng.next_unit();
    // Every fourth trial starts from power-on and never writes victim + 1:
    // that aggressor's epochs carry null (power-on) snapshots.
    const bool fresh_aggressor = trial % 4 == 3;
    if (fresh_aggressor) {
      for (auto& bank : q.banks) bank.drop_row_states();
    }
    q.write_row(victim, RowBits::filled(victim_pattern));
    q.write_row(victim - 1,
                RowBits::filled(patterns[rng.next_u64() % patterns.size()]));
    const auto right_pattern = patterns[rng.next_u64() % patterns.size()];
    if (!fresh_aggressor) {
      q.write_row(victim + 1, RowBits::filled(right_pattern));
    }
    if (trial % 3 == 0) {
      q.write_row(victim - 2,
                  RowBits::filled(patterns[rng.next_u64() % patterns.size()]));
      q.write_row(victim + 2,
                  RowBits::filled(patterns[rng.next_u64() % patterns.size()]));
    }

    std::vector<HammerStep> steps = {{victim - 1, q.timing.t_ras},
                                     {victim + 1, q.timing.t_ras}};
    if (trial % 4 == 1) {
      // RowPress-style long on-times.
      steps[0].on_cycles = q.timing.t_ras * 32;
      steps[1].on_cycles = q.timing.t_ras * 32;
    }
    if (trial % 5 == 2) {
      steps.push_back({victim - 2, q.timing.t_ras});
      steps.push_back({victim + 2, q.timing.t_ras});
    }
    const std::uint64_t count = 2000 + rng.next_u64() % 200000;
    q.hammer(steps, count);

    if (trial % 6 == 3) {
      // Park the row long enough that retention decay joins the sense.
      q.idle_seconds(0.02 + 30.0 * rng.next_unit());
    }
    const auto& epochs = q.banks[0].ledger(victim)->epochs();
    if (std::any_of(epochs.begin(), epochs.end(), [](const auto& e) {
          return e.aggressor_bits == nullptr;
        })) {
      ++null_snapshot_reads;
    }
    (void)q.read_row_checked(victim);
    if (trial % 3 == 0) {
      (void)q.read_row_checked(victim - 2);
      (void)q.read_row_checked(victim + 2);
    }
  }
  // Both regimes the sense once served with separate scans: short
  // candidate masks (HC_first-like heads) and long ones (BER-like sweeps).
  EXPECT_TRUE(std::any_of(q.visited_per_read.begin(),
                          q.visited_per_read.end(),
                          [](std::uint64_t n) { return n > 0 && n <= 512; }));
  EXPECT_TRUE(std::any_of(q.visited_per_read.begin(),
                          q.visited_per_read.end(),
                          [](std::uint64_t n) { return n > 512; }));
  EXPECT_GT(null_snapshot_reads, 0);
  EXPECT_GT(q.banks[0].counters().bitflips_materialized, 0u);
  EXPECT_EQ(q.banks[0].counters().bitflips_materialized,
            q.banks[1].counters().bitflips_materialized);
  EXPECT_EQ(q.banks[0].counters().sense_cells_visited,
            q.banks[1].counters().sense_cells_visited);
}

TEST(BitplaneDifferential, LongLedgerMatchesOracle) {
  // RowPress-style traffic: every window rewrites the aggressors (a new
  // content version) and hammers at a new on-time (a new unit dose), so
  // neither the write nor the hammer merges into an earlier epoch and the
  // victim's ledger reaches 40 epochs before it is sensed.
  util::Stream rng(0x10E6ull);
  BankPair q;
  const int victim = 4300;
  q.write_row(victim, random_row(rng));
  for (int window = 0; window < 10; ++window) {
    q.write_row(victim - 1, random_row(rng));
    q.write_row(victim + 1, random_row(rng));
    const Cycle on = q.timing.t_ras * static_cast<Cycle>(2 + window);
    const std::array<HammerStep, 2> steps = {HammerStep{victim - 1, on},
                                             HammerStep{victim + 1, on}};
    q.hammer(steps, 60000);
  }
  std::array<BankCounters, 2> before;
  std::size_t epochs = 0;
  for (std::size_t k = 0; k < q.banks.size(); ++k) {
    ASSERT_NE(q.banks[k].ledger(victim), nullptr);
    epochs = q.banks[k].ledger(victim)->epochs().size();
    EXPECT_GE(epochs, 31u) << "bank " << k;
    before[k] = q.banks[k].counters();
  }
  (void)q.read_row_checked(victim);
  for (std::size_t k = 0; k < q.banks.size(); ++k) {
    const auto& after = q.banks[k].counters();
    EXPECT_GT(after.bitflips_materialized, before[k].bitflips_materialized);
    // The dose is high enough that every word holds a disturbance
    // candidate: both banks split every word on every epoch.
    EXPECT_GT(after.sense_word_ops - before[k].sense_word_ops,
              epochs * RowBits::kWords)
        << "bank " << k;
  }
  EXPECT_EQ(q.banks[0].counters().bitflips_materialized,
            q.banks[1].counters().bitflips_materialized);
}

TEST(BitplaneDifferential, CheckpointRestoreKeepsVariantsInLockstep) {
  util::Stream rng(0xC4EC4ull);
  BankPair q;
  const int victim = 4300;
  q.write_row(victim, RowBits::filled(0x55));
  q.write_row(victim - 1, RowBits::filled(0xAA));
  q.write_row(victim + 1, RowBits::filled(0xAA));
  ASSERT_EQ(q.ladder.push(), 0u);
  const std::array<HammerStep, 2> steps = {
      HammerStep{victim - 1, q.timing.t_ras},
      HammerStep{victim + 1, q.timing.t_ras}};
  for (int round = 0; round < 6; ++round) {
    const std::uint64_t count = 20000 + rng.next_u64() % 150000;
    q.hammer(steps, count);
    (void)q.read_row_checked(victim);
    q.ladder.restore(0);
    // Restored state must also sense identically.
    q.write_row(victim - 1, RowBits::filled(0xAA));
    q.write_row(victim + 1, RowBits::filled(0xAA));
  }
  q.ladder.discard();
}

// ---------------------------------------------------------------------------
// Campaign artifacts: CSV + journal byte-identity across --jobs.

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

std::vector<runner::CampaignRunner::Trial> campaign_trials(int n) {
  std::vector<runner::CampaignRunner::Trial> trials;
  for (int t = 0; t < n; ++t) {
    const int row = 96 + 8 * t;
    const auto pattern = static_cast<std::uint8_t>(0x50 + t);
    trials.push_back(
        {"row" + std::to_string(row),
         [row, pattern](bender::ChipSession& session)
             -> std::vector<std::string> {
           const RowAddress victim{{0, 0, 0}, row};
           session.write_row(victim, RowBits::filled(pattern));
           session.write_row({{0, 0, 0}, row - 1}, RowBits::filled(0xFF));
           session.write_row({{0, 0, 0}, row + 1}, RowBits::filled(0xFF));
           const std::array<int, 2> aggressors = {row - 1, row + 1};
           session.hammer({0, 0, 0}, aggressors, 60000);
           const auto bits = session.read_row(victim);
           return {std::to_string(
               bits.count_diff(RowBits::filled(pattern)))};
         }});
  }
  return trials;
}

struct CampaignArtifacts {
  std::string csv;
  std::string journal;
};

CampaignArtifacts run_campaign(int jobs, const std::string& tag) {
  bender::HbmChip chip(chip_profiles()[2]);
  runner::RunnerConfig config;
  config.result_columns = {"flips"};
  config.results_path = scratch_path(tag + ".csv");
  config.journal_path = scratch_path(tag + ".jsonl");
  config.jobs = jobs;
  runner::CampaignRunner campaign(chip, config);
  (void)campaign.run(campaign_trials(6));
  return {slurp(config.results_path), slurp(config.journal_path)};
}

TEST(BitplaneCampaign, ArtifactsAreByteIdenticalAcrossJobs) {
  const auto j1 = run_campaign(1, "j1");
  ASSERT_FALSE(j1.csv.empty());
  const auto j4 = run_campaign(4, "j4");
  EXPECT_EQ(j1.csv, j4.csv);
  EXPECT_EQ(j1.journal, j4.journal);
}

}  // namespace
}  // namespace hbmrd::dram
