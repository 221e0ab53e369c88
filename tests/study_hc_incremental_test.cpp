// Checkpointed incremental-dose HC search (study/ber_probe.h).
//
// Contract under test: the incremental engine is an invisible perf
// optimization. HC values, per-probe flip sets, campaign CSV checkpoints
// and JSONL journals are byte-identical to the from-scratch oracle (the
// test-local ScratchProbe below, driven through the same find_nth_flip) —
// across chips (including chip 0's undocumented TRR), data patterns,
// aggressor on-times, fault plans, --jobs counts, and kill + resume —
// while executing several times fewer simulated activations
// (study.hammers_saved / study.hammers_replayed).
#include "study/ber_probe.h"

#include <gtest/gtest.h>

#include <array>
#include <fstream>
#include <iterator>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "bender/platform.h"
#include "runner/runner.h"
#include "scratch.h"
#include "study/bypass.h"
#include "study/hc_first.h"
#include "study/hcn.h"
#include "trr/undocumented_trr.h"

namespace hbmrd::study {
namespace {

constexpr dram::BankAddress kBank{0, 0, 0};

/// The from-scratch oracle: every probe re-initializes the rows and replays
/// the whole hammer in one program (measure_row_ber), with no checkpoint.
/// Memoized like BerProbe, and it counts each probe on the session as the
/// engine does, with every activation replayed and none saved.
class ScratchProbe {
 public:
  ScratchProbe(bender::ChipSession& chip, const AddressMap& map,
               const dram::RowAddress& victim, const BerConfig& config)
      : chip_(chip),
        map_(map),
        victim_(victim),
        config_(config),
        steps_(map.aggressors_of(victim.row).size()) {}

  const RowBerResult& measure(std::uint64_t count) {
    if (const auto it = memo_.find(count); it != memo_.end()) {
      return it->second;
    }
    auto& counters = chip_.probe_counters();
    ++counters.hc_probes;
    BerConfig config = config_;
    config.hammer_count = count;
    auto result = measure_row_ber(chip_, map_, victim_, config);
    counters.hammers_replayed += count * steps_;
    return memo_.emplace(count, std::move(result)).first->second;
  }

  int bitflips_at(std::uint64_t count) { return measure(count).bitflips; }

 private:
  bender::ChipSession& chip_;
  const AddressMap& map_;
  dram::RowAddress victim_;
  BerConfig config_;
  std::uint64_t steps_;
  std::map<std::uint64_t, RowBerResult> memo_;
};

/// find_hc_nth on the oracle.
std::optional<std::uint64_t> scratch_hc_nth(bender::ChipSession& chip,
                                            const AddressMap& map,
                                            const dram::RowAddress& victim,
                                            int n,
                                            const HcSearchConfig& config) {
  ScratchProbe probe(chip, map, victim, ber_config_of(config));
  return find_nth_flip(probe, n, 1, config.max_hammer_count);
}

/// measure_hcn on the oracle: one memoized probe for all ten searches.
HcnResult scratch_hcn(bender::ChipSession& chip, const AddressMap& map,
                      const dram::RowAddress& victim,
                      const HcSearchConfig& config) {
  HcnResult result;
  result.victim = victim;
  ScratchProbe probe(chip, map, victim, ber_config_of(config));
  std::uint64_t lower = 1;
  for (int n = 1; n <= kHcnFlips; ++n) {
    const auto hc = find_nth_flip(probe, n, lower, config.max_hammer_count);
    if (!hc) break;
    result.hc[static_cast<std::size_t>(n - 1)] = *hc;
    lower = *hc;
  }
  return result;
}

/// Runs one HC_nth search against a fresh platform chip, returning the
/// result plus the session's probe counters (fresh chip per call so the
/// engine and the oracle start from the identical canonical state).
struct SearchRun {
  std::optional<std::uint64_t> hc;
  bender::ProbeCounters probes;
};

SearchRun run_search(int chip_index, const dram::RowAddress& victim, int n,
                     const HcSearchConfig& config, bool scratch) {
  bender::Platform platform;
  auto& chip = platform.chip(chip_index);
  const auto map = AddressMap::from_scheme(chip.profile().mapping);
  SearchRun run;
  run.hc = scratch ? scratch_hc_nth(chip, map, victim, n, config)
                   : find_hc_nth(chip, map, victim, n, config);
  run.probes = chip.probe_counters();
  return run;
}

TEST(HcIncremental, MatchesScratchAcrossRowsAndPatterns) {
  for (const int row : {4300, 64, 8000}) {
    for (const auto pattern : {DataPattern::kCheckered0,
                               DataPattern::kRowstripe0}) {
      HcSearchConfig config;
      config.pattern = pattern;
      const dram::RowAddress victim{kBank, row};
      const auto a = run_search(2, victim, 1, config, /*scratch=*/true);
      const auto b = run_search(2, victim, 1, config, /*scratch=*/false);
      ASSERT_TRUE(a.hc.has_value()) << "row " << row;
      EXPECT_EQ(*a.hc, *b.hc) << "row " << row;
      EXPECT_EQ(a.probes.hammers_saved, 0u);
      EXPECT_GT(b.probes.hammers_saved, 0u);
    }
  }
}

TEST(HcIncremental, MatchesScratchOnTrrChipAndHigherN) {
  // Chip 0 carries the undocumented in-DRAM TRR; its sampler state rides
  // along in the checkpoints (ReadDisturbDefense::clone()).
  const dram::RowAddress victim{kBank, 4300};
  for (const int n : {1, 3}) {
    const auto a = run_search(0, victim, n, {}, /*scratch=*/true);
    const auto b = run_search(0, victim, n, {}, /*scratch=*/false);
    ASSERT_EQ(a.hc.has_value(), b.hc.has_value()) << "n " << n;
    if (a.hc) {
      EXPECT_EQ(*a.hc, *b.hc) << "n " << n;
    }
  }
}

TEST(HcIncremental, MatchesScratchAtLongAggressorOnTime) {
  // RowPress-shaped search (fig13): longer tAggON, tighter search bound.
  HcSearchConfig config;
  config.on_cycles = 200;
  config.max_hammer_count = 1u << 18;
  const dram::RowAddress victim{kBank, 4300};
  const auto a = run_search(2, victim, 1, config, /*scratch=*/true);
  const auto b = run_search(2, victim, 1, config, /*scratch=*/false);
  ASSERT_TRUE(a.hc.has_value());
  EXPECT_EQ(*a.hc, *b.hc);
}

TEST(HcIncremental, RespectsSearchBoundLikeScratch) {
  HcSearchConfig config;
  config.max_hammer_count = 2000;  // far below any real HC_first here
  const auto run = run_search(2, {kBank, 4300}, 1, config, /*scratch=*/false);
  EXPECT_FALSE(run.hc.has_value());
}

TEST(HcIncremental, HcnSequenceMatchesScratch) {
  const dram::RowAddress victim{kBank, 4300};
  HcnResult results[2];
  for (const bool incremental : {false, true}) {
    bender::Platform platform;
    auto& chip = platform.chip(2);
    const auto map = AddressMap::from_scheme(chip.profile().mapping);
    results[incremental] =
        incremental ? measure_hcn(chip, map, victim, HcSearchConfig{})
                    : scratch_hcn(chip, map, victim, HcSearchConfig{});
  }
  for (int k = 0; k < kHcnFlips; ++k) {
    ASSERT_EQ(results[0].hc[k].has_value(), results[1].hc[k].has_value())
        << "k " << k;
    if (results[0].hc[k]) {
      EXPECT_EQ(*results[0].hc[k], *results[1].hc[k]);
    }
  }
}

TEST(HcIncremental, ProbeFlipSetsMatchScratchProbeForProbe) {
  // The full per-probe BER results — not just the search endpoints — must
  // match, including a bisection-shaped descent and a memoized re-probe.
  const dram::RowAddress victim{kBank, 4300};
  const std::vector<std::uint64_t> counts = {1,     1024,  4096, 16384,
                                             65536, 49152, 16384};
  std::vector<RowBerResult> results[2];
  for (const bool incremental : {false, true}) {
    bender::Platform platform;
    auto& chip = platform.chip(2);
    const auto map = AddressMap::from_scheme(chip.profile().mapping);
    const auto measure_all = [&](auto& probe) {
      for (const auto count : counts) {
        results[incremental].push_back(probe.measure(count));
      }
      // The engine climbs a checkpoint ladder; the oracle never pushes one.
      EXPECT_EQ(chip.stack().checkpoint_depth() > 0, incremental);
    };
    if (incremental) {
      BerProbe probe(chip, map, victim, BerConfig{});
      measure_all(probe);
    } else {
      ScratchProbe probe(chip, map, victim, BerConfig{});
      measure_all(probe);
    }
  }
  for (std::size_t i = 0; i < counts.size(); ++i) {
    EXPECT_EQ(results[0][i].bitflips, results[1][i].bitflips)
        << "count " << counts[i];
    EXPECT_EQ(results[0][i].flipped_bits, results[1][i].flipped_bits)
        << "count " << counts[i];
  }
}

TEST(HcIncremental, MemoNeverProbesTheSameCountTwice) {
  bender::Platform platform;
  auto& chip = platform.chip(2);
  const auto map = AddressMap::from_scheme(chip.profile().mapping);
  BerProbe probe(chip, map, {kBank, 4300}, BerConfig{});
  probe.measure(4096);
  const auto probes_before = chip.probe_counters().hc_probes;
  const auto replayed_before = chip.probe_counters().hammers_replayed;
  probe.measure(4096);
  EXPECT_EQ(chip.probe_counters().hc_probes, probes_before);
  EXPECT_EQ(chip.probe_counters().hammers_replayed, replayed_before);
}

TEST(HcIncremental, SavesAtLeastFiveXActivationsOnHcFirst) {
  const dram::RowAddress victim{kBank, 4300};
  const auto scratch = run_search(2, victim, 1, {}, /*scratch=*/true);
  const auto incremental = run_search(2, victim, 1, {}, /*scratch=*/false);
  ASSERT_TRUE(scratch.hc.has_value());
  EXPECT_EQ(scratch.probes.hc_probes, incremental.probes.hc_probes);
  EXPECT_EQ(scratch.probes.hammers_replayed,
            incremental.probes.hammers_replayed +
                incremental.probes.hammers_saved);
  EXPECT_GE(scratch.probes.hammers_replayed,
            5 * incremental.probes.hammers_replayed);
}

// ---------------------------------------------------------------------------
// Device checkpoint layer (ChipSession::checkpoint()/restore()).

TEST(DoseCheckpoint, RestoreRewindsRowsTouchedSincePush) {
  bender::Platform platform;
  auto& chip = platform.chip(2);

  const dram::RowAddress victim{kBank, 4300};
  const auto pattern = dram::RowBits::filled(0x55);
  chip.write_row(victim, pattern);
  chip.write_row({kBank, 4299}, dram::RowBits::filled(0xAA));
  chip.write_row({kBank, 4301}, dram::RowBits::filled(0xAA));

  const auto id = chip.checkpoint();
  const std::array<int, 2> aggressors = {4299, 4301};
  chip.hammer(kBank, aggressors, 400000);
  const auto hammered = chip.read_row(victim);
  EXPECT_GT(hammered.count_diff(pattern), 0);

  chip.restore(id);
  // The accumulated dose is gone: reading the victim right after the
  // restore senses the pre-hammer state.
  EXPECT_EQ(chip.read_row(victim), pattern);
}

TEST(DoseCheckpoint, CapturesOnlyTouchedRows) {
  // The COW layer must collect pre-images for the handful of rows a probe
  // touches, not snapshot the 16384-row bank: rows the post-push program
  // never references keep their state object untouched across restore.
  bender::Platform platform;
  auto& chip = platform.chip(2);
  const auto& bank = chip.stack().bank(kBank);

  chip.write_row({kBank, 100}, dram::RowBits::filled(0x11));
  chip.write_row({kBank, 9000}, dram::RowBits::filled(0x22));
  const auto touched_before = bank.touched_rows();

  const auto id = chip.checkpoint();
  chip.write_row({kBank, 200}, dram::RowBits::filled(0x33));
  chip.restore(id);

  // Row 200's state object was created after the push and is erased by the
  // restore; rows 100/9000 were never touched again and survive.
  EXPECT_EQ(bank.touched_rows(), touched_before);
  EXPECT_EQ(chip.read_row({kBank, 100}), dram::RowBits::filled(0x11));
  EXPECT_EQ(chip.read_row({kBank, 9000}), dram::RowBits::filled(0x22));
}

TEST(DoseCheckpoint, NestedLadderSupportsRestoreToAnyRung) {
  // Control: hammer straight through to 60k. Ladder: climb 20k -> 60k with
  // rungs, restore to the middle rung, re-climb the same delta — the
  // victim read must equal the control's.
  const dram::RowAddress victim{kBank, 4300};
  const auto pattern = dram::RowBits::filled(0x55);
  const std::array<int, 2> aggressors = {4299, 4301};

  const auto init = [&](bender::HbmChip& chip) {
    chip.write_row(victim, pattern);
    chip.write_row({kBank, 4299}, dram::RowBits::filled(0xAA));
    chip.write_row({kBank, 4301}, dram::RowBits::filled(0xAA));
  };

  bender::Platform control_platform;
  auto& control = control_platform.chip(2);
  init(control);
  control.hammer(kBank, aggressors, 600000);
  const auto expected = control.read_row(victim);

  bender::Platform ladder_platform;
  auto& chip = ladder_platform.chip(2);
  init(chip);
  const auto k0 = chip.checkpoint();
  chip.hammer(kBank, aggressors, 200000);
  const auto k1 = chip.checkpoint();
  chip.hammer(kBank, aggressors, 400000);
  chip.checkpoint();

  chip.restore(k1);  // discards the top rung, keeps k0 and k1
  chip.hammer(kBank, aggressors, 400000);
  EXPECT_EQ(chip.read_row(victim), expected);

  chip.restore(k0);  // rungs stay restorable repeatedly
  chip.hammer(kBank, aggressors, 200000);
  chip.hammer(kBank, aggressors, 400000);
  EXPECT_EQ(chip.read_row(victim), expected);
  chip.discard_checkpoints();
}

TEST(DoseCheckpoint, RestoringARungTwiceReplaysTrrIdentically) {
  // Chip 0's TRR sees every ACT and REF of a Fig. 14 bypass attack. The
  // first restore moves the rung's defense clone back into the bank; the
  // next mutation clones it again, so a second restore of the same rung
  // must replay the same TRR decisions and the same flips.
  const dram::RowAddress victim{kBank, 4301};
  BypassConfig config;
  config.dummy_rows = 4;
  config.aggressor_acts = 34;
  config.windows = 2000;
  struct Replay {
    int bitflips = 0;
    std::uint64_t victim_refreshes = 0;
    // The victim bank's TRR tracker after the attack, and the REF ordinal
    // of its channel that sets the tracker's phase.
    std::uint64_t refs_seen = 0;
    std::vector<int> sampler;
    std::vector<int> pending;
  };
  const auto attack = [&](bender::HbmChip& chip) {
    const auto map = AddressMap::from_scheme(chip.profile().mapping);
    const auto before =
        chip.stack().total_counters().defense_victim_refreshes;
    Replay replay;
    replay.bitflips = run_bypass_attack(chip, map, victim, config).bitflips;
    replay.victim_refreshes =
        chip.stack().total_counters().defense_victim_refreshes - before;
    const auto* trr = dynamic_cast<const trr::UndocumentedTrr*>(
        chip.stack().bank(kBank).defense());
    EXPECT_NE(trr, nullptr);
    replay.refs_seen = chip.stack().refresh_clock(kBank.channel).refs;
    if (trr != nullptr) {
      replay.sampler = trr->sampler();
      replay.pending = trr->pending();
    }
    return replay;
  };

  bender::Platform control_platform;
  const Replay expected = attack(control_platform.chip(0));
  EXPECT_GT(expected.bitflips, 0);
  EXPECT_GT(expected.victim_refreshes, 0u);

  bender::Platform platform;
  auto& chip = platform.chip(0);
  const auto id = chip.checkpoint();
  for (int replay = 0; replay < 3; ++replay) {
    if (replay > 0) chip.restore(id);
    const Replay got = attack(chip);
    EXPECT_EQ(got.bitflips, expected.bitflips) << "replay " << replay;
    EXPECT_EQ(got.victim_refreshes, expected.victim_refreshes)
        << "replay " << replay;
    EXPECT_EQ(got.refs_seen, expected.refs_seen) << "replay " << replay;
    EXPECT_EQ(got.sampler, expected.sampler) << "replay " << replay;
    EXPECT_EQ(got.pending, expected.pending) << "replay " << replay;
  }
  chip.discard_checkpoints();
}

TEST(DoseCheckpoint, RestoreAfterPowerCycleIsRejected) {
  bender::Platform platform;
  auto& chip = platform.chip(2);
  const auto id = chip.checkpoint();
  chip.power_cycle();
  EXPECT_THROW(chip.restore(id), std::out_of_range);
}

TEST(DoseCheckpoint, RestoreOfDiscardedCheckpointIsRejected) {
  bender::Platform platform;
  auto& chip = platform.chip(2);
  const auto id = chip.checkpoint();
  chip.discard_checkpoints();
  EXPECT_THROW(chip.restore(id), std::out_of_range);
}

// ---------------------------------------------------------------------------
// Campaign byte-identity (fig07-shaped sweep through the resilient runner).

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

std::vector<runner::CampaignRunner::Trial> hc_trials(bool incremental) {
  std::vector<runner::CampaignRunner::Trial> trials;
  for (const int row : {4300, 64, 4308, 8000}) {
    trials.push_back(
        {"row" + std::to_string(row),
         [row, incremental](bender::ChipSession& session)
             -> std::vector<std::string> {
           const auto map =
               AddressMap::from_scheme(session.profile().mapping);
           const dram::RowAddress victim{kBank, row};
           const auto hc =
               incremental ? find_hc_first(session, map, victim, {})
                           : scratch_hc_nth(session, map, victim, 1, {});
           return {hc ? std::to_string(*hc) : ""};
         }});
  }
  return trials;
}

struct CampaignOutput {
  runner::CampaignReport report;
  std::string csv;
  std::string journal;
};

CampaignOutput run_hc_campaign(bool incremental, int jobs,
                               const std::string& tag, double fault_rate,
                               std::uint64_t stop_after = 0,
                               bool resume = false) {
  bender::HbmChip chip(dram::chip_profiles()[2]);
  runner::RunnerConfig config;
  config.result_columns = {"hc_first"};
  config.faults.transient_rate = fault_rate;
  config.results_path = scratch_path(tag + ".csv");
  config.journal_path = scratch_path(tag + ".jsonl");
  config.stop_after_trials = stop_after;
  config.resume = resume;
  config.jobs = jobs;
  runner::CampaignRunner campaign(chip, config);
  CampaignOutput out;
  out.report = campaign.run(hc_trials(incremental));
  out.csv = slurp(config.results_path);
  out.journal = slurp(config.journal_path);
  return out;
}

TEST(HcIncrementalCampaign, ByteIdenticalToScratchAcrossJobsAndFaults) {
  for (const double fault_rate : {0.0, 0.3}) {
    const auto tag = fault_rate > 0 ? std::string("f") : std::string("f0");
    const auto golden = run_hc_campaign(false, 1, tag + "_scratch",
                                        fault_rate);
    ASSERT_FALSE(golden.csv.empty());
    for (const int jobs : {1, 4}) {
      const auto fast = run_hc_campaign(
          true, jobs, tag + "_inc_j" + std::to_string(jobs), fault_rate);
      EXPECT_EQ(golden.csv, fast.csv)
          << "jobs " << jobs << " fault_rate " << fault_rate;
      EXPECT_EQ(golden.journal, fast.journal)
          << "jobs " << jobs << " fault_rate " << fault_rate;
      EXPECT_EQ(golden.report.campaign_seconds,
                fast.report.campaign_seconds);
      // Artifacts match while the device executed far fewer activations:
      // that asymmetry is the whole point (device counters are honest
      // telemetry of executed work, not part of the artifact contract).
      EXPECT_GE(golden.report.device_counters.activations,
                5 * fast.report.device_counters.activations);
    }
  }
}

TEST(HcIncrementalCampaign, KillAndResumeMatchesScratchGolden) {
  const auto golden = run_hc_campaign(false, 1, "kr_scratch", 0.3);
  // Kill the incremental run after 2 of 4 trials under jobs=4, then resume
  // on a fresh host; the stitched CSV must equal the uninterrupted scratch
  // run's.
  const auto part =
      run_hc_campaign(true, 4, "kr_inc", 0.3, /*stop_after=*/2);
  EXPECT_TRUE(part.report.aborted);
  const auto resumed = run_hc_campaign(true, 4, "kr_inc", 0.3,
                                       /*stop_after=*/0, /*resume=*/true);
  EXPECT_FALSE(resumed.report.aborted);
  EXPECT_EQ(resumed.report.resumed, 2u);
  EXPECT_EQ(golden.csv, resumed.csv);
}

}  // namespace
}  // namespace hbmrd::study
