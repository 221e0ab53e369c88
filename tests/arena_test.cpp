// The attack/defense arena: deterministic scenario assembly, leaderboard
// serialization, byte-identity of the campaign artifacts across --jobs N,
// and the seeded fuzzer's ability to find a real defense bypass.
#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "arena/engine.h"
#include "arena/fuzzer.h"
#include "arena/leaderboard.h"
#include "bender/platform.h"
#include "obs/metrics.h"
#include "runner/runner.h"
#include "scratch.h"

namespace hbmrd::arena {
namespace {

const auto kMap = study::AddressMap::from_scheme(dram::MappingScheme::kIdentity);

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

bool same_activation(const defense::Activation& a,
                     const defense::Activation& b) {
  return a.bank.channel == b.bank.channel &&
         a.bank.pseudo_channel == b.bank.pseudo_channel &&
         a.bank.bank == b.bank.bank && a.row == b.row &&
         a.on_cycles == b.on_cycles;
}

TEST(Fuzzer, PatternsAreDeterministicPerSeed) {
  PatternConfig base;
  base.windows = 8;
  base.seed = 0xF022;
  const PatternFuzzer fuzzer(kMap, dram::TimingParams{}, base);
  const auto a = fuzzer.pattern(6);
  const auto b = fuzzer.pattern(6);
  ASSERT_EQ(a.tones.size(), b.tones.size());
  for (std::size_t t = 0; t < a.tones.size(); ++t) {
    EXPECT_EQ(a.tones[t].rows, b.tones[t].rows);
    EXPECT_EQ(a.tones[t].frequency, b.tones[t].frequency);
    EXPECT_EQ(a.tones[t].phase, b.tones[t].phase);
    EXPECT_EQ(a.tones[t].amplitude, b.tones[t].amplitude);
    EXPECT_EQ(a.tones[t].on_cycles, b.tones[t].on_cycles);
  }
  const auto ma = fuzzer.materialize(a);
  const auto mb = fuzzer.materialize(b);
  EXPECT_EQ(ma.name, "fuzz#6");
  ASSERT_EQ(ma.stream.size(), mb.stream.size());
  ASSERT_FALSE(ma.stream.empty());
  for (std::size_t i = 0; i < ma.stream.size(); ++i) {
    ASSERT_TRUE(same_activation(ma.stream[i], mb.stream[i])) << i;
  }
  // Distinct indices enumerate distinct patterns.
  const auto other = fuzzer.materialize(fuzzer.pattern(7));
  bool differs = ma.stream.size() != other.stream.size();
  for (std::size_t i = 0; !differs && i < ma.stream.size(); ++i) {
    differs = !same_activation(ma.stream[i], other.stream[i]);
  }
  EXPECT_TRUE(differs);
}

TEST(Scenario, InterleaveIsDeterministicAndPreservesSourceOrder) {
  PatternConfig base;
  base.windows = 16;
  const auto attack = double_sided(kMap, dram::TimingParams{}, base);
  ScenarioConfig config;
  config.tenants = default_tenants(5'000, 0xF022);
  const auto a = build_scenario(config, attack);
  const auto b = build_scenario(config, attack);
  ASSERT_EQ(a.stream.size(), b.stream.size());
  EXPECT_EQ(a.stream.size(),
            a.benign_activations + a.attack_activations);
  for (std::size_t i = 0; i < a.stream.size(); ++i) {
    ASSERT_TRUE(same_activation(a.stream[i], b.stream[i])) << i;
  }
  // The streaming tenant lives alone on bank 6: filtering the merged
  // stream by its bank must reproduce its private stream in order.
  const auto solo = tenant_stream(config.tenants[2]);
  std::vector<defense::Activation> filtered;
  for (const auto& activation : a.stream) {
    if (activation.bank.bank == 6) filtered.push_back(activation);
  }
  ASSERT_EQ(filtered.size(), solo.size());
  for (std::size_t i = 0; i < solo.size(); ++i) {
    ASSERT_TRUE(same_activation(filtered[i], solo[i])) << i;
  }
  // A different interleave seed reschedules the merge but keeps the
  // multiset of activations (same sources, different bus contention).
  config.interleave_seed = 99;
  const auto c = build_scenario(config, attack);
  ASSERT_EQ(c.stream.size(), a.stream.size());
  bool any_difference = false;
  for (std::size_t i = 0; i < a.stream.size(); ++i) {
    if (!same_activation(a.stream[i], c.stream[i])) {
      any_difference = true;
      break;
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST(Leaderboard, CellsRoundTrip) {
  ArenaScore score;
  score.defense = "Graphene";
  score.pattern = "row_press";
  score.flips_leaked = 13;
  score.flips_undefended = 45;
  score.slowdown = 1.0625;
  score.refresh_per_kilo_act = 2.125;
  score.preventive_refreshes = 321;
  score.stalled_acts = 7;
  score.periodic_refs = 8205;
  score.window_boundaries = 2;
  const auto cells = to_cells(score);
  ASSERT_EQ(cells.size(), leaderboard_columns().size());
  const auto parsed = score_from_cells(cells);
  EXPECT_EQ(parsed.defense, score.defense);
  EXPECT_EQ(parsed.pattern, score.pattern);
  EXPECT_EQ(parsed.flips_leaked, score.flips_leaked);
  EXPECT_EQ(parsed.flips_undefended, score.flips_undefended);
  EXPECT_NEAR(parsed.slowdown, score.slowdown, 1e-4);
  EXPECT_NEAR(parsed.refresh_per_kilo_act, score.refresh_per_kilo_act, 1e-3);
  EXPECT_EQ(parsed.preventive_refreshes, score.preventive_refreshes);
  EXPECT_EQ(parsed.stalled_acts, score.stalled_acts);
  EXPECT_EQ(parsed.periodic_refs, score.periodic_refs);
  EXPECT_EQ(parsed.window_boundaries, score.window_boundaries);
  EXPECT_THROW(score_from_cells({"too", "short"}), std::invalid_argument);
}

TEST(Leaderboard, FoldSkipsQuarantinedRecords) {
  ArenaScore score;
  score.defense = "PARA";
  score.pattern = "single_sided";
  score.flips_leaked = 3;
  score.flips_undefended = 20;
  score.stalled_acts = 5;
  runner::TrialRecord ok;
  ok.key = "single_sided|PARA";
  ok.status = runner::TrialStatus::kOk;
  ok.cells = to_cells(score);
  runner::TrialRecord quarantined;
  quarantined.key = "single_sided|Graphene";
  quarantined.status = runner::TrialStatus::kQuarantined;
  obs::MetricsRegistry metrics;
  fold_metrics(metrics, {ok, quarantined});
  EXPECT_EQ(metrics.counter("arena.matches"), 1u);
  EXPECT_EQ(metrics.counter("arena.flips_leaked"), 3u);
  EXPECT_EQ(metrics.counter("arena.flips_undefended"), 20u);
  EXPECT_EQ(metrics.counter("arena.bypasses"), 1u);
  EXPECT_EQ(metrics.counter("arena.stalled_acts"), 5u);
}

/// A small but real arena campaign (matches on the simulator) whose
/// checkpoint must be byte-identical for any worker count — the
/// leaderboard inherits the runner's determinism contract.
TEST(Arena, LeaderboardIsByteIdenticalAcrossJobs) {
  PatternConfig base;
  base.windows = 24;
  base.seed = 0xF022;
  const dram::TimingParams timing = dram::TimingParams{};
  const auto patterns = std::vector<AttackPattern>{
      single_sided(kMap, timing, base), row_press(kMap, timing, base,
                                                 timing.t_refi)};
  ScenarioConfig scenario_config;
  scenario_config.tenants = default_tenants(1'000, 0xF022);
  std::vector<Scenario> scenarios;
  for (const auto& pattern : patterns) {
    scenarios.push_back(build_scenario(scenario_config, pattern));
  }
  const auto defenses = defense_catalogue(2'000);
  const auto roster = {find_defense(defenses, "PARA"),
                       find_defense(defenses, "Graphene-datasheet")};

  const auto run_once = [&](int jobs, const std::string& tag) {
    bender::HbmChip chip(dram::chip_profiles()[2]);
    runner::RunnerConfig config;
    config.result_columns = leaderboard_columns();
    config.results_path = scratch_path(tag + ".csv");
    config.journal_path = scratch_path(tag + ".jsonl");
    config.jobs = jobs;
    runner::CampaignRunner campaign(chip, config);
    std::vector<runner::CampaignRunner::Trial> trials;
    for (const auto& scenario : scenarios) {
      for (const auto& spec : roster) {
        trials.push_back(
            {scenario.attack_name + "|" + spec.name,
             [&scenario, &spec](
                 bender::ChipSession& session) -> std::vector<std::string> {
               const auto map = study::AddressMap::from_scheme(
                   session.profile().mapping);
               return to_cells(run_match(session, map, scenario, spec));
             }});
      }
    }
    const auto report = campaign.run(trials);
    EXPECT_FALSE(report.aborted);
    obs::MetricsRegistry metrics;
    fold_metrics(metrics, report.records);
    return std::pair{slurp(config.results_path),
                     metrics.deterministic_fingerprint()};
  };

  const auto serial = run_once(1, "j1");
  ASSERT_FALSE(serial.first.empty());
  const auto parallel = run_once(4, "j4");
  EXPECT_EQ(serial.first, parallel.first);
  EXPECT_EQ(serial.second, parallel.second);
}

/// The seeded fuzzer reproducibly finds a pattern that leaks bitflips past
/// a catalogued defense: enumeration index 6 at seed 0xF022 is a
/// RowPress-heavy multi-tone pattern that stays under Graphene's
/// datasheet-tuned activation threshold while accumulating a lethal
/// aggressor-on time (chip 2: identity mapping, no in-DRAM TRR).
TEST(Arena, FuzzerFindsACataloguedDefenseBypass) {
  bender::Platform platform;
  auto& chip = platform.chip(2);
  PatternConfig base;
  base.windows = 8205;  // one full tREFW of attack pressure
  base.seed = 0xF022;
  const PatternFuzzer fuzzer(kMap, chip.stack().timing(), base);
  const auto pattern = fuzzer.materialize(fuzzer.pattern(6));
  ScenarioConfig scenario_config;
  scenario_config.tenants = default_tenants(2'000, 0xF022);
  const auto scenario = build_scenario(scenario_config, pattern);
  const auto spec =
      find_defense(defense_catalogue(2'000), "Graphene-datasheet");
  const auto score = run_match(chip, kMap, scenario, spec);
  EXPECT_EQ(score.defense, "Graphene-datasheet");
  EXPECT_EQ(score.pattern, "fuzz#6");
  EXPECT_GT(score.flips_undefended, 0u);
  EXPECT_GT(score.flips_leaked, 0u);
  EXPECT_GE(score.slowdown, 1.0);
}

}  // namespace
}  // namespace hbmrd::arena
