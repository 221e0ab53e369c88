// Multi-tenant attack/defense arena (ROADMAP item 3, Sec. 8.2 extension):
// interleaves benign tenants with catalogued attack patterns and seeded
// blacksmith-style fuzzed patterns, and scores every catalogued defense
// configuration on (bitflips leaked, benign-tenant slowdown, preventive-
// refresh overhead) per chip profile. Each (pattern, defense) match is one
// checkpointed campaign trial, so the leaderboard CSV (--results) and the
// arena.* deterministic counters (--metrics-out) are byte-identical for
// any --jobs N.
#include "common.h"

#include <algorithm>
#include <map>

#include "arena/engine.h"
#include "arena/fuzzer.h"
#include "arena/leaderboard.h"
#include "study/hc_first.h"
#include "study/row_selection.h"

int main(int argc, char** argv) {
  using namespace hbmrd;
  bench::BenchContext ctx(
      argc, argv, "Attack/defense arena (multi-tenant leaderboard)",
      {bench::kCampaignFlags,
       bench::kShardFlags,
       bench::kObservabilityFlags,
       {{"--windows", util::FlagKind::kInt,
         "attack-pattern length in tREFI windows (default 1024)"},
        {"--benign-acts", util::FlagKind::kInt,
         "activations per benign tenant (default 20000)"},
        {"--fuzz", util::FlagKind::kInt,
         "fuzzed patterns appended to the catalogue (default 4)"},
        {"--fuzz-seed", util::FlagKind::kInt,
         "fuzzer enumeration seed (default 0xF022)"},
        {"--threshold", util::FlagKind::kInt,
         "protect threshold override (default: sampled HC_first/4)"}}});
  const auto windows = static_cast<std::uint64_t>(
      ctx.cli().get_int("--windows", 1024));
  const auto benign_acts = static_cast<std::size_t>(
      ctx.cli().get_int("--benign-acts", 20'000));
  const auto fuzz_count = static_cast<std::uint64_t>(
      ctx.cli().get_int("--fuzz", 4));
  const auto fuzz_seed = static_cast<std::uint64_t>(
      ctx.cli().get_int("--fuzz-seed", 0xF022));
  const auto chips = ctx.cli().has("--chip") ? ctx.chips()
                                             : std::vector<int>{1, 4};

  bench::CampaignObservability obs(ctx.cli());

  for (int chip_index : chips) {
    auto& chip = ctx.platform().chip(chip_index);
    const auto& map = ctx.map_of(chip_index);
    const auto& timing = chip.stack().timing();
    ctx.banner(chip.profile().label);

    // The tuned protect threshold: a quarter of the sampled minimum
    // HC_first (the defense_eval convention), or the --threshold override.
    std::uint64_t threshold =
        static_cast<std::uint64_t>(ctx.cli().get_int("--threshold", 0));
    if (threshold == 0) {
      std::uint64_t sampled_min = ~0ull;
      for (int row : study::spread_rows(4)) {
        study::HcSearchConfig hc_config;
        const auto hc = study::find_hc_first(chip, map, {{0, 0, 0}, row},
                                             hc_config);
        if (hc) sampled_min = std::min(sampled_min, *hc);
      }
      threshold = std::max<std::uint64_t>(512, sampled_min / 4);
    }
    std::cout << "Protect threshold: " << threshold << "\n";

    // The pattern roster: the fixed catalogue plus the fuzzer's head.
    arena::PatternConfig pattern_config;
    pattern_config.windows = windows;
    pattern_config.seed = fuzz_seed;
    auto patterns = arena::catalogued_patterns(map, timing, pattern_config);
    arena::PatternFuzzer fuzzer(map, timing, pattern_config);
    for (std::uint64_t i = 0; i < fuzz_count; ++i) {
      patterns.push_back(fuzzer.materialize(fuzzer.pattern(i)));
    }

    // One scenario per pattern (shared across defenses): the same benign
    // population, the same interleave seed.
    arena::ScenarioConfig scenario_config;
    scenario_config.tenants = arena::default_tenants(benign_acts, fuzz_seed);
    std::vector<arena::Scenario> scenarios;
    scenarios.reserve(patterns.size());
    for (const auto& pattern : patterns) {
      scenarios.push_back(arena::build_scenario(scenario_config, pattern));
    }

    const auto defenses = arena::defense_catalogue(threshold);

    auto config =
        bench::campaign_config(ctx.cli(), arena::leaderboard_columns());
    config.results_path =
        bench::per_chip_path(config.results_path, chip_index);
    config.journal_path =
        bench::per_chip_path(config.journal_path, chip_index);
    obs.attach(config);
    runner::CampaignRunner campaign(chip, config);

    std::vector<runner::CampaignRunner::Trial> trials;
    for (std::size_t p = 0; p < scenarios.size(); ++p) {
      for (const arena::DefenseSpec& spec : defenses) {
        const arena::Scenario& scenario = scenarios[p];
        trials.push_back(
            {scenario.attack_name + "|" + spec.name,
             [&scenario, &spec](
                 bender::ChipSession& session) -> std::vector<std::string> {
               const auto session_map = study::AddressMap::from_scheme(
                   session.profile().mapping);
               return arena::to_cells(
                   arena::run_match(session, session_map, scenario, spec));
             }});
      }
    }
    const auto report = bench::run_campaign_or_die(ctx, campaign, trials);

    if (obs.metrics() != nullptr) {
      arena::fold_metrics(*obs.metrics(), report.records);
    }

    // The leaderboard: defenses ranked by (bitflips leaked, slowdown).
    struct Aggregate {
      std::uint64_t leaked = 0;
      std::uint64_t undefended = 0;
      double worst_slowdown = 1.0;
      double refresh_per_kilo_act = 0.0;
      std::uint64_t stalled = 0;
      int matches = 0;
    };
    std::map<std::string, Aggregate> aggregates;
    util::Table matches({"Pattern", "Defense", "flips leaked",
                         "flips undefended", "slowdown",
                         "refreshes / 1K ACTs", "stalled ACTs"});
    for (const auto& record : report.records) {
      if (record.cells.empty()) continue;
      const auto score = arena::score_from_cells(record.cells);
      matches.row()
          .cell(score.pattern)
          .cell(score.defense)
          .cell(score.flips_leaked)
          .cell(score.flips_undefended)
          .cell(util::format_double(score.slowdown, 3) + "x")
          .cell(score.refresh_per_kilo_act, 2)
          .cell(score.stalled_acts);
      auto& aggregate = aggregates[score.defense];
      aggregate.leaked += score.flips_leaked;
      aggregate.undefended += score.flips_undefended;
      aggregate.worst_slowdown =
          std::max(aggregate.worst_slowdown, score.slowdown);
      aggregate.refresh_per_kilo_act += score.refresh_per_kilo_act;
      aggregate.stalled += score.stalled_acts;
      ++aggregate.matches;
    }
    matches.print(std::cout);

    ctx.banner("Leaderboard (" + chip.profile().label + ")");
    std::vector<std::pair<std::string, Aggregate>> ranked(aggregates.begin(),
                                                          aggregates.end());
    std::sort(ranked.begin(), ranked.end(),
              [](const auto& a, const auto& b) {
                if (a.second.leaked != b.second.leaked) {
                  return a.second.leaked < b.second.leaked;
                }
                if (a.second.worst_slowdown != b.second.worst_slowdown) {
                  return a.second.worst_slowdown < b.second.worst_slowdown;
                }
                return a.first < b.first;
              });
    util::Table board({"Rank", "Defense", "flips leaked (total)",
                       "worst slowdown", "mean refreshes / 1K ACTs",
                       "stalled ACTs"});
    int rank = 1;
    for (const auto& [name, aggregate] : ranked) {
      board.row()
          .cell(rank++)
          .cell(name)
          .cell(aggregate.leaked)
          .cell(util::format_double(aggregate.worst_slowdown, 3) + "x")
          .cell(aggregate.matches == 0
                    ? 0.0
                    : aggregate.refresh_per_kilo_act / aggregate.matches,
                2)
          .cell(aggregate.stalled);
    }
    board.print(std::cout);
    bench::print_campaign_report(std::cout, report,
                                 campaign.session().stats());
    if (report.aborted) return 2;
  }

  obs.finish();
  return 0;
}
