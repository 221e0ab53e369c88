// Google-benchmark microbenchmarks of the simulator itself: command
// throughput, sense/materialization cost, the hammer fast path, the
// threshold cache (cold build vs warm hit), a full HC_first search, and an
// end-to-end campaign at several --jobs settings. These guard the
// performance envelope that keeps the --full experiment sweeps tractable.
//
// To archive a run for regression tracking, use the JSON reporter:
//   ./bench/perf_simulator --benchmark_format=json > BENCH_simulator.json
// (BENCH_*.json files are the conventional names for stored baselines.)
// BM_RowWalkAnchor (bench/anchor.h) is the machine-speed anchor that
// tools/bench_check.py normalizes by.
#include <benchmark/benchmark.h>

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "anchor.h"
#include "arena/engine.h"
#include "bender/executor.h"
#include "bender/platform.h"
#include "bender/program.h"
#include "disturb/threshold_cache.h"
#include "runner/runner.h"
#include "study/address_map.h"
#include "study/hc_first.h"

namespace {

using namespace hbmrd;

dram::StackConfig config() {
  dram::StackConfig c;
  c.disturb.seed = 0xBE7C4;
  return c;
}

constexpr dram::BankAddress kBank{0, 0, 0};

using bench::BM_RowWalkAnchor;
BENCHMARK(BM_RowWalkAnchor);

void BM_ActPrePair(benchmark::State& state) {
  dram::Stack stack(config());
  bender::Executor executor(&stack);
  for (auto _ : state) {
    bender::ProgramBuilder builder;
    builder.act(kBank, 4300).pre(kBank);
    benchmark::DoNotOptimize(executor.run(std::move(builder).build()));
  }
}
BENCHMARK(BM_ActPrePair);

void BM_WriteRow(benchmark::State& state) {
  dram::Stack stack(config());
  bender::Executor executor(&stack);
  const auto bits = dram::RowBits::filled(0x55);
  for (auto _ : state) {
    bender::ProgramBuilder builder;
    builder.write_row(kBank, 4300, bits);
    benchmark::DoNotOptimize(executor.run(std::move(builder).build()));
  }
}
BENCHMARK(BM_WriteRow);

void BM_HammerFastPath(benchmark::State& state) {
  dram::Stack stack(config());
  bender::Executor executor(&stack);
  const std::array<int, 2> rows = {4299, 4301};
  const auto count = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    bender::ProgramBuilder builder;
    builder.hammer(kBank, rows, count);
    benchmark::DoNotOptimize(executor.run(std::move(builder).build()));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(count) * 2);
}
BENCHMARK(BM_HammerFastPath)->Arg(1000)->Arg(100000);

void BM_SenseDisturbedRow(benchmark::State& state) {
  // The dominant cost of every probe: reading a victim whose ledger holds
  // dose. A threshold cache is attached explicitly, so the first sense
  // builds the row summary and every later sense is a warm hit.
  // state.range(0) is the double-sided hammer count before each read: 100K
  // leaves 1 candidate cell (an HC_first-like head), 1M leaves 379 and 3M
  // leaves 539 (BER-sweep-like masks). Each iteration rewinds the device
  // to the freshly written victim, as the HC search does, so every timed
  // read senses the same state and no neighbour's ledger grows.
  auto c = config();
  c.threshold_cache = std::make_shared<disturb::ThresholdCache>();
  dram::Stack stack(std::move(c));
  bender::Executor executor(&stack);
  const std::array<int, 2> rows = {4299, 4301};
  const auto hammers = static_cast<std::uint64_t>(state.range(0));
  bender::ProgramBuilder write;
  write.write_row(kBank, 4300, dram::RowBits::filled(0x55));
  executor.run(std::move(write).build());
  const std::size_t written = stack.push_checkpoint();
  bender::Executor::Snapshot written_clock;
  executor.save_state(written_clock);
  for (auto _ : state) {
    state.PauseTiming();
    stack.restore_checkpoint(written);
    executor.restore_state(written_clock);
    bender::ProgramBuilder setup;
    setup.hammer(kBank, rows, hammers);
    executor.run(std::move(setup).build());
    state.ResumeTiming();
    bender::ProgramBuilder read;
    read.read_row(kBank, 4300);
    benchmark::DoNotOptimize(executor.run(std::move(read).build()));
  }
}
BENCHMARK(BM_SenseDisturbedRow)
    ->Arg(100000)
    ->Arg(1000000)
    ->Arg(3000000)
    ->ArgName("hammers");

void BM_RowSummaryBuild(benchmark::State& state) {
  // Cold-miss cost of the threshold cache: the per-cell hash passes plus
  // the two bucket scatters, rebuilt into one summary's storage the way a
  // full cache rebuilds into the entry it evicts. A warm hit amortizes
  // this over every later sense.
  const disturb::FaultModel model(config().disturb);
  auto summary = std::make_unique<disturb::RowThresholdSummary>();
  int row = 100;
  for (auto _ : state) {
    disturb::build_row_summary(model, kBank, row, *summary);
    benchmark::DoNotOptimize(summary->min_retention_ref_s);
    benchmark::ClobberMemory();
    row = (row + 1) % dram::kRowsPerBank;
  }
}
BENCHMARK(BM_RowSummaryBuild);

void BM_ArenaScenario(benchmark::State& state) {
  // One arena match end-to-end: multi-tenant scenario assembly amortized
  // out, baseline + defended run of the merged stream through
  // ProtectedSession (the periodic-REF weave and window accounting are on
  // this path). Guards the arena_eval sweep cost per (pattern, defense).
  bender::Platform platform;
  auto& chip = platform.chip(2);
  const auto map = study::AddressMap::from_scheme(chip.profile().mapping);
  arena::PatternConfig pattern_config;
  pattern_config.windows = 24;
  pattern_config.seed = 0xF022;
  const auto attack =
      arena::double_sided(map, chip.stack().timing(), pattern_config);
  arena::ScenarioConfig scenario_config;
  scenario_config.tenants = arena::default_tenants(1'000, 0xF022);
  const auto scenario = arena::build_scenario(scenario_config, attack);
  const auto spec =
      arena::find_defense(arena::defense_catalogue(2'000), "Graphene");
  for (auto _ : state) {
    benchmark::DoNotOptimize(arena::run_match(chip, map, scenario, spec));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(scenario.stream.size()));
}
BENCHMARK(BM_ArenaScenario)->Unit(benchmark::kMillisecond);

void BM_HcFirstSearch(benchmark::State& state) {
  // One HC_first search on the checkpointed incremental engine.
  bender::Platform platform;
  auto& chip = platform.chip(2);
  const auto map = study::AddressMap::from_scheme(chip.profile().mapping);
  const study::HcSearchConfig hc_config;
  int row = 4000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        study::find_hc_first(chip, map, {kBank, row}, hc_config));
    row += 7;  // fresh rows so caching cannot flatter the number
  }
}
BENCHMARK(BM_HcFirstSearch);

void BM_ParallelCampaign(benchmark::State& state) {
  // End-to-end campaign through the sharded runner at a given --jobs
  // setting. Output is byte-identical for every jobs value (asserted by
  // tests/parallel_runner_test.cpp); this measures the wall-clock effect.
  // On an N-core host expect ~min(jobs, cores)x; on one core, parity.
  // Real time: the workers run on other threads, so the main thread's
  // CPU time would not show the speedup.
  bender::HbmChip chip(dram::chip_profiles()[2]);
  runner::RunnerConfig rc;
  rc.result_columns = {"flips"};
  rc.jobs = static_cast<int>(state.range(0));
  std::vector<runner::CampaignRunner::Trial> trials;
  for (int t = 0; t < 12; ++t) {
    const int row = 64 + 8 * t;
    trials.push_back(
        {"row" + std::to_string(row),
         [row](bender::ChipSession& session) -> std::vector<std::string> {
           const dram::RowAddress victim{kBank, row};
           session.write_row(victim, dram::RowBits::filled(0x55));
           session.write_row({kBank, row - 1}, dram::RowBits::filled(0xFF));
           session.write_row({kBank, row + 1}, dram::RowBits::filled(0xFF));
           const std::array<int, 2> aggressors = {row - 1, row + 1};
           session.hammer(kBank, aggressors, 60000);
           const auto bits = session.read_row(victim);
           return {std::to_string(
               bits.count_diff(dram::RowBits::filled(0x55)))};
         }});
  }
  for (auto _ : state) {
    runner::CampaignRunner campaign(chip, rc);
    benchmark::DoNotOptimize(campaign.run(trials));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(trials.size()));
}
BENCHMARK(BM_ParallelCampaign)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->ArgName("jobs")
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
