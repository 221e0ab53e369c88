// Campaign runner: recovery semantics and reproducibility guarantees.
//
// The properties under test are the ones the long sweeps depend on:
// identical (seed, plan) campaigns journal identically; a killed-and-resumed
// campaign commits the same CSV bytes as an uninterrupted one; injected
// faults cost retries but never change committed payloads; persistent
// faults are quarantined and reported, not silently dropped.
#include "runner/runner.h"

#include <gtest/gtest.h>

#include <array>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "bender/platform.h"
#include "scratch.h"

namespace hbmrd::runner {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

/// Chip 2: ambient, identity row mapping, no documented TRR.
bender::HbmChip fresh_chip() {
  return bender::HbmChip(dram::chip_profiles()[2]);
}

const std::vector<std::string> kColumns = {"flips", "victim_byte"};

/// Self-initializing double-sided hammer trials: each writes victim and
/// aggressors, hammers, and reads the victim back, so a retried or resumed
/// trial re-measures the identical experiment.
std::vector<CampaignRunner::Trial> make_trials(int n) {
  std::vector<CampaignRunner::Trial> trials;
  for (int t = 0; t < n; ++t) {
    const int row = 64 + 8 * t;
    const auto pattern = static_cast<std::uint8_t>(0x40 + t);
    trials.push_back(
        {"row" + std::to_string(row),
         [row, pattern](bender::ChipSession& session)
             -> std::vector<std::string> {
           const dram::RowAddress victim{{0, 0, 0}, row};
           session.write_row(victim, dram::RowBits::filled(pattern));
           session.write_row({{0, 0, 0}, row - 1},
                             dram::RowBits::filled(0xFF));
           session.write_row({{0, 0, 0}, row + 1},
                             dram::RowBits::filled(0xFF));
           const std::array<int, 2> aggressors = {row - 1, row + 1};
           session.hammer({0, 0, 0}, aggressors, 20000);
           const auto bits = session.read_row(victim);
           return {std::to_string(
                       bits.count_diff(dram::RowBits::filled(pattern))),
                   std::to_string(bits.words()[0] & 0xFF)};
         }});
  }
  return trials;
}

fault::FaultPlanConfig noisy_faults() {
  fault::FaultPlanConfig faults;
  faults.transient_rate = 0.4;
  faults.thermal_rate = 0.2;
  return faults;
}

TEST(CampaignRunner, FaultFreeCampaignCompletesEverything) {
  auto chip = fresh_chip();
  RunnerConfig config;
  config.result_columns = kColumns;
  CampaignRunner campaign(chip, config);
  const auto report = campaign.run(make_trials(6));
  EXPECT_EQ(report.completed, 6u);
  EXPECT_EQ(report.quarantined, 0u);
  EXPECT_EQ(report.retries, 0u);
  EXPECT_FALSE(report.aborted);
  EXPECT_EQ(report.completion_rate(), 1.0);
  for (const auto& record : report.records) {
    EXPECT_EQ(record.status, TrialStatus::kOk);
    EXPECT_EQ(record.cells.size(), kColumns.size());
  }
}

TEST(CampaignRunner, SamePlanJournalsByteIdentically) {
  const auto journal_of = [](const std::string& path) {
    auto chip = fresh_chip();
    RunnerConfig config;
    config.result_columns = kColumns;
    config.faults = noisy_faults();
    config.journal_path = path;
    CampaignRunner campaign(chip, config);
    const auto report = campaign.run(make_trials(8));
    EXPECT_FALSE(report.aborted);
    return slurp(path);
  };
  const auto a = journal_of(scratch_path("journal_a.jsonl"));
  const auto b = journal_of(scratch_path("journal_b.jsonl"));
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.rfind("{\"event\":\"campaign-begin\"", 0), 0u);
  EXPECT_NE(a.find("\"event\":\"campaign-end\""), std::string::npos);
}

TEST(CampaignRunner, InjectedFaultsNeverChangeCommittedPayloads) {
  const auto payloads_with = [](fault::FaultPlanConfig faults,
                                CampaignReport* out) {
    auto chip = fresh_chip();
    RunnerConfig config;
    config.result_columns = kColumns;
    config.faults = faults;
    CampaignRunner campaign(chip, config);
    *out = campaign.run(make_trials(8));
    std::vector<std::vector<std::string>> cells;
    for (const auto& record : out->records) cells.push_back(record.cells);
    return cells;
  };

  CampaignReport clean_report, faulty_report;
  const auto clean = payloads_with(fault::FaultPlanConfig{}, &clean_report);
  const auto faulty = payloads_with(noisy_faults(), &faulty_report);

  EXPECT_GT(faulty_report.retries, 0u) << "fault plan injected nothing";
  EXPECT_EQ(faulty_report.completion_rate(), 1.0);
  EXPECT_EQ(clean, faulty)
      << "a retried trial must re-measure the identical experiment";
}

TEST(CampaignRunner, KillAndResumeReproducesTheUninterruptedCsv) {
  const auto trials = make_trials(8);
  const auto full_path = scratch_path("full.csv");
  const auto part_path = scratch_path("part.csv");

  {
    auto chip = fresh_chip();
    RunnerConfig config;
    config.result_columns = kColumns;
    config.faults = noisy_faults();
    config.results_path = full_path;
    CampaignRunner campaign(chip, config);
    EXPECT_FALSE(campaign.run(trials).aborted);
  }
  {
    // "Kill" the campaign partway: checkpoint after 3 trials and stop.
    auto chip = fresh_chip();
    RunnerConfig config;
    config.result_columns = kColumns;
    config.faults = noisy_faults();
    config.results_path = part_path;
    config.stop_after_trials = 3;
    CampaignRunner campaign(chip, config);
    const auto report = campaign.run(trials);
    EXPECT_TRUE(report.aborted);
    EXPECT_EQ(report.abort_reason, "stop-after-trials");
    EXPECT_EQ(report.completed + report.quarantined, 3u);
  }
  {
    // Resume on a rebooted host (fresh chip): skips the committed rows.
    auto chip = fresh_chip();
    RunnerConfig config;
    config.result_columns = kColumns;
    config.faults = noisy_faults();
    config.results_path = part_path;
    config.resume = true;
    CampaignRunner campaign(chip, config);
    const auto report = campaign.run(trials);
    EXPECT_FALSE(report.aborted);
    EXPECT_EQ(report.resumed, 3u);
    EXPECT_EQ(report.records.size(), trials.size());
  }
  EXPECT_EQ(slurp(full_path), slurp(part_path));
}

TEST(CampaignRunner, ResumeDiscardsAPartialTrailingLine) {
  const auto trials = make_trials(6);
  const auto full_path = scratch_path("full_partial.csv");
  const auto cut_path = scratch_path("cut_partial.csv");

  {
    auto chip = fresh_chip();
    RunnerConfig config;
    config.result_columns = kColumns;
    config.results_path = full_path;
    CampaignRunner campaign(chip, config);
    EXPECT_FALSE(campaign.run(trials).aborted);
  }
  // Simulate a kill mid-write: keep 3 committed rows plus half of row 4.
  const auto full = slurp(full_path);
  std::size_t offset = 0;
  for (int newlines = 0; newlines < 4; ++offset) {
    if (full[offset] == '\n') ++newlines;
  }
  std::ofstream(cut_path) << full.substr(0, offset + 5);
  {
    auto chip = fresh_chip();
    RunnerConfig config;
    config.result_columns = kColumns;
    config.results_path = cut_path;
    config.resume = true;
    CampaignRunner campaign(chip, config);
    const auto report = campaign.run(trials);
    EXPECT_FALSE(report.aborted);
    EXPECT_EQ(report.resumed, 3u) << "the torn row must not be trusted";
  }
  EXPECT_EQ(slurp(full_path), slurp(cut_path));
}

TEST(CampaignRunner, PersistentFaultsAreQuarantinedAndReported) {
  auto chip = fresh_chip();
  RunnerConfig config;
  config.result_columns = kColumns;
  config.faults.persistent_rate = 1.0;
  config.results_path = scratch_path("quarantine.csv");
  CampaignRunner campaign(chip, config);
  const auto trials = make_trials(4);
  const auto report = campaign.run(trials);

  EXPECT_FALSE(report.aborted);
  EXPECT_EQ(report.quarantined, 4u);
  EXPECT_EQ(report.completion_rate(), 0.0);
  EXPECT_EQ(report.quarantined_keys().size(), 4u);
  for (const auto& record : report.records) {
    EXPECT_EQ(record.status, TrialStatus::kQuarantined);
    EXPECT_EQ(record.attempts, 1) << "persistent faults must not be retried";
    EXPECT_EQ(record.quarantine_reason, "stuck-readout");
    EXPECT_TRUE(record.cells.empty());
  }
  // The CSV reports the quarantined rows instead of dropping them.
  const auto csv = slurp(config.results_path);
  for (const auto& trial : trials) {
    EXPECT_NE(csv.find(trial.key + ",quarantined,,"), std::string::npos)
        << trial.key;
  }
}

TEST(CampaignRunner, GuardBandWaitsOutThermalExcursions) {
  auto chip = fresh_chip();
  RunnerConfig config;
  config.result_columns = kColumns;
  config.faults.thermal_rate = 1.0;
  CampaignRunner campaign(chip, config);
  const auto report = campaign.run(make_trials(4));

  EXPECT_FALSE(report.aborted);
  EXPECT_EQ(report.completion_rate(), 1.0);
  EXPECT_GT(report.guard_blocks, 0u);
  EXPECT_GT(report.guard_wait_s, 0.0);
  EXPECT_GT(campaign.session().stats().thermal_excursions, 0u);

  // Excursions cost waiting time, not result fidelity.
  auto clean_chip = fresh_chip();
  RunnerConfig clean_config;
  clean_config.result_columns = kColumns;
  CampaignRunner clean(clean_chip, clean_config);
  const auto clean_report = clean.run(make_trials(4));
  for (std::size_t i = 0; i < report.records.size(); ++i) {
    EXPECT_EQ(report.records[i].cells, clean_report.records[i].cells);
  }
}

TEST(CampaignRunner, FatalFaultAbortsWithTheJournalIntact) {
  auto chip = fresh_chip();
  RunnerConfig config;
  config.result_columns = kColumns;
  config.faults.fatal_rate = 1.0;
  config.journal_path = scratch_path("fatal.jsonl");
  CampaignRunner campaign(chip, config);
  const auto report = campaign.run(make_trials(4));

  EXPECT_TRUE(report.aborted);
  EXPECT_EQ(report.abort_reason, "host-crash");
  const auto journal = slurp(config.journal_path);
  EXPECT_NE(journal.find("\"event\":\"campaign-abort\""), std::string::npos);
  EXPECT_NE(journal.find("host-crash"), std::string::npos);
}

TEST(CampaignRunner, ResumeLoopSurvivesRepeatedHostCrashes) {
  // With a 40% per-trial crash rate, repeatedly resuming (each time on a
  // rebooted host, with the incarnation advanced by the committed rows)
  // must still finish the campaign — the incarnation keys the fatal draw,
  // so a crash does not recur deterministically on the same trial.
  const auto trials = make_trials(6);
  const auto path = scratch_path("crashy.csv");
  { std::ofstream truncate(path); }  // start empty

  fault::FaultPlanConfig faults;
  faults.fatal_rate = 0.4;

  bool finished = false;
  for (int incarnation = 0; incarnation < 25 && !finished; ++incarnation) {
    auto chip = fresh_chip();
    RunnerConfig config;
    config.result_columns = kColumns;
    config.faults = faults;
    config.results_path = path;
    config.resume = true;
    CampaignRunner campaign(chip, config);
    finished = !campaign.run(trials).aborted;
  }
  ASSERT_TRUE(finished) << "campaign never completed across 25 resumes";

  // And the crash-riddled campaign still committed the fault-free results.
  auto chip = fresh_chip();
  RunnerConfig config;
  config.result_columns = kColumns;
  config.results_path = scratch_path("crashy_ref.csv");
  CampaignRunner campaign(chip, config);
  EXPECT_FALSE(campaign.run(trials).aborted);
  EXPECT_EQ(slurp(path), slurp(config.results_path));
}

TEST(CampaignRunner, RejectsKeysAndCellsThatWouldCorruptTheCheckpoint) {
  auto chip = fresh_chip();
  RunnerConfig config;
  config.result_columns = {"value"};
  CampaignRunner campaign(chip, config);
  const std::vector<CampaignRunner::Trial> bad_key = {
      {"a,b", [](bender::ChipSession&) -> std::vector<std::string> {
         return {"1"};
       }}};
  EXPECT_THROW((void)campaign.run(bad_key), std::invalid_argument);
  const std::vector<CampaignRunner::Trial> bad_cell = {
      {"ok", [](bender::ChipSession&) -> std::vector<std::string> {
         return {"1,2"};
       }}};
  EXPECT_THROW((void)campaign.run(bad_cell), std::invalid_argument);
}

}  // namespace
}  // namespace hbmrd::runner
