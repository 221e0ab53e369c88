// Parallel campaign execution: `--jobs N` must be an implementation detail.
//
// The contract under test is byte-identity: for any worker count, the
// committed CSV checkpoint and the JSONL journal are the same bytes the
// serial run produces — including under kill + resume, quarantines from
// concurrent persistent faults, and fatal aborts. The report-level
// aggregates (retries, guard waits, device counters) must match too, since
// the sweeps print them.
#include "runner/runner.h"

#include <gtest/gtest.h>

#include <array>
#include <fstream>
#include <iterator>
#include <stdexcept>
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

/// Same self-initializing double-sided hammer trials as runner_test.cpp.
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

struct RunOutput {
  CampaignReport report;
  std::string csv;
  std::string journal;
};

RunOutput run_campaign(int jobs, const std::string& tag,
                       const fault::FaultPlanConfig& faults, int n_trials,
                       std::uint64_t stop_after = 0) {
  auto chip = fresh_chip();
  RunnerConfig config;
  config.result_columns = kColumns;
  config.faults = faults;
  config.results_path = scratch_path(tag + ".csv");
  config.journal_path = scratch_path(tag + ".jsonl");
  config.stop_after_trials = stop_after;
  config.jobs = jobs;
  CampaignRunner campaign(chip, config);
  RunOutput out;
  out.report = campaign.run(make_trials(n_trials));
  out.csv = slurp(config.results_path);
  out.journal = slurp(config.journal_path);
  return out;
}

TEST(ParallelRunner, AnyJobCountIsByteIdenticalToSerial) {
  const auto serial = run_campaign(1, "ident_j1", noisy_faults(), 10);
  ASSERT_FALSE(serial.csv.empty());
  ASSERT_FALSE(serial.journal.empty());
  for (int jobs : {2, 3, 8}) {
    const auto parallel = run_campaign(
        jobs, "ident_j" + std::to_string(jobs), noisy_faults(), 10);
    EXPECT_EQ(serial.csv, parallel.csv) << "jobs=" << jobs;
    EXPECT_EQ(serial.journal, parallel.journal) << "jobs=" << jobs;
    EXPECT_EQ(serial.report.retries, parallel.report.retries);
    EXPECT_EQ(serial.report.guard_blocks, parallel.report.guard_blocks);
    EXPECT_EQ(serial.report.guard_wait_s, parallel.report.guard_wait_s);
    EXPECT_EQ(serial.report.backoff_wait_s, parallel.report.backoff_wait_s);
    EXPECT_EQ(serial.report.campaign_seconds,
              parallel.report.campaign_seconds);
    EXPECT_EQ(serial.report.device_counters.activations,
              parallel.report.device_counters.activations);
    EXPECT_EQ(serial.report.device_counters.bitflips_materialized,
              parallel.report.device_counters.bitflips_materialized);
  }
}

TEST(ParallelRunner, MoreWorkersThanTrialsStillCommitsEverything) {
  const auto out = run_campaign(16, "overprovisioned", noisy_faults(), 3);
  EXPECT_FALSE(out.report.aborted);
  EXPECT_EQ(out.report.completed, 3u);
  EXPECT_EQ(out.report.records.size(), 3u);
}

TEST(ParallelRunner, KillAndResumeUnderJobs8MatchesTheUninterruptedSerialRun) {
  const auto trials = make_trials(10);
  const auto faults = noisy_faults();

  // Reference: uninterrupted serial run.
  const auto full = run_campaign(1, "resume_full", faults, 10);
  ASSERT_FALSE(full.report.aborted);

  // Kill mid-campaign under jobs=8 (checkpoint after 4 trials), then
  // resume — still under jobs=8, on a rebooted host.
  const auto part_csv = scratch_path("resume_part.csv");
  const auto part_journal = scratch_path("resume_part.jsonl");
  {
    auto chip = fresh_chip();
    RunnerConfig config;
    config.result_columns = kColumns;
    config.faults = faults;
    config.results_path = part_csv;
    config.journal_path = part_journal;
    config.stop_after_trials = 4;
    config.jobs = 8;
    CampaignRunner campaign(chip, config);
    const auto report = campaign.run(trials);
    EXPECT_TRUE(report.aborted);
    EXPECT_EQ(report.abort_reason, "stop-after-trials");
    EXPECT_EQ(report.completed + report.quarantined, 4u);
  }
  {
    auto chip = fresh_chip();
    RunnerConfig config;
    config.result_columns = kColumns;
    config.faults = faults;
    config.results_path = part_csv;
    config.journal_path = part_journal;
    config.resume = true;
    config.jobs = 8;
    CampaignRunner campaign(chip, config);
    const auto report = campaign.run(trials);
    EXPECT_FALSE(report.aborted);
    EXPECT_EQ(report.resumed, 4u);
    EXPECT_EQ(report.records.size(), trials.size());
  }
  EXPECT_EQ(full.csv, slurp(part_csv));

  // The kill + resume journal itself is also jobs-independent: replaying
  // the same kill + resume sequence serially writes the same bytes.
  const auto serial_part_csv = scratch_path("resume_part_j1.csv");
  const auto serial_part_journal = scratch_path("resume_part_j1.jsonl");
  for (const bool resume : {false, true}) {
    auto chip = fresh_chip();
    RunnerConfig config;
    config.result_columns = kColumns;
    config.faults = faults;
    config.results_path = serial_part_csv;
    config.journal_path = serial_part_journal;
    config.stop_after_trials = resume ? 0 : 4;
    config.resume = resume;
    config.jobs = 1;
    CampaignRunner campaign(chip, config);
    (void)campaign.run(trials);
  }
  EXPECT_EQ(slurp(serial_part_csv), slurp(part_csv));
  EXPECT_EQ(slurp(serial_part_journal), slurp(part_journal));
}

TEST(ParallelRunner, QuarantineOrderingSurvivesConcurrentFailures) {
  // Half the trials hit a persistent fault (draws are per-trial
  // deterministic), so under jobs=8 several failures are in flight at
  // once; the committed order must still be the campaign order.
  fault::FaultPlanConfig faults;
  faults.persistent_rate = 0.5;
  faults.transient_rate = 0.3;

  const auto serial = run_campaign(1, "quarantine_j1", faults, 12);
  const auto parallel = run_campaign(8, "quarantine_j8", faults, 12);

  EXPECT_GT(serial.report.quarantined, 0u) << "plan quarantined nothing";
  EXPECT_LT(serial.report.quarantined, 12u) << "plan quarantined everything";
  EXPECT_EQ(serial.csv, parallel.csv);
  EXPECT_EQ(serial.journal, parallel.journal);
  EXPECT_EQ(serial.report.quarantined_keys(),
            parallel.report.quarantined_keys());
  ASSERT_EQ(serial.report.records.size(), parallel.report.records.size());
  for (std::size_t i = 0; i < serial.report.records.size(); ++i) {
    EXPECT_EQ(serial.report.records[i].key, parallel.report.records[i].key);
    EXPECT_EQ(serial.report.records[i].status,
              parallel.report.records[i].status);
    EXPECT_EQ(serial.report.records[i].cells,
              parallel.report.records[i].cells);
  }
}

TEST(ParallelRunner, FatalAbortIsByteIdenticalAcrossJobs) {
  fault::FaultPlanConfig faults;
  faults.fatal_rate = 0.3;
  const auto serial = run_campaign(1, "fatal_j1", faults, 10);
  const auto parallel = run_campaign(8, "fatal_j8", faults, 10);
  EXPECT_TRUE(serial.report.aborted);
  EXPECT_TRUE(parallel.report.aborted);
  EXPECT_EQ(serial.report.abort_reason, parallel.report.abort_reason);
  EXPECT_EQ(serial.csv, parallel.csv);
  EXPECT_EQ(serial.journal, parallel.journal);
  EXPECT_EQ(serial.report.records.size(), parallel.report.records.size());
}

TEST(ParallelRunner, WorkerExceptionsPropagateAtTheCommitPoint) {
  auto chip = fresh_chip();
  RunnerConfig config;
  config.result_columns = {"value"};
  config.jobs = 8;
  CampaignRunner campaign(chip, config);
  std::vector<CampaignRunner::Trial> trials;
  for (int t = 0; t < 6; ++t) {
    trials.push_back({"ok" + std::to_string(t),
                      [](bender::ChipSession&) -> std::vector<std::string> {
                        return {"1"};
                      }});
  }
  trials.push_back({"bad",
                    [](bender::ChipSession&) -> std::vector<std::string> {
                      return {"1,2"};  // comma would corrupt the checkpoint
                    }});
  EXPECT_THROW((void)campaign.run(trials), std::invalid_argument);
}

}  // namespace
}  // namespace hbmrd::runner
