// Campaign observability contract (docs/OBSERVABILITY.md):
//
//   * deterministic counters are byte-equal between --jobs 1 and --jobs N
//     (the registry's fingerprint is an oracle for the parallel runner);
//   * attaching metrics/trace/progress changes no committed CSV or journal
//     byte;
//   * the snapshot carries the catalogued keys even when counts are zero,
//     so downstream tooling can rely on the key set.
#include "runner/runner.h"

#include <gtest/gtest.h>

#include <array>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "bender/platform.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace.h"
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

/// Self-initializing double-sided hammer trials (runner_test idiom); the
/// aggressor list repeats row-1 so the bank's dedup counter moves.
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
           const std::array<int, 3> aggressors = {row - 1, row + 1, row - 1};
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

struct ObservedRun {
  CampaignReport report;
  obs::MetricsRegistry metrics;
  obs::TraceRecorder trace;
  std::string csv;
  std::string journal;
};

void run_observed(ObservedRun& out, int jobs, const std::string& tag,
                  int n_trials, obs::ProgressReporter* progress = nullptr) {
  auto chip = fresh_chip();
  RunnerConfig config;
  config.result_columns = kColumns;
  config.faults = noisy_faults();
  config.results_path = scratch_path(tag + ".csv");
  config.journal_path = scratch_path(tag + ".jsonl");
  config.jobs = jobs;
  config.metrics = &out.metrics;
  config.trace = &out.trace;
  config.progress = progress;
  CampaignRunner campaign(chip, config);
  out.report = campaign.run(make_trials(n_trials));
  out.csv = slurp(config.results_path);
  out.journal = slurp(config.journal_path);
}

TEST(ObsCampaign, DeterministicCountersAreByteEqualAcrossJobs) {
  ObservedRun serial;
  run_observed(serial, 1, "det_j1", 8);
  const auto fingerprint = serial.metrics.deterministic_fingerprint();
  ASSERT_FALSE(fingerprint.empty());
  for (int jobs : {2, 4}) {
    ObservedRun parallel;
    run_observed(parallel, jobs, "det_j" + std::to_string(jobs), 8);
    EXPECT_EQ(fingerprint, parallel.metrics.deterministic_fingerprint())
        << "jobs=" << jobs;
    EXPECT_EQ(serial.csv, parallel.csv) << "jobs=" << jobs;
    EXPECT_EQ(serial.journal, parallel.journal) << "jobs=" << jobs;
  }
}

TEST(ObsCampaign, AttachingObservabilityChangesNoCommittedByte) {
  // Bare run (no observability) vs fully instrumented run.
  auto chip = fresh_chip();
  RunnerConfig config;
  config.result_columns = kColumns;
  config.faults = noisy_faults();
  config.results_path = scratch_path("bare.csv");
  config.journal_path = scratch_path("bare.jsonl");
  config.jobs = 4;
  CampaignRunner campaign(chip, config);
  (void)campaign.run(make_trials(6));
  const auto bare_csv = slurp(config.results_path);
  const auto bare_journal = slurp(config.journal_path);

  std::ostringstream progress_out;
  double now = 0.0;
  obs::ProgressReporter::Options options;
  options.min_interval_s = 0.0;  // emit on every update
  options.out = &progress_out;
  options.clock = [&now] { return now += 0.25; };
  obs::ProgressReporter progress(options);

  ObservedRun observed;
  run_observed(observed, 4, "instrumented", 6, &progress);
  progress.finish();

  EXPECT_EQ(bare_csv, observed.csv);
  EXPECT_EQ(bare_journal, observed.journal);
  EXPECT_GT(progress.lines_emitted(), 0u);
  EXPECT_NE(progress_out.str().find("progress:"), std::string::npos);
  EXPECT_NE(progress_out.str().find("/6 trials"), std::string::npos);
}

TEST(ObsCampaign, CountersTellTheCampaignStory) {
  ObservedRun run;
  run_observed(run, 2, "story", 8);
  const auto& m = run.metrics;

  EXPECT_EQ(m.counter("campaign.trials"), 8u);
  EXPECT_EQ(m.counter("campaign.completed"), run.report.completed);
  EXPECT_EQ(m.counter("campaign.quarantined"), run.report.quarantined);
  EXPECT_EQ(m.counter("campaign.retries"), run.report.retries);
  EXPECT_EQ(m.counter("campaign.aborts"), 0u);

  // The hammer loops go through the executor; the device observes them.
  EXPECT_GT(m.counter("exec.acts"), 0u);
  EXPECT_GT(m.counter("exec.pres"), 0u);
  EXPECT_GT(m.counter("exec.hammer_windows"), 0u);
  EXPECT_GT(m.counter("device.acts"), 0u);
  EXPECT_GT(m.counter("device.hammer_windows"), 0u);
  // The aggressor list repeats a row, so steps fold into dedup hits.
  EXPECT_GT(m.counter("device.dedup_hits"), 0u);
  EXPECT_EQ(m.counter("device.acts"),
            run.report.device_counters.activations);

  // Threshold summaries were consulted; every lookup is hit or miss.
  EXPECT_GT(m.counter("cache.lookups"), 0u);
  EXPECT_EQ(m.counter("cache.lookups"),
            m.counter("cache.hits") + m.counter("cache.misses"));
  // The epoch-relative summary_* counters partition the same lookups and
  // are deterministic (they ride in the fingerprint compared across jobs
  // by DeterministicCountersAreByteEqualAcrossJobs above).
  EXPECT_EQ(m.counter("cache.lookups"),
            m.counter("cache.summary_hits") +
                m.counter("cache.summary_misses"));
  EXPECT_GT(m.counter("cache.summary_misses"), 0u);
  const auto fingerprint = m.deterministic_fingerprint();
  for (const char* key : {"cache.summary_hits=", "cache.summary_misses=",
                          "cache.summary_evictions="}) {
    EXPECT_NE(fingerprint.find(key), std::string::npos) << key;
  }

  // Faults were injected (noisy plan) and all artifact I/O was counted.
  EXPECT_GT(m.counter("faults.injected"), 0u);
  EXPECT_GT(m.counter("store.appends"), 0u);
  EXPECT_GT(m.counter("store.append_bytes"), 0u);
  EXPECT_GT(m.counter("store.replaces"), 0u);  // manifest

  // Spans: one campaign, one recover scan, one trial span per executed
  // trial, one commit per committed record.
  EXPECT_EQ(run.trace.span("campaign").count, 1u);
  // Fresh run: the recover scan never happens (see the resume test below).
  EXPECT_EQ(run.trace.span("campaign/recover").count, 0u);
  EXPECT_EQ(run.trace.span("campaign/trial").count,
            run.report.completed + run.report.quarantined);
  EXPECT_EQ(run.trace.span("campaign/commit").count,
            run.report.completed + run.report.quarantined);

  // The snapshot carries the whole catalogue even for zero counts.
  const auto json = run.metrics.to_json(&run.trace);
  for (const char* key :
       {"\"campaign.resumed\"", "\"recovery.corrupt_rows\"",
        "\"exec.refs\"", "\"store.fsyncs\"", "\"faults.thermal_excursions\"",
        "\"trial.wall_s\"", "\"campaign.wall_s\"", "\"spans\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
}

TEST(ObsCampaign, ResumedTrialsCountWithoutReExecution) {
  const auto csv = scratch_path("resume.csv");
  const auto journal = scratch_path("resume.jsonl");
  {
    auto chip = fresh_chip();
    RunnerConfig config;
    config.result_columns = kColumns;
    config.faults = noisy_faults();
    config.results_path = csv;
    config.journal_path = journal;
    config.stop_after_trials = 3;
    CampaignRunner campaign(chip, config);
    const auto report = campaign.run(make_trials(8));
    EXPECT_TRUE(report.aborted);
  }
  auto chip = fresh_chip();
  RunnerConfig config;
  config.result_columns = kColumns;
  config.faults = noisy_faults();
  config.results_path = csv;
  config.journal_path = journal;
  config.resume = true;
  obs::MetricsRegistry metrics;
  obs::TraceRecorder trace;
  config.metrics = &metrics;
  config.trace = &trace;
  CampaignRunner campaign(chip, config);
  const auto report = campaign.run(make_trials(8));
  EXPECT_FALSE(report.aborted);
  EXPECT_EQ(trace.span("campaign/recover").count, 1u);
  EXPECT_EQ(metrics.counter("campaign.resumed"), report.resumed);
  EXPECT_EQ(metrics.counter("campaign.resumed"), 3u);
  EXPECT_EQ(metrics.counter("campaign.completed") +
                metrics.counter("campaign.quarantined"),
            5u);
}

}  // namespace
}  // namespace hbmrd::runner
