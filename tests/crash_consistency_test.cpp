// Crash-consistency sweep: the capstone proof of the storage protocol.
//
// A counting run first measures how many store writes (and fsyncs) an
// uninterrupted campaign performs. Then, for EVERY reachable crash point k,
// a campaign is run against a FaultyStore that simulates power loss at the
// k-th operation — tearing the in-flight write and rolling every file's
// un-synced tail back to a seeded offset — and resumed once on a healthy
// store. The final checkpoint CSV and journal must be byte-identical to the
// uninterrupted run's, for the serial runner and for --jobs 4. A copy of
// each torn state is first repaired offline with campaign_fsck and then
// resumed: it must end on the same bytes, since both apply one trust rule.
//
// Around the sweep: crash-during-recovery (the resume path's own atomic
// rewrite is interrupted and the next resume still converges), repeated
// crashes with durable mode (fsync floors bound the loss), mid-file
// corruption (quarantined and re-measured, never silently re-used), and
// the manifest refusing to resume a checkpoint from a different campaign.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bender/platform.h"
#include "fault/faulty_store.h"
#include "runner/checkpoint.h"
#include "runner/fsck.h"
#include "runner/runner.h"
#include "util/crc32c.h"
#include "util/csv.h"

namespace hbmrd::runner {
namespace {

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + "crash_test_" + name;
}

/// Chip 2: ambient, identity row mapping, no documented TRR.
bender::HbmChip fresh_chip() {
  return bender::HbmChip(dram::chip_profiles()[2]);
}

const std::vector<std::string> kColumns = {"flips", "victim_byte"};

/// Self-initializing hammer trials (same shape as runner_test): a resumed
/// or re-run trial re-measures the identical experiment.
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

struct Artifacts {
  std::string csv;
  std::string jsonl;

  explicit Artifacts(const std::string& tag)
      : csv(tmp_path(tag + ".csv")), jsonl(tmp_path(tag + ".jsonl")) {
    reset();
  }
  ~Artifacts() { reset(); }
  void reset() const {
    for (const auto& path :
         {csv, jsonl, csv + ".manifest", csv + ".quarantine"}) {
      std::remove(path.c_str());
    }
  }
};

RunnerConfig base_config(const Artifacts& artifacts, int jobs = 1,
                         std::uint64_t fsync_every = 0) {
  RunnerConfig config;
  config.result_columns = kColumns;
  config.results_path = artifacts.csv;
  config.journal_path = artifacts.jsonl;
  config.jobs = jobs;
  config.fsync_every_trials = fsync_every;
  return config;
}

std::string slurp(const std::string& path) {
  return util::default_store()->read(path).value_or("");
}

/// Runs the campaign with an injected crash at the given operation index,
/// expecting the simulated power loss.
void crash_campaign(const Artifacts& artifacts,
                    const std::vector<CampaignRunner::Trial>& trials,
                    fault::StoreFaultConfig crash, int jobs,
                    std::uint64_t fsync_every, std::uint64_t crash_seed) {
  auto chip = fresh_chip();
  auto config = base_config(artifacts, jobs, fsync_every);
  config.store = std::make_shared<fault::FaultyStore>(util::default_store(),
                                                      crash_seed, crash);
  CampaignRunner campaign(chip, config);
  EXPECT_THROW((void)campaign.run(trials), fault::StoreCrashError);
}

/// Resumes the campaign once on a healthy store.
CampaignReport resume_campaign(const Artifacts& artifacts,
                               const std::vector<CampaignRunner::Trial>& trials,
                               int jobs, std::uint64_t fsync_every) {
  auto chip = fresh_chip();
  auto config = base_config(artifacts, jobs, fsync_every);
  config.resume = true;
  CampaignRunner campaign(chip, config);
  return campaign.run(trials);
}

/// Crashes the campaign at the given operation index, then resumes it once
/// and returns the resume report.
CampaignReport crash_then_resume(const Artifacts& artifacts,
                                 const std::vector<CampaignRunner::Trial>& trials,
                                 fault::StoreFaultConfig crash, int jobs,
                                 std::uint64_t fsync_every,
                                 std::uint64_t crash_seed) {
  crash_campaign(artifacts, trials, crash, jobs, fsync_every, crash_seed);
  return resume_campaign(artifacts, trials, jobs, fsync_every);
}

/// Copies the torn artifacts byte for byte, including which are missing.
void copy_artifacts(const Artifacts& from, const Artifacts& to) {
  auto store = util::default_store();
  to.reset();
  for (const auto& [src, dst] :
       {std::pair{from.csv, to.csv}, std::pair{from.jsonl, to.jsonl},
        std::pair{from.csv + ".manifest", to.csv + ".manifest"}}) {
    if (const auto bytes = store->read(src)) store->atomic_replace(dst, *bytes);
  }
}

class CrashSweep : public ::testing::TestWithParam<int> {};

TEST_P(CrashSweep, EveryCrashPointRecoversByteIdentically) {
  const int jobs = GetParam();
  const auto trials = make_trials(4);

  // Reference: the uninterrupted run, through a (fault-free) FaultyStore so
  // the same wrapper counts how many writes the campaign performs.
  Artifacts reference("sweep_ref_j" + std::to_string(jobs));
  auto counting_store = std::make_shared<fault::FaultyStore>(
      util::default_store(), 0, fault::StoreFaultConfig{});
  {
    auto chip = fresh_chip();
    auto config = base_config(reference, jobs);
    config.store = counting_store;
    CampaignRunner campaign(chip, config);
    const auto report = campaign.run(trials);
    ASSERT_FALSE(report.aborted);
    ASSERT_EQ(report.completed, trials.size());
  }
  const auto ref_csv = slurp(reference.csv);
  const auto ref_jsonl = slurp(reference.jsonl);
  const auto total_writes = counting_store->stats().writes;
  ASSERT_GE(total_writes, 8u);  // manifest + header + begin + per-trial I/O

  Artifacts artifacts("sweep_j" + std::to_string(jobs));
  Artifacts repaired("sweep_fsck_j" + std::to_string(jobs));
  for (std::uint64_t k = 1; k <= total_writes; ++k) {
    artifacts.reset();
    fault::StoreFaultConfig crash;
    crash.crash_at_write = k;
    crash_campaign(artifacts, trials, crash, jobs, 0, 1000 + k);
    copy_artifacts(artifacts, repaired);
    const auto report = resume_campaign(artifacts, trials, jobs, 0);
    EXPECT_FALSE(report.aborted) << "crash point " << k;
    EXPECT_EQ(slurp(artifacts.csv), ref_csv) << "crash point " << k;
    EXPECT_EQ(slurp(artifacts.jsonl), ref_jsonl) << "crash point " << k;

    // Offline repair applies the rule resume applies: "fsck --repair, then
    // resume" ends on the same bytes as "resume alone".
    FsckOptions fsck;
    fsck.results_path = repaired.csv;
    fsck.journal_path = repaired.jsonl;
    fsck.repair = true;
    (void)campaign_fsck(fsck);
    EXPECT_FALSE(resume_campaign(repaired, trials, jobs, 0).aborted)
        << "crash point " << k;
    EXPECT_EQ(slurp(repaired.csv), slurp(artifacts.csv)) << "crash point " << k;
    EXPECT_EQ(slurp(repaired.jsonl), slurp(artifacts.jsonl))
        << "crash point " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(SerialAndParallel, CrashSweep,
                         ::testing::Values(1, 4));

TEST(CrashConsistency, FsyncCrashPointsRecoverInDurableMode) {
  const auto trials = make_trials(4);

  Artifacts reference("fsync_ref");
  auto counting_store = std::make_shared<fault::FaultyStore>(
      util::default_store(), 0, fault::StoreFaultConfig{});
  {
    auto chip = fresh_chip();
    auto config = base_config(reference, 1, /*fsync_every=*/1);
    config.store = counting_store;
    CampaignRunner campaign(chip, config);
    ASSERT_FALSE(campaign.run(trials).aborted);
  }
  const auto ref_csv = slurp(reference.csv);
  const auto ref_jsonl = slurp(reference.jsonl);
  const auto total_fsyncs = counting_store->stats().fsyncs;
  ASSERT_GE(total_fsyncs, trials.size());

  Artifacts artifacts("fsync_sweep");
  for (std::uint64_t k = 1; k <= total_fsyncs; ++k) {
    artifacts.reset();
    fault::StoreFaultConfig crash;
    crash.crash_at_fsync = k;
    const auto report =
        crash_then_resume(artifacts, trials, crash, 1, 1, 2000 + k);
    EXPECT_FALSE(report.aborted) << "fsync crash point " << k;
    EXPECT_EQ(slurp(artifacts.csv), ref_csv) << "fsync crash point " << k;
    EXPECT_EQ(slurp(artifacts.jsonl), ref_jsonl) << "fsync crash point " << k;
  }
}

TEST(CrashConsistency, CrashDuringRecoveryRewriteStillConverges) {
  // Satellite regression: the resume path's own checkpoint rewrite is an
  // atomic_replace; a crash in the middle of recovery must leave a state
  // the NEXT resume recovers from (the pre-rewrite artifacts are intact).
  const auto trials = make_trials(4);

  Artifacts reference("recovery_ref");
  {
    auto chip = fresh_chip();
    auto config = base_config(reference);
    CampaignRunner campaign(chip, config);
    ASSERT_FALSE(campaign.run(trials).aborted);
  }

  Artifacts artifacts("recovery_crash");
  {  // First incarnation: killed mid-campaign.
    auto chip = fresh_chip();
    auto config = base_config(artifacts);
    fault::StoreFaultConfig crash;
    crash.crash_at_write = 7;
    config.store = std::make_shared<fault::FaultyStore>(util::default_store(),
                                                        21, crash);
    CampaignRunner campaign(chip, config);
    EXPECT_THROW((void)campaign.run(trials), fault::StoreCrashError);
  }
  {  // Second incarnation: crashes again during the recovery rewrite
     // itself (the first writes of a resume are recovery's atomic
     // replaces).
    auto chip = fresh_chip();
    auto config = base_config(artifacts);
    config.resume = true;
    fault::StoreFaultConfig crash;
    crash.crash_at_write = 1;
    config.store = std::make_shared<fault::FaultyStore>(util::default_store(),
                                                        22, crash);
    CampaignRunner campaign(chip, config);
    EXPECT_THROW((void)campaign.run(trials), fault::StoreCrashError);
  }
  {  // Third incarnation: healthy store; must converge byte-identically.
    auto chip = fresh_chip();
    auto config = base_config(artifacts);
    config.resume = true;
    CampaignRunner campaign(chip, config);
    EXPECT_FALSE(campaign.run(trials).aborted);
  }
  EXPECT_EQ(slurp(artifacts.csv), slurp(reference.csv));
  EXPECT_EQ(slurp(artifacts.jsonl), slurp(reference.jsonl));
}

TEST(CrashConsistency, RepeatedPowerLossConvergesWithDurableCommits) {
  // With fsync-every-1, each committed trial is a durable floor: however
  // often power is lost, the campaign monotonically progresses and the
  // final artifacts are byte-identical to the uninterrupted run's.
  const auto trials = make_trials(5);

  Artifacts reference("repeat_ref");
  {
    auto chip = fresh_chip();
    auto config = base_config(reference, 1, /*fsync_every=*/1);
    CampaignRunner campaign(chip, config);
    ASSERT_FALSE(campaign.run(trials).aborted);
  }

  Artifacts artifacts("repeat_crash");
  bool done = false;
  int incarnations = 0;
  for (; incarnations < 100 && !done; ++incarnations) {
    auto chip = fresh_chip();
    auto config = base_config(artifacts, 1, /*fsync_every=*/1);
    config.resume = incarnations > 0;
    fault::StoreFaultConfig crash;
    crash.crash_at_write = 9;  // power loss every 9 writes, forever
    config.store = std::make_shared<fault::FaultyStore>(
        util::default_store(), 31 + static_cast<std::uint64_t>(incarnations),
        crash);
    CampaignRunner campaign(chip, config);
    try {
      done = !campaign.run(trials).aborted;
    } catch (const fault::StoreCrashError&) {
    }
  }
  ASSERT_TRUE(done) << "no convergence after " << incarnations
                    << " incarnations";
  EXPECT_GT(incarnations, 1);  // the loop actually crashed at least once
  EXPECT_EQ(slurp(artifacts.csv), slurp(reference.csv));
  EXPECT_EQ(slurp(artifacts.jsonl), slurp(reference.jsonl));
}

TEST(CrashConsistency, MidFileCorruptionIsQuarantinedAndRemeasured) {
  const auto trials = make_trials(4);

  Artifacts reference("corrupt_ref");
  {
    auto chip = fresh_chip();
    auto config = base_config(reference);
    CampaignRunner campaign(chip, config);
    ASSERT_FALSE(campaign.run(trials).aborted);
  }

  Artifacts artifacts("corrupt");
  {
    auto chip = fresh_chip();
    auto config = base_config(artifacts);
    CampaignRunner campaign(chip, config);
    ASSERT_FALSE(campaign.run(trials).aborted);
  }
  // Bit-rot the SECOND data row's payload on disk (CRC now mismatches).
  auto text = slurp(artifacts.csv);
  auto at = text.find('\n');              // end of header
  at = text.find('\n', at + 1);           // end of row 1
  const auto flip_at = at + 1 + trials[1].key.size() + 1;  // first payload byte
  text[flip_at] = text[flip_at] == '9' ? '8' : '9';
  util::default_store()->atomic_replace(artifacts.csv, text);

  auto chip = fresh_chip();
  auto config = base_config(artifacts);
  config.resume = true;
  CampaignRunner campaign(chip, config);
  const auto report = campaign.run(trials);
  EXPECT_FALSE(report.aborted);
  // The damaged row was detected, surfaced, and its trial re-measured —
  // never silently re-used.
  EXPECT_EQ(report.checkpoint_corrupt_rows, 1u);
  ASSERT_EQ(report.checkpoint_corrupt_keys.size(), 1u);
  EXPECT_EQ(report.checkpoint_corrupt_keys[0], trials[1].key);
  EXPECT_EQ(report.resumed, trials.size() - 1);
  EXPECT_EQ(report.completed, 1u);
  // The re-measured row lands at the end (the hole is not preserved), but
  // its bytes — payload and CRC — are identical to the uninterrupted
  // run's, and every trial has exactly one row.
  const auto final_csv = slurp(artifacts.csv);
  const auto ref_csv = slurp(reference.csv);
  auto line_of = [](const std::string& csv_text, const std::string& key) {
    const auto begin = csv_text.find("\n" + key + ",") + 1;
    return csv_text.substr(begin, csv_text.find('\n', begin) - begin);
  };
  for (const auto& trial : trials) {
    EXPECT_EQ(line_of(final_csv, trial.key), line_of(ref_csv, trial.key));
  }
  // The quarantine is on the record in the journal.
  EXPECT_NE(slurp(artifacts.jsonl).find("checkpoint-quarantine"),
            std::string::npos);
}

TEST(CrashConsistency, ManifestRefusesMismatchedResume) {
  const auto trials = make_trials(3);
  Artifacts artifacts("mismatch");
  {
    auto chip = fresh_chip();
    auto config = base_config(artifacts);
    config.stop_after_trials = 2;
    CampaignRunner campaign(chip, config);
    ASSERT_TRUE(campaign.run(trials).aborted);  // stopped, resumable
  }

  const auto expect_mismatch = [&](RunnerConfig config,
                                   const std::vector<CampaignRunner::Trial>&
                                       resume_trials,
                                   const std::string& needle) {
    auto chip = fresh_chip();
    config.resume = true;
    CampaignRunner campaign(chip, config);
    try {
      (void)campaign.run(resume_trials);
      FAIL() << "expected CheckpointMismatchError (" << needle << ")";
    } catch (const CheckpointMismatchError& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find(artifacts.csv), std::string::npos) << what;
      EXPECT_NE(what.find(needle), std::string::npos) << what;
    }
  };

  {  // Different fault seed: the rows were drawn under another plan.
    auto config = base_config(artifacts);
    config.faults.seed = 999;
    expect_mismatch(config, trials, "seed");
  }
  {  // Different trial list.
    expect_mismatch(base_config(artifacts), make_trials(5), "trial");
  }
  {  // Different column set (header digest).
    auto config = base_config(artifacts);
    config.result_columns = {"flips"};
    expect_mismatch(config, trials, "header");
  }
  {  // The same config still resumes fine.
    auto chip = fresh_chip();
    auto config = base_config(artifacts);
    config.resume = true;
    CampaignRunner campaign(chip, config);
    EXPECT_FALSE(campaign.run(trials).aborted);
  }
}

TEST(CrashConsistency, DurableModeFsyncsAtCommitBoundaries) {
  // Contract check for the opt-in durable mode: fsync-every-N actually
  // syncs (journal before checkpoint) and a plain run never does.
  const auto trials = make_trials(4);
  Artifacts artifacts("durable");

  auto run_with = [&](std::uint64_t fsync_every) {
    artifacts.reset();
    auto chip = fresh_chip();
    auto config = base_config(artifacts, 1, fsync_every);
    auto store = std::make_shared<fault::FaultyStore>(
        util::default_store(), 0, fault::StoreFaultConfig{});
    config.store = store;
    CampaignRunner campaign(chip, config);
    EXPECT_FALSE(campaign.run(trials).aborted);
    return store->stats();
  };

  const auto lazy = run_with(0);
  EXPECT_EQ(lazy.fsyncs, 1u);  // only the manifest's atomic_replace
  const auto durable = run_with(2);
  // Two files per durability point: 4 trials / every-2 = 2 points, plus
  // the end-of-campaign sync and the manifest.
  EXPECT_GE(durable.fsyncs, 1u + 2u * 3u);
}

}  // namespace
}  // namespace hbmrd::runner
