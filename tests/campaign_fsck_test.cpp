// campaign_fsck: offline verification and repair of campaign artifacts.
//
// The verifier must replay exactly the checks a resume applies — record
// CRCs, manifest digests, the row/journal-block cross-replay — so a clean
// fsck certifies the pair is safe to resume. Repair rewrites down to the
// trusted state and keeps every distrusted byte in a quarantine sidecar.
#include "runner/fsck.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bender/platform.h"
#include "fault/faulty_store.h"
#include "runner/runner.h"
#include "scratch.h"
#include "util/crc32c.h"
#include "util/csv.h"

namespace hbmrd::runner {
namespace {

struct Artifacts {
  std::string csv;
  std::string jsonl;

  explicit Artifacts(const std::string& tag)
      : csv(scratch_path(tag + ".csv")), jsonl(scratch_path(tag + ".jsonl")) {
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

/// A small real campaign producing a checkpoint + journal pair.
void run_campaign(const Artifacts& artifacts, int n_trials = 4,
                  bool resume = false,
                  std::shared_ptr<util::Store> store = nullptr) {
  std::vector<CampaignRunner::Trial> trials;
  for (int t = 0; t < n_trials; ++t) {
    std::string key = "t";
    key += std::to_string(t);
    trials.push_back({std::move(key),
                      [t](bender::ChipSession&) -> std::vector<std::string> {
                        return {std::to_string(10 * t)};
                      }});
  }
  bender::HbmChip chip(dram::chip_profiles()[2]);
  RunnerConfig config;
  config.result_columns = {"value"};
  config.results_path = artifacts.csv;
  config.journal_path = artifacts.jsonl;
  config.resume = resume;
  config.store = std::move(store);
  CampaignRunner campaign(chip, config);
  const auto report = campaign.run(trials);
  if (store == nullptr) {
    ASSERT_FALSE(report.aborted);
  }
}

FsckReport fsck(const Artifacts& artifacts, bool repair = false) {
  FsckOptions options;
  options.results_path = artifacts.csv;
  options.journal_path = artifacts.jsonl;
  options.repair = repair;
  return campaign_fsck(options);
}

std::string slurp(const std::string& path) {
  return util::default_store()->read(path).value_or("");
}

TEST(CampaignFsck, CleanArtifactsPassEveryCheck) {
  Artifacts artifacts("clean");
  run_campaign(artifacts);
  const auto report = fsck(artifacts);
  EXPECT_TRUE(report.clean()) << (report.issues.empty()
                                      ? "?"
                                      : report.issues.front().what);
  EXPECT_EQ(report.checkpoint_rows, 4u);
  EXPECT_EQ(report.trusted_rows, 4u);
  EXPECT_GT(report.journal_lines, 4u);  // begin + per-trial blocks + end
  EXPECT_FALSE(report.repaired);
}

TEST(CampaignFsck, RecoveredCrashPairIsClean) {
  // Acceptance: after a simulated power cut and a resume, fsck finds the
  // recovered pair clean.
  Artifacts artifacts("recovered");
  fault::StoreFaultConfig crash;
  crash.crash_at_write = 6;
  EXPECT_THROW(run_campaign(artifacts, 4, false,
                            std::make_shared<fault::FaultyStore>(
                                util::default_store(), 17, crash)),
               fault::StoreCrashError);
  run_campaign(artifacts, 4, /*resume=*/true);
  const auto report = fsck(artifacts);
  EXPECT_TRUE(report.clean()) << (report.issues.empty()
                                      ? "?"
                                      : report.issues.front().what);
  EXPECT_EQ(report.trusted_rows, 4u);
}

TEST(CampaignFsck, MissingCheckpointIsFatal) {
  Artifacts artifacts("missing");
  const auto report = fsck(artifacts);
  EXPECT_TRUE(report.fatal);
  EXPECT_FALSE(report.clean());
}

TEST(CampaignFsck, ForeignCsvIsFatalNotRepaired) {
  Artifacts artifacts("foreign");
  util::default_store()->atomic_replace(artifacts.csv,
                                        "time,voltage\n1,3.3\n");
  const auto report = fsck(artifacts, /*repair=*/true);
  EXPECT_TRUE(report.fatal);
  EXPECT_FALSE(report.repaired);
  // Repair refused: the file is untouched.
  EXPECT_EQ(slurp(artifacts.csv), "time,voltage\n1,3.3\n");
}

TEST(CampaignFsck, TornTailIsReportedAndRepairedIntoSidecar) {
  Artifacts artifacts("torn");
  run_campaign(artifacts);
  const auto whole = slurp(artifacts.csv);
  util::default_store()->atomic_replace(artifacts.csv,
                                        whole.substr(0, whole.size() - 7));
  auto report = fsck(artifacts);
  EXPECT_FALSE(report.clean());
  EXPECT_EQ(report.checkpoint_rows, 3u);

  report = fsck(artifacts, /*repair=*/true);
  EXPECT_TRUE(report.repaired);
  // The torn bytes were preserved, not deleted.
  EXPECT_FALSE(slurp(artifacts.csv + ".quarantine").empty());
  // After repair the pair verifies clean (the dropped trial will rerun).
  const auto again = fsck(artifacts);
  EXPECT_TRUE(again.clean()) << (again.issues.empty()
                                     ? "?"
                                     : again.issues.front().what);
  EXPECT_EQ(again.trusted_rows, 3u);
}

TEST(CampaignFsck, CorruptMidFileRowIsQuarantinedByRepair) {
  Artifacts artifacts("rot");
  run_campaign(artifacts);
  auto text = slurp(artifacts.csv);
  const auto at = text.find("\nt1,") + 5;  // a payload byte of row t1
  text[at] = text[at] == '9' ? '8' : '9';
  util::default_store()->atomic_replace(artifacts.csv, text);

  auto report = fsck(artifacts);
  ASSERT_FALSE(report.clean());
  EXPECT_NE(report.issues.front().what.find("CRC"), std::string::npos);

  report = fsck(artifacts, /*repair=*/true);
  EXPECT_TRUE(report.repaired);
  EXPECT_NE(slurp(artifacts.csv + ".quarantine").find("t1,"),
            std::string::npos);
  EXPECT_EQ(slurp(artifacts.csv).find("\nt1,"), std::string::npos);
  const auto again = fsck(artifacts);
  EXPECT_TRUE(again.clean()) << (again.issues.empty()
                                     ? "?"
                                     : again.issues.front().what);
}

TEST(CampaignFsck, CrossReplayCatchesFabricatedAndMislabeledRows) {
  Artifacts artifacts("replay");
  run_campaign(artifacts);
  const auto uninterrupted_csv = slurp(artifacts.csv);
  const auto uninterrupted_jsonl = slurp(artifacts.jsonl);

  // Fabricate a CRC-valid row for a trial the journal never finished, and
  // flip the last real row's status: both self-consistent, both lies.
  auto text = uninterrupted_csv;
  const auto begin = text.find("\nt3,ok,") + 1;
  const auto end = text.find('\n', begin);
  std::string mislabeled = "t3,quarantined,";
  std::string forged = "t9,ok,42";
  util::default_store()->atomic_replace(
      artifacts.csv,
      text.substr(0, begin) + mislabeled + "," +
          util::crc32c_hex(util::crc32c(mislabeled)) + "\n" +
          text.substr(end + 1) + forged + "," +
          util::crc32c_hex(util::crc32c(forged)) + "\n");

  const auto report = fsck(artifacts);
  EXPECT_FALSE(report.clean());
  bool saw_forged = false, saw_mislabeled = false;
  for (const auto& issue : report.issues) {
    if (issue.what.find("t9") != std::string::npos) saw_forged = true;
    if (issue.what.find("t3") != std::string::npos) saw_mislabeled = true;
  }
  EXPECT_TRUE(saw_forged);
  EXPECT_TRUE(saw_mislabeled);
  EXPECT_EQ(report.trusted_rows, 3u);  // t0, t1, t2

  // A resume trusts exactly what fsck trusts: both lies are dropped and t3
  // is re-measured, so the artifacts end as the uninterrupted run's bytes
  // and verify clean.
  run_campaign(artifacts, 4, /*resume=*/true);
  EXPECT_EQ(slurp(artifacts.csv), uninterrupted_csv);
  EXPECT_EQ(slurp(artifacts.jsonl), uninterrupted_jsonl);
  const auto again = fsck(artifacts);
  EXPECT_TRUE(again.clean()) << (again.issues.empty()
                                     ? "?"
                                     : again.issues.front().what);
}

}  // namespace
}  // namespace hbmrd::runner
