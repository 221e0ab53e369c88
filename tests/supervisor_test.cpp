// Process-isolated sharded campaigns: supervisor, shard handoff, merge.
//
// The contract under test is the same byte-identity the in-process runner
// guarantees, extended across process boundaries: for any shard count and
// any injected failure schedule — worker crashes mid-commit, wedged
// workers reaped by the hang watchdog, heartbeat loss, repeated crashes
// quarantining a shard, a kill in the middle of the merge itself — the
// supervised campaign's merged CSV checkpoint and JSONL journal are the
// exact bytes the uninterrupted `--jobs 1` run produces.
#include "runner/supervisor.h"

#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <csignal>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "bender/platform.h"
#include "runner/checkpoint.h"
#include "runner/fsck.h"
#include "runner/merge.h"
#include "runner/shard.h"
#include "util/store.h"

namespace hbmrd::runner {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + "supervisor_test_" + name;
}

/// Chip 2: ambient, identity row mapping, no documented TRR.
bender::HbmChip fresh_chip() {
  return bender::HbmChip(dram::chip_profiles()[2]);
}

const std::vector<std::string> kColumns = {"flips", "victim_byte"};

/// Self-initializing double-sided hammer trials (as runner_test.cpp), with
/// an optional per-trial wall-clock delay from `slow_from` onward so work
/// stealing has a straggler to steal from.
std::vector<CampaignRunner::Trial> make_trials(int n, int slow_from = -1,
                                               int slow_ms = 0) {
  std::vector<CampaignRunner::Trial> trials;
  for (int t = 0; t < n; ++t) {
    const int row = 64 + 8 * t;
    const auto pattern = static_cast<std::uint8_t>(0x40 + t);
    const bool slow = slow_from >= 0 && t >= slow_from;
    trials.push_back(
        {"row" + std::to_string(row),
         [row, pattern, slow, slow_ms](bender::ChipSession& session)
             -> std::vector<std::string> {
           if (slow) {
             std::this_thread::sleep_for(std::chrono::milliseconds(slow_ms));
           }
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

RunnerConfig base_config(const std::string& tag) {
  RunnerConfig config;
  config.result_columns = kColumns;
  config.results_path = tmp_path(tag + ".csv");
  config.journal_path = tmp_path(tag + ".jsonl");
  config.guard.enabled = false;
  return config;
}

void clear_artifacts(const RunnerConfig& config, std::uint64_t max_shards) {
  auto store = util::default_store();
  for (const auto& base : {config.results_path, config.journal_path}) {
    store->remove(base);
    store->remove(base + ".manifest");
    store->remove(base + ".quarantine");
    for (std::uint64_t id = 0; id < max_shards + 8; ++id) {
      store->remove(shard_artifact_path(base, id));
      store->remove(shard_artifact_path(base, id) + ".manifest");
      store->remove(shard_artifact_path(base, id) + ".quarantine");
      store->remove(shard_artifact_path(base, id) + ".log");
    }
  }
  store->remove(shard_index_path(config.results_path));
}

/// The uninterrupted single-process `--jobs 1` run: the golden bytes.
struct Golden {
  std::string csv;
  std::string journal;
};

Golden golden_run(const std::string& tag,
                  const std::vector<CampaignRunner::Trial>& trials,
                  const fault::FaultPlanConfig& faults = {}) {
  auto config = base_config(tag);
  config.faults = faults;
  config.faults.worker = {};  // worker faults fire in shard mode only
  clear_artifacts(config, 0);
  auto chip = fresh_chip();
  CampaignRunner campaign(chip, config);
  const auto report = campaign.run(trials);
  EXPECT_FALSE(report.aborted);
  return {slurp(config.results_path), slurp(config.journal_path)};
}

/// Supervised run; quick watchdog/backoff so injected hangs
/// cost tenths of a second, not the production 30 s deadline.
SupervisorConfig quick_supervision(std::uint64_t shards) {
  SupervisorConfig config;
  config.shards = shards;
  config.hang_timeout_s = 1.0;
  config.restart_backoff = {5, 0.02, 0.1};
  return config;
}

const std::uint64_t kShardCounts[] = {1, 2, 4};

TEST(ShardSetTest, SerializeParseRoundtrip) {
  ShardSet set;
  set.trial_count = 12;
  set.shards = {{0, 0, 5, ShardSpec::Status::kDone},
                {1, 5, 9, ShardSpec::Status::kPending},
                {2, 9, 12, ShardSpec::Status::kQuarantined}};
  const auto text = set.serialize();
  const auto parsed = ShardSet::parse(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->trial_count, 12u);
  ASSERT_EQ(parsed->shards.size(), 3u);
  EXPECT_EQ(parsed->shards[1].lo, 5u);
  EXPECT_EQ(parsed->shards[1].hi, 9u);
  EXPECT_EQ(parsed->shards[0].status, ShardSpec::Status::kDone);
  EXPECT_EQ(parsed->shards[2].status, ShardSpec::Status::kQuarantined);
}

TEST(ShardSetTest, CorruptIndexRejected) {
  ShardSet set;
  set.trial_count = 4;
  set.shards = {{0, 0, 4, ShardSpec::Status::kPending}};
  auto text = set.serialize();
  EXPECT_FALSE(ShardSet::parse("").has_value());
  EXPECT_FALSE(ShardSet::parse("not a shard index\n").has_value());
  // Flip one digit inside a sealed line: the CRC must catch it.
  const auto pos = text.find("shard,0,0,4");
  ASSERT_NE(pos, std::string::npos);
  text[pos + 8] = '1';
  EXPECT_FALSE(ShardSet::parse(text).has_value());
  // Shard-count mismatch between header and lines.
  auto truncated = set.serialize();
  truncated.resize(truncated.find('\n') + 1);
  EXPECT_FALSE(ShardSet::parse(truncated).has_value());
}

TEST(SupervisorTest, CleanShardedRunMatchesSerial) {
  reset_graceful_stop();
  const auto trials = make_trials(12);
  const auto golden = golden_run("clean_golden", trials);
  for (const auto shards : kShardCounts) {
    auto config = base_config("clean_s" + std::to_string(shards));
    clear_artifacts(config, shards);
    // Stealing decides from wall-clock timing and would add spawns under
    // load; WorkStealingSplitsTheStraggler covers it.
    auto supervision = quick_supervision(shards);
    supervision.work_stealing = false;
    auto chip = fresh_chip();
    Supervisor supervisor(chip, config, supervision);
    const auto report = supervisor.run(trials);
    ASSERT_FALSE(report.campaign.aborted) << report.campaign.abort_reason;
    EXPECT_EQ(report.spawns, shards);
    EXPECT_EQ(report.crashes, 0u);
    EXPECT_EQ(report.campaign.completed, 12u);
    EXPECT_EQ(slurp(config.results_path), golden.csv) << shards << " shards";
    EXPECT_EQ(slurp(config.journal_path), golden.journal)
        << shards << " shards";
    // Every forked worker's stdout/stderr goes to its shard log.
    for (std::uint64_t id = 0; id < shards; ++id) {
      const auto log = shard_artifact_path(config.results_path, id) + ".log";
      EXPECT_TRUE(util::default_store()->read(log).has_value()) << log;
    }
  }
}

TEST(SupervisorTest, CrashInCommitRecoversByteIdentical) {
  reset_graceful_stop();
  const auto trials = make_trials(12);
  const auto golden = golden_run("crash_golden", trials);
  for (const auto shards : kShardCounts) {
    auto config = base_config("crash_s" + std::to_string(shards));
    // SIGKILL inside trial 5's commit, after the journal flush and before
    // the CSV row: the widest window the write-ahead discipline allows.
    config.faults.worker.crash_at_trial = 5;
    clear_artifacts(config, shards);
    auto chip = fresh_chip();
    Supervisor supervisor(chip, config, quick_supervision(shards));
    const auto report = supervisor.run(trials);
    ASSERT_FALSE(report.campaign.aborted) << report.campaign.abort_reason;
    EXPECT_GE(report.crashes, 1u);
    EXPECT_GE(report.restarts, 1u);
    EXPECT_GT(report.spawns, shards);
    EXPECT_EQ(slurp(config.results_path), golden.csv) << shards << " shards";
    EXPECT_EQ(slurp(config.journal_path), golden.journal)
        << shards << " shards";
  }
}

TEST(SupervisorTest, HangIsWatchdogKilledAndResumed) {
  reset_graceful_stop();
  const auto trials = make_trials(12);
  const auto golden = golden_run("hang_golden", trials);
  for (const auto shards : kShardCounts) {
    auto config = base_config("hang_s" + std::to_string(shards));
    config.faults.worker.hang_at_trial = 7;  // wedge before trial 7
    clear_artifacts(config, shards);
    auto chip = fresh_chip();
    Supervisor supervisor(chip, config, quick_supervision(shards));
    const auto report = supervisor.run(trials);
    ASSERT_FALSE(report.campaign.aborted) << report.campaign.abort_reason;
    EXPECT_GE(report.hangs_killed, 1u);
    EXPECT_GE(report.crashes, 1u);  // a SIGKILLed worker is a crash
    EXPECT_EQ(slurp(config.results_path), golden.csv) << shards << " shards";
    EXPECT_EQ(slurp(config.journal_path), golden.journal)
        << shards << " shards";
  }
}

TEST(SupervisorTest, HeartbeatDropIsReapedNotTrusted) {
  reset_graceful_stop();
  const auto trials = make_trials(12);
  const auto golden = golden_run("drop_golden", trials);
  for (const auto shards : kShardCounts) {
    auto config = base_config("drop_s" + std::to_string(shards));
    // The worker keeps committing but goes silent after 4 trials — and
    // wedges instead of exiting, so only the watchdog can end it. Its
    // committed rows must survive the handoff.
    config.faults.worker.drop_heartbeats_after = 4;
    clear_artifacts(config, shards);
    auto chip = fresh_chip();
    Supervisor supervisor(chip, config, quick_supervision(shards));
    const auto report = supervisor.run(trials);
    ASSERT_FALSE(report.campaign.aborted) << report.campaign.abort_reason;
    EXPECT_GE(report.hangs_killed, 1u);
    EXPECT_EQ(slurp(config.results_path), golden.csv) << shards << " shards";
    EXPECT_EQ(slurp(config.journal_path), golden.journal)
        << shards << " shards";
  }
}

TEST(SupervisorTest, RepeatedCrashQuarantinesThenOperatorResumeClears) {
  reset_graceful_stop();
  const auto trials = make_trials(8);
  const auto golden = golden_run("quarantine_golden", trials);
  auto config = base_config("quarantine");
  // The crash refires for every incarnation: no progress is ever made on
  // the shard owning trial 2, so the supervisor must quarantine it.
  config.faults.worker.crash_at_trial = 2;
  config.faults.worker.repeat_incarnations = 99;
  clear_artifacts(config, 2);
  auto supervision = quick_supervision(2);
  supervision.max_restarts = 2;
  {
    auto chip = fresh_chip();
    Supervisor supervisor(chip, config, supervision);
    const auto report = supervisor.run(trials);
    EXPECT_TRUE(report.campaign.aborted);
    EXPECT_EQ(report.campaign.abort_reason, "shard-quarantined");
    EXPECT_EQ(report.shards_quarantined, 1u);
    ASSERT_EQ(report.quarantined_shards.size(), 1u);
    // No canonical artifacts: the merge refuses an incomplete campaign.
    MergeOptions merge;
    merge.results_path = config.results_path;
    merge.journal_path = config.journal_path;
    EXPECT_FALSE(merge_shards(merge).ok);
  }
  // Operator resume: the quarantined shard gets a fresh failure budget;
  // with the fault schedule cleared the campaign completes and the merged
  // bytes are the uninterrupted run's.
  config.faults.worker = {};
  config.resume = true;
  auto chip = fresh_chip();
  Supervisor supervisor(chip, config, supervision);
  const auto report = supervisor.run(trials);
  ASSERT_FALSE(report.campaign.aborted) << report.campaign.abort_reason;
  EXPECT_EQ(slurp(config.results_path), golden.csv);
  EXPECT_EQ(slurp(config.journal_path), golden.journal);
}

/// Delegating store that fails the first atomic_replace of one path —
/// the supervisor dying in the middle of publishing the merge.
class MergeCrashStore : public util::Store {
 public:
  MergeCrashStore(std::shared_ptr<util::Store> base, std::string fail_path)
      : base_(std::move(base)), fail_path_(std::move(fail_path)) {}

  std::unique_ptr<File> open(const std::string& path,
                             bool truncate) override {
    return base_->open(path, truncate);
  }
  std::optional<std::string> read(const std::string& path) override {
    return base_->read(path);
  }
  void atomic_replace(const std::string& path,
                      std::string_view content) override {
    if (path == fail_path_ && !fired_) {
      fired_ = true;
      throw util::StoreError("atomic_replace", path, "injected merge kill");
    }
    base_->atomic_replace(path, content);
  }
  void truncate(const std::string& path, std::uint64_t size) override {
    base_->truncate(path, size);
  }
  bool remove(const std::string& path) override {
    return base_->remove(path);
  }
  [[nodiscard]] bool fired() const { return fired_; }

 private:
  std::shared_ptr<util::Store> base_;
  std::string fail_path_;
  bool fired_ = false;
};

TEST(SupervisorTest, KillDuringMergeIsRerunnable) {
  reset_graceful_stop();
  const auto trials = make_trials(8);
  const auto golden = golden_run("mergekill_golden", trials);
  for (const auto shards : kShardCounts) {
    auto config = base_config("mergekill_s" + std::to_string(shards));
    clear_artifacts(config, shards);
    // Die after the canonical CSV lands but before the journal does: the
    // nastiest partial-merge state.
    auto store = std::make_shared<MergeCrashStore>(util::default_store(),
                                                   config.journal_path);
    config.store = store;
    auto chip = fresh_chip();
    Supervisor supervisor(chip, config, quick_supervision(shards));
    EXPECT_THROW((void)supervisor.run(trials), util::StoreError);
    EXPECT_TRUE(store->fired());
    // The merge is idempotent over untouched shard stores: rerunning it
    // (what `campaign_fsck --merge-shards` does) produces the golden
    // bytes, and rerunning it again changes nothing.
    MergeOptions merge;
    merge.results_path = config.results_path;
    merge.journal_path = config.journal_path;
    for (int attempt = 0; attempt < 2; ++attempt) {
      const auto merged = merge_shards(merge);
      ASSERT_TRUE(merged.ok) << (merged.issues.empty()
                                     ? "no issues"
                                     : merged.issues.front().what);
      EXPECT_EQ(slurp(config.results_path), golden.csv)
          << shards << " shards";
      EXPECT_EQ(slurp(config.journal_path), golden.journal)
          << shards << " shards";
    }
  }
}

TEST(MergeTest, ManifestIsTheUnshardedRunsWhateverTheShardIncarnations) {
  // Shard manifests count their worker's restarts, which depend on crash
  // and steal timing; the merged manifest must not.
  reset_graceful_stop();
  const auto trials = make_trials(6);
  auto golden_config = base_config("merge_manifest_golden");
  (void)golden_run("merge_manifest_golden", trials);
  const auto golden_manifest =
      slurp(Manifest::path_for(golden_config.results_path));

  auto config = base_config("merge_manifest");
  clear_artifacts(config, 2);
  ShardSet set;
  set.trial_count = trials.size();
  const auto run_shard = [&](std::uint64_t id, bool resume) {
    ShardAssignment assignment;
    assignment.results_path = shard_artifact_path(config.results_path, id);
    assignment.journal_path = shard_artifact_path(config.journal_path, id);
    assignment.resume = resume;
    assignment.lo = 3 * id;
    assignment.hi = 3 * id + 3;
    auto chip = fresh_chip();
    EXPECT_EQ(run_shard_worker(chip, config, trials, assignment),
              shard_exit::kComplete);
  };
  for (std::uint64_t id = 0; id < 2; ++id) {
    run_shard(id, /*resume=*/false);
    set.shards.push_back({id, 3 * id, 3 * id + 3, ShardSpec::Status::kDone});
  }
  util::default_store()->atomic_replace(
      shard_index_path(config.results_path), set.serialize());

  MergeOptions merge;
  merge.results_path = config.results_path;
  merge.journal_path = config.journal_path;
  ASSERT_TRUE(merge_shards(merge).ok);
  const auto merged_manifest = slurp(Manifest::path_for(config.results_path));
  EXPECT_EQ(merged_manifest, golden_manifest);

  // A second incarnation of shard 1 (a restart that found it complete)
  // changes only its manifest's incarnation count.
  const auto shard1_manifest =
      Manifest::path_for(shard_artifact_path(config.results_path, 1));
  const auto before = Manifest::parse(slurp(shard1_manifest));
  run_shard(1, /*resume=*/true);
  const auto after = Manifest::parse(slurp(shard1_manifest));
  ASSERT_TRUE(before && after);
  EXPECT_EQ(after->incarnations, before->incarnations + 1);
  ASSERT_TRUE(merge_shards(merge).ok);
  EXPECT_EQ(slurp(Manifest::path_for(config.results_path)), merged_manifest);
}

TEST(SupervisorTest, WorkStealingSplitsTheStraggler) {
  reset_graceful_stop();
  // First half instant, second half 150 ms of wall clock per trial: shard
  // 0 finishes immediately and must steal from the straggling shard 1.
  const auto trials = make_trials(12, /*slow_from=*/6, /*slow_ms=*/150);
  const auto golden = golden_run("steal_golden", trials);
  auto config = base_config("steal");
  clear_artifacts(config, 2);
  auto supervision = quick_supervision(2);
  supervision.steal_min_remaining = 3;
  auto chip = fresh_chip();
  Supervisor supervisor(chip, config, supervision);
  const auto report = supervisor.run(trials);
  ASSERT_FALSE(report.campaign.aborted) << report.campaign.abort_reason;
  EXPECT_GE(report.shards_stolen, 1u);
  EXPECT_GT(report.final_shards, 2u);
  EXPECT_EQ(slurp(config.results_path), golden.csv);
  EXPECT_EQ(slurp(config.journal_path), golden.journal);
}

TEST(GracefulStopTest, SigtermStopsAtCommitBoundaryAndResumes) {
  // Satellite regression: a campaign bench receiving SIGTERM must
  // checkpoint-flush and stop — no torn tail — and --resume must then
  // reproduce the uninterrupted bytes.
  reset_graceful_stop();
  const auto trials = make_trials(10);
  const auto golden = golden_run("sigterm_golden", trials);

  auto config = base_config("sigterm");
  clear_artifacts(config, 0);
  auto interrupted = trials;
  // The signal lands mid-campaign, from trial 4's body — exactly what an
  // operator's kill(1) during a sweep looks like to the process.
  interrupted[3].body = [base = trials[3].body](bender::ChipSession& s) {
    install_graceful_stop();
    std::raise(SIGTERM);
    return base(s);
  };
  {
    auto chip = fresh_chip();
    CampaignRunner campaign(chip, config);
    const auto report = campaign.run(interrupted);
    EXPECT_TRUE(report.aborted);
    EXPECT_EQ(report.abort_reason, "signal");
    EXPECT_LT(report.completed, 10u);
  }
  // The stopped artifacts are clean: fsck finds nothing to repair.
  FsckOptions fsck;
  fsck.results_path = config.results_path;
  fsck.journal_path = config.journal_path;
  EXPECT_TRUE(campaign_fsck(fsck).clean());

  reset_graceful_stop();
  config.resume = true;
  auto chip = fresh_chip();
  CampaignRunner campaign(chip, config);
  const auto report = campaign.run(trials);
  EXPECT_FALSE(report.aborted);
  EXPECT_EQ(slurp(config.results_path), golden.csv);
  EXPECT_EQ(slurp(config.journal_path), golden.journal);
}

}  // namespace
}  // namespace hbmrd::runner
