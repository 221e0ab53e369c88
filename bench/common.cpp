#include "common.h"

#include <cstdlib>
#include <iomanip>
#include <limits>
#include <sstream>

#include "fault/faulty_store.h"
#include "runner/checkpoint.h"
#include "runner/merge.h"
#include "serve/export.h"
#include "util/store.h"

namespace hbmrd::bench {

namespace {

constexpr const char* kHelpText = R"(Shared flags (every harness):
  --help             print this help and exit
  --full             run at paper scale (default: scaled down)
  --rows N           override the row-count knob
  --chip N           restrict the sweep to one chip
  --channels N       limit the sweep width
  --seed N           platform seed (silicon lottery)
  --trust-map        trust the profile's address map (skip probing)
  --csv DIR          stream raw data series to DIR/<name>.csv

Campaign flags (harnesses built on the resilient runner):
  --jobs N           worker threads; output is byte-identical for any N
  --results FILE     checkpointed results CSV (resumable)
  --journal FILE     JSONL fault/retry journal
  --resume           skip trials already committed in --results
  --stop-after N     checkpoint + stop after N trials (kill point)
  --fault-rate R     per-attempt transient-fault probability
  --thermal-rate R   per-trial thermal-excursion probability
  --persistent-rate R  per-trial persistent-fault probability
  --fatal-rate R     per-trial host-crash probability
  --fault-seed N     fault plan seed (decoupled from --seed)
  --no-guard         disable the temperature guard band
  --export-index F   after a successful run, export the campaign's
                     results CSV into a .hbmidx query index at F
                     (docs/SERVING.md); with --shards the export runs
                     from the supervisor's post-merge hook

Sharded campaign flags (process supervision; see docs/RESILIENCE.md):
  --shards N         run the campaign as N supervised worker processes;
                     the merged artifacts are byte-identical to --shards 1
  --hang-timeout S   SIGKILL a worker silent for S wall seconds (def. 30)
  --max-restarts N   quarantine a shard after N consecutive no-progress
                     failures (default 5)
  --worker-crash-trial K    inject: worker SIGKILLs itself inside trial
                            K's commit (after the journal flush)
  --worker-hang-trial K     inject: worker wedges before trial K
  --worker-heartbeat-drop K inject: worker stops heartbeating after K
                            trials (the watchdog must reap it)
  --worker-crash-repeats N  injected worker faults fire for the first N
                            incarnations of the shard (default 1)

Storage flags (campaign persistence; see docs/RESILIENCE.md):
  --durable-every N  fsync journal + checkpoint every N committed trials
  --store-fault-rate R   per-write probability of an injected I/O error
                         (EIO/ENOSPC/short write)
  --store-crash-write N  simulate power loss at the Nth write operation
  --store-crash-fsync N  simulate power loss at the Nth fsync operation

Observability flags (see docs/OBSERVABILITY.md):
  --metrics-out FILE JSON metrics + span snapshot, written atomically at
                     exit; deterministic counters are byte-equal for any
                     --jobs N
  --progress         rate-limited live progress line on stderr
)";

/// Exits 2 with a one-line message unless flag `name`, when given, is an
/// integer in [lo, hi).
void require_flag_in_range(const util::Cli& cli, const std::string& name,
                           std::int64_t lo, std::int64_t hi) {
  if (!cli.has(name)) return;
  try {
    const auto value = cli.get_int(name, lo);
    if (value >= lo && value < hi) return;
    std::cerr << "error: " << name << " " << value << " is out of range ("
              << (hi == std::numeric_limits<std::int64_t>::max()
                      ? "expects >= " + std::to_string(lo)
                      : "expects " + std::to_string(lo) + ".." +
                            std::to_string(hi - 1))
              << ")\n";
  } catch (const std::invalid_argument& error) {
    std::cerr << "error: " << error.what() << "\n";
  }
  std::exit(2);
}

}  // namespace

BenchContext::BenchContext(int argc, char** argv, const std::string& title)
    : cli_(argc, argv),
      title_(title),
      platform_(static_cast<std::uint64_t>(cli_.get_int(
          "--seed", static_cast<std::int64_t>(dram::kDefaultPlatformSeed)))) {
  if (cli_.has("--help")) {
    std::cout << title_ << "\n\n" << kHelpText;
    std::exit(0);
  }
  constexpr auto kNoLimit = std::numeric_limits<std::int64_t>::max();
  require_flag_in_range(cli_, "--chip", 0, platform_.chip_count());
  require_flag_in_range(cli_, "--rows", 1, kNoLimit);
  require_flag_in_range(cli_, "--channels", 1, kNoLimit);
  maps_.resize(static_cast<std::size_t>(platform_.chip_count()));
  std::cout << "=====================================================\n"
            << title_ << "\n"
            << "=====================================================\n";
  if (!full()) {
    std::cout << "(scaled-down run; pass --full for paper scale, "
                 "--rows/--chip/--channels to adjust)\n";
  }
}

int BenchContext::rows(int scaled_default, int paper_scale) const {
  const int base = full() ? paper_scale : scaled_default;
  return static_cast<int>(cli_.get_int("--rows", base));
}

std::vector<int> BenchContext::chips() const {
  if (cli_.has("--chip")) {
    return {static_cast<int>(cli_.get_int("--chip", 0))};
  }
  std::vector<int> all;
  for (int i = 0; i < platform_.chip_count(); ++i) all.push_back(i);
  return all;
}

std::vector<int> BenchContext::channels(int scaled_default) const {
  const int count = full() ? dram::kChannels
                           : static_cast<int>(cli_.get_int(
                                 "--channels", scaled_default));
  std::vector<int> list;
  for (int ch = 0; ch < std::min(count, dram::kChannels); ++ch) {
    list.push_back(ch);
  }
  return list;
}

const study::AddressMap& BenchContext::map_of(int chip_index) {
  auto& slot = maps_[static_cast<std::size_t>(chip_index)];
  if (!slot) {
    auto& chip = platform_.chip(chip_index);
    if (cli_.has("--trust-map")) {
      slot = std::make_unique<study::AddressMap>(
          study::AddressMap::from_scheme(chip.profile().mapping));
    } else {
      slot = std::make_unique<study::AddressMap>(
          study::AddressMap::reverse_engineer(chip,
                                              dram::BankAddress{0, 0, 0}));
    }
  }
  return *slot;
}

std::unique_ptr<util::CsvWriter> BenchContext::csv(
    const std::string& name, std::vector<std::string> columns) const {
  const auto dir = cli_.get_string("--csv", "");
  if (dir.empty()) return nullptr;
  auto writer = std::make_unique<util::CsvWriter>(dir + "/" + name + ".csv",
                                                  std::move(columns));
  std::cout << "(writing raw series to " << writer->path() << ")\n";
  return writer;
}

void BenchContext::compare(const std::string& what, const std::string& paper,
                           const std::string& measured) {
  std::cout << "  " << what << ": paper " << paper << " | measured "
            << measured << "\n";
}

void BenchContext::banner(const std::string& section) const {
  util::print_banner(std::cout, section);
}

CampaignObservability::CampaignObservability(const util::Cli& cli)
    : metrics_out_(cli.get_string("--metrics-out", "")) {
  enabled_ = !metrics_out_.empty() || cli.has("--progress");
  if (cli.has("--progress")) {
    progress_ = std::make_unique<obs::ProgressReporter>();
  }
}

CampaignObservability::~CampaignObservability() {
  try {
    finish();
  } catch (...) {
    // A snapshot-write failure must not escape a destructor; the campaign
    // artifacts themselves are unaffected.
  }
}

void CampaignObservability::attach(runner::RunnerConfig& config) {
  if (!enabled_) return;
  config.metrics = &metrics_;
  config.trace = &trace_;
  config.progress = progress_.get();
}

void CampaignObservability::finish() {
  if (finished_) return;
  finished_ = true;
  if (progress_) progress_->finish();
  if (metrics_out_.empty()) return;
  metrics_.write_snapshot(*util::default_store(), metrics_out_, &trace_);
  std::cout << "(metrics snapshot written to " << metrics_out_ << ")\n";
}

runner::RunnerConfig campaign_config(const util::Cli& cli,
                                     std::vector<std::string> result_columns) {
  runner::RunnerConfig config;
  config.result_columns = std::move(result_columns);
  config.results_path = cli.get_string("--results", "");
  config.journal_path = cli.get_string("--journal", "");
  config.resume = cli.has("--resume");
  config.stop_after_trials =
      static_cast<std::uint64_t>(cli.get_int("--stop-after", 0));
  config.faults.transient_rate = cli.get_double("--fault-rate", 0.0);
  config.faults.thermal_rate = cli.get_double("--thermal-rate", 0.0);
  config.faults.persistent_rate = cli.get_double("--persistent-rate", 0.0);
  config.faults.fatal_rate = cli.get_double("--fatal-rate", 0.0);
  config.faults.seed = static_cast<std::uint64_t>(
      cli.get_int("--fault-seed",
                  static_cast<std::int64_t>(config.faults.seed)));
  config.guard_band = !cli.has("--no-guard");
  config.jobs = static_cast<int>(cli.get_int("--jobs", 1));
  config.fsync_every_trials =
      static_cast<std::uint64_t>(cli.get_int("--durable-every", 0));
  config.faults.store.write_error_rate =
      cli.get_double("--store-fault-rate", 0.0);
  config.faults.store.crash_at_write =
      static_cast<std::uint64_t>(cli.get_int("--store-crash-write", 0));
  config.faults.store.crash_at_fsync =
      static_cast<std::uint64_t>(cli.get_int("--store-crash-fsync", 0));
  config.faults.worker.crash_at_trial =
      static_cast<std::uint64_t>(cli.get_int("--worker-crash-trial", 0));
  config.faults.worker.hang_at_trial =
      static_cast<std::uint64_t>(cli.get_int("--worker-hang-trial", 0));
  config.faults.worker.drop_heartbeats_after =
      static_cast<std::uint64_t>(cli.get_int("--worker-heartbeat-drop", 0));
  config.faults.worker.repeat_incarnations =
      static_cast<std::uint64_t>(cli.get_int("--worker-crash-repeats", 1));
  return config;
}

namespace {

/// `--export-index F`: derive a .hbmidx query index (docs/SERVING.md)
/// from the campaign's committed results CSV. Rung-1 (HC_first) data
/// comes straight from the fig07-style columns; the index identity is
/// the harness's (--seed, --chip) pair.
void export_index_from_results(const util::Cli& cli,
                               const std::string& results_path) {
  const auto index_path = cli.get_string("--export-index", "");
  if (index_path.empty()) return;
  if (results_path.empty()) {
    std::cerr << "--export-index needs --results FILE\n";
    std::exit(2);
  }
  serve::ExportSpec spec;
  spec.platform_seed = static_cast<std::uint64_t>(cli.get_int(
      "--seed", static_cast<std::int64_t>(spec.platform_seed)));
  spec.chip_index = static_cast<std::uint32_t>(cli.get_int("--chip", 1));
  // Campaign CSVs carry HC_first only; one rung keeps records compact
  // (deeper hc_nth queries fall back to live simulation and are
  // recorded in the server's overlay).
  spec.hc_depth = 1;
  try {
    serve::IndexBuilder builder(serve::manifest_for(spec));
    const auto report = serve::export_campaign_csv(*util::default_store(),
                                                   results_path, builder);
    builder.write(*util::default_store(), index_path);
    std::cout << "export-index: " << index_path << " ("
              << report.rows_ingested << " row(s) ingested, "
              << report.rows_skipped << " skipped, "
              << builder.population_count() << " population(s))\n";
  } catch (const serve::IndexError& error) {
    std::cerr << "error: --export-index failed: " << error.what() << "\n";
    std::exit(2);
  }
}

/// Runs a campaign with the graceful-stop handler installed (SIGTERM /
/// SIGINT checkpoint-flush at the next commit boundary), turning storage
/// and configuration failures into a message and exit(2) instead of an
/// uncaught-exception backtrace.
template <typename Run>
runner::CampaignReport or_die(Run&& run) {
  try {
    runner::install_graceful_stop();
    return run();
  } catch (const runner::CheckpointMismatchError& error) {
    std::cerr << "error: " << error.what() << "\n";
  } catch (const runner::StoreError& error) {
    std::cerr << "error: campaign storage failed: " << error.what()
              << "\n(committed state is intact; rerun with --resume once "
                 "the storage problem is fixed)\n";
  } catch (const fault::StoreCrashError& error) {
    // Simulated power loss (--store-crash-write/-fsync): the store is dead
    // and the artifacts are left exactly as torn as a real cut would leave
    // them — which is the point. Resume recovers them.
    std::cerr << "error: " << error.what()
              << "\n(artifacts left in their torn post-crash state; rerun "
                 "with --resume to recover)\n";
  }
  std::exit(2);
}

runner::CampaignReport run_supervised(
    const util::Cli& cli, runner::CampaignRunner& campaign,
    const std::vector<runner::CampaignRunner::Trial>& trials,
    std::uint64_t shards) {
  runner::SupervisorConfig config;
  config.shards = shards;
  config.hang_timeout_s = cli.get_double("--hang-timeout", 30.0);
  config.max_restarts = static_cast<int>(cli.get_int("--max-restarts", 5));
  // Export from the post-merge hook: the canonical CSV exists and just
  // passed the merge's completeness checks when this runs.
  const auto results_path = campaign.config().results_path;
  config.on_merged = [&cli, results_path](const runner::MergeReport&) {
    export_index_from_results(cli, results_path);
  };
  runner::Supervisor supervisor(campaign.chip(), campaign.config(), config);
  const auto report = supervisor.run(trials);
  print_supervisor_report(std::cout, report);
  return report.campaign;
}

}  // namespace

runner::CampaignReport run_campaign_or_die(
    BenchContext& ctx, runner::CampaignRunner& campaign,
    const std::vector<runner::CampaignRunner::Trial>& trials) {
  const auto& cli = ctx.cli();
  try {
    const auto shards =
        static_cast<std::uint64_t>(cli.get_int("--shards", 1));
    if (shards > 1) {
      return or_die([&] {
        return run_supervised(cli, campaign, trials, shards);
      });
    }
    const auto report = run_campaign_or_die(campaign, trials);
    if (!report.aborted) {
      export_index_from_results(cli, campaign.config().results_path);
    }
    return report;
  } catch (const std::invalid_argument& error) {
    std::cerr << "error: " << error.what() << "\n";
  }
  std::exit(2);
}

void print_supervisor_report(std::ostream& out,
                             const runner::SupervisorReport& report) {
  out << "Supervisor: " << report.shards << " shard(s) -> "
      << report.final_shards << " final, " << report.spawns << " spawn(s), "
      << report.restarts << " restart(s), " << report.crashes
      << " crash(es), " << report.hangs_killed << " hang(s) killed, "
      << report.shards_stolen << " stolen, " << report.shards_quarantined
      << " quarantined, " << report.worker_fsck_repairs
      << " fsck repair(s), " << report.heartbeats << " heartbeat(s)\n";
  for (const auto& shard : report.quarantined_shards) {
    out << "  quarantined: " << shard << "\n";
  }
}

runner::CampaignReport run_campaign_or_die(
    runner::CampaignRunner& campaign,
    const std::vector<runner::CampaignRunner::Trial>& trials) {
  return or_die([&] { return campaign.run(trials); });
}

void print_campaign_report(std::ostream& out,
                           const runner::CampaignReport& report,
                           const fault::FaultyChip::Stats& stats) {
  out << "Campaign: " << report.completed << " completed";
  if (report.resumed > 0) out << ", " << report.resumed << " resumed";
  out << ", " << report.quarantined << " quarantined, " << report.retries
      << " retries, " << stats.injected_total << " faults injected";
  if (stats.thermal_excursions > 0) {
    out << ", " << stats.thermal_excursions << " thermal excursions";
  }
  out << " (completion "
      << util::format_double(100.0 * report.completion_rate(), 2) << "%)\n";
  out << "  simulated campaign time "
      << util::format_double(report.campaign_seconds, 1) << " s ("
      << util::format_double(report.guard_wait_s, 1) << " s guard waits over "
      << report.guard_blocks << " blocks, "
      << util::format_double(report.backoff_wait_s, 1)
      << " s retry backoff)\n";
  if (report.checkpoint_corrupt_rows != 0 || report.checkpoint_rolled_back != 0 ||
      report.checkpoint_tail_truncated || report.checkpoint_header_rebuilt) {
    out << "  recovery:";
    if (report.checkpoint_tail_truncated) out << " torn tail truncated;";
    if (report.checkpoint_corrupt_rows != 0) {
      out << " " << report.checkpoint_corrupt_rows
          << " corrupt row(s) quarantined;";
    }
    if (report.checkpoint_rolled_back != 0) {
      out << " " << report.checkpoint_rolled_back
          << " row(s) rolled back (no matching journal block);";
    }
    if (report.checkpoint_header_rebuilt) out << " header rebuilt;";
    out << " re-running affected trials\n";
  }
  if (report.aborted) {
    out << "  ABORTED: " << report.abort_reason
        << " (checkpoint committed; rerun with --resume)\n";
  }
  for (const auto& key : report.quarantined_keys()) {
    out << "  quarantined: " << key << "\n";
  }
}

std::string ber_pct(double ber, int precision) {
  std::ostringstream out;
  out << std::fixed << std::setprecision(precision) << (100.0 * ber) << "%";
  return out.str();
}

}  // namespace hbmrd::bench
