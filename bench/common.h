// Shared scaffolding for the per-figure/per-table benchmark harnesses.
//
// Every harness reproduces one table or figure of the paper: it runs the
// corresponding experiment on the simulated testbed (scaled down by
// default; --full restores paper scale), prints the measured series next
// to the paper-reported reference values, and exits 0.
#pragma once

#include <initializer_list>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bender/platform.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "runner/runner.h"
#include "runner/supervisor.h"
#include "study/address_map.h"
#include "util/cli.h"
#include "util/csv.h"
#include "util/parse.h"
#include "util/stats.h"
#include "util/table.h"

namespace hbmrd::bench {

/// The shared flag groups, each declared in common.cpp next to the code
/// that reads it: BenchContext::csv (kCsvFlags), campaign_config
/// (kCampaignFlags), run_campaign_or_die(ctx, ...) (kShardFlags) and
/// CampaignObservability (kObservabilityFlags). A harness passes
/// BenchContext the groups it uses plus its own flags; the union is what
/// it accepts and what its --help prints.
extern const std::vector<util::Flag> kCsvFlags;
extern const std::vector<util::Flag> kCampaignFlags;
extern const std::vector<util::Flag> kShardFlags;
extern const std::vector<util::Flag> kObservabilityFlags;

class BenchContext {
 public:
  /// Parses argv against the base flags (--full, --rows, --chip,
  /// --channels, --seed, --trust-map) plus `groups`; a flag outside them
  /// exits 2, and --help prints the title and the table.
  BenchContext(int argc, char** argv, const std::string& title,
               std::initializer_list<std::vector<util::Flag>> groups = {});

  [[nodiscard]] bender::Platform& platform() { return platform_; }
  [[nodiscard]] const util::Cli& cli() const { return cli_; }

  /// True when --full was passed: run at paper scale.
  [[nodiscard]] bool full() const { return cli_.has("--full"); }

  /// Row-count knob: --rows overrides, --full selects the paper scale.
  [[nodiscard]] int rows(int scaled_default, int paper_scale) const;

  /// Chip-index list: --chip N restricts to one chip.
  [[nodiscard]] std::vector<int> chips() const;

  /// Channel list: --channels N limits the sweep width.
  [[nodiscard]] std::vector<int> channels(int scaled_default) const;

  /// The reverse-engineered address map of a chip (cached per chip; uses
  /// the probing procedure once, or trusts the profile with --trust-map).
  [[nodiscard]] const study::AddressMap& map_of(int chip_index);

  /// Prints a "paper reports X / measured Y" comparison line.
  void compare(const std::string& what, const std::string& paper,
               const std::string& measured);

  /// Opens `<dir>/<name>.csv` when the user passed --csv <dir> (a
  /// kCsvFlags harness); null otherwise. Benches stream their raw data
  /// series through this so the figures can be re-plotted externally.
  [[nodiscard]] std::unique_ptr<util::CsvWriter> csv(
      const std::string& name, std::vector<std::string> columns) const;

  void banner(const std::string& section) const;

 private:
  util::Cli cli_;
  std::string title_;
  bender::Platform platform_;
  std::vector<std::unique_ptr<study::AddressMap>> maps_;
};

/// Observability sinks for campaign harnesses (docs/OBSERVABILITY.md),
/// set by kObservabilityFlags: a JSON metrics + span snapshot (atomic
/// replace) and a rate-limited live progress line on stderr. Attach to
/// every RunnerConfig the harness builds — attaching changes no
/// committed CSV/journal byte. Deterministic counters accumulate across
/// every campaign the harness runs (e.g. fig06's per-chip campaigns); the
/// snapshot is written once by finish() (the destructor is a backstop).
class CampaignObservability {
 public:
  explicit CampaignObservability(const util::Cli& cli);
  ~CampaignObservability();

  CampaignObservability(const CampaignObservability&) = delete;
  CampaignObservability& operator=(const CampaignObservability&) = delete;

  /// Points `config` at the shared sinks; no-op when neither flag was
  /// passed (keeps the runner on its zero-instrumentation path).
  void attach(runner::RunnerConfig& config);

  /// The shared registry, or null when observability is disabled. Benches
  /// use it for their own counters (e.g. bench.skipped_records).
  [[nodiscard]] obs::MetricsRegistry* metrics() {
    return enabled_ ? &metrics_ : nullptr;
  }

  /// Flushes the progress line and writes the --metrics-out snapshot;
  /// idempotent.
  void finish();

 private:
  bool enabled_ = false;
  bool finished_ = false;
  std::string metrics_out_;
  obs::MetricsRegistry metrics_;
  obs::TraceRecorder trace_;
  std::unique_ptr<obs::ProgressReporter> progress_;
};

/// Formats a BER as a percentage string.
[[nodiscard]] std::string ber_pct(double ber, int precision = 3);

/// Builds a campaign RunnerConfig from kCampaignFlags (jobs, checkpoint
/// and journal paths, resume, injected chip, worker and storage faults).
[[nodiscard]] runner::RunnerConfig campaign_config(
    const util::Cli& cli, std::vector<std::string> result_columns);

/// Per-chip checkpoint path for a harness that runs one campaign per
/// chip: "out.csv" -> "out.chip3.csv" (empty stays empty).
[[nodiscard]] std::string per_chip_path(const std::string& path,
                                        int chip_index);

/// Runs the campaign, turning storage/config failures into actionable
/// diagnostics: CheckpointMismatchError (stale --resume target) and
/// StoreError (I/O failure; committed state intact) print their message
/// and exit(2) instead of dumping an uncaught-exception backtrace. Also
/// installs the graceful-stop handler: SIGTERM/SIGINT checkpoint-flush at
/// the next commit boundary and the report comes back aborted ("signal")
/// with no torn tail, ready for --resume.
[[nodiscard]] runner::CampaignReport run_campaign_or_die(
    runner::CampaignRunner& campaign,
    const std::vector<runner::CampaignRunner::Trial>& trials);

/// The context-aware variant used by the sharded campaign harnesses
/// (fig06/fig07/fig14/arena_eval), which read kShardFlags: in addition to
/// the above, `--shards N` (N > 1) runs the campaign under the process
/// supervisor (runner/supervisor.h): each shard is a forked worker process
/// whose output goes to `<shard>.log`, crashed/hung workers are restarted
/// from their shard checkpoint, and the merged artifacts are
/// byte-identical to the unsharded run.
[[nodiscard]] runner::CampaignReport run_campaign_or_die(
    BenchContext& ctx, runner::CampaignRunner& campaign,
    const std::vector<runner::CampaignRunner::Trial>& trials);

/// Prints the supervision summary of a sharded campaign (spawns,
/// restarts, crashes, watchdog kills, steals, quarantines).
void print_supervisor_report(std::ostream& out,
                             const runner::SupervisorReport& report);

/// Prints the resilience summary of a finished campaign (completion,
/// retries, quarantines, injected faults, guard/backoff waits).
void print_campaign_report(std::ostream& out,
                           const runner::CampaignReport& report,
                           const fault::FaultyChip::Stats& stats);

}  // namespace hbmrd::bench
