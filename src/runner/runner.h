// Resilient campaign runner for long characterization sweeps.
//
// The paper's data comes from months of unattended runs (Sec. 3); this
// runner wraps each study trial with the discipline such a campaign needs:
//
//   * temperature guard band — a trial only starts once the rig sensor sits
//     inside the profile's band (the paper's 82 C +- 1 C discipline,
//     Fig. 3), and the device is pinned to the calibrated setpoint for the
//     trial's duration so retried and resumed trials measure identically;
//   * fault classification — transient session faults retry with
//     exponential backoff + decorrelated jitter, persistent faults
//     quarantine the trial (reported, never silently dropped), fatal faults
//     abort with the journal intact;
//   * checkpointed results — every completed trial commits one CRC-trailed
//     CSV row; --resume verifies each record, truncates torn tails at the
//     record boundary, quarantines mid-file corruption (reported, never
//     silently re-used), cross-checks rows against the journal, and then
//     reproduces the uninterrupted run's CSV byte for byte;
//   * campaign manifest — `<results>.manifest` digests the header, fault
//     seed and trial list; --resume against a mismatched checkpoint fails
//     with an actionable CheckpointMismatchError instead of mixing sweeps;
//   * JSONL journal — attempts, faults, backoff and guard waits, and the
//     campaign summary, all derived from simulated time (deterministic),
//     each line CRC-trailed and recovered to the same byte-identity
//     guarantee as the checkpoint;
//   * deterministic parallelism — `jobs` worker threads each execute trials
//     on a private chip session reset to canonical power-on state before
//     every trial, while a sequencer commits rows and journal events in
//     canonical trial order: `--jobs N` output is byte-identical to the
//     serial run for any N (docs/PERFORMANCE.md has the full argument).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bender/platform.h"
#include "fault/faulty_chip.h"
#include "runner/checkpoint.h"
#include "runner/journal.h"
#include "runner/retry_policy.h"
#include "runner/shard.h"
#include "runner/store.h"

namespace hbmrd::obs {
class MetricsRegistry;
class ProgressReporter;
class TraceRecorder;
}  // namespace hbmrd::obs

namespace hbmrd::runner {

struct GuardBandConfig {
  bool enabled = true;
  /// Half-width of the allowed band around the profile's setpoint.
  /// 0 = auto: 1.0 C for temperature-controlled chips (paper Sec. 3),
  /// 3.0 C for ambient chips (diurnal drift + sensor noise).
  double band_c = 0.0;
  /// Idle step between guard polls (simulated seconds).
  double poll_s = 2.0;
  /// Give up waiting after this long; the attempt counts as faulted.
  double max_wait_s = 900.0;

  /// The effective band half-width for `profile` (resolves band_c = 0).
  [[nodiscard]] double band_for(const dram::ChipProfile& profile) const {
    if (band_c > 0.0) return band_c;
    return profile.temperature_controlled ? 1.0 : 3.0;
  }
};

struct RunnerConfig {
  /// Fault injection plan; default = fault-free substrate.
  fault::FaultPlanConfig faults;
  RetryPolicy retry;
  GuardBandConfig guard;
  /// Attempts consuming more simulated time than this are discarded and
  /// retried (0 = disabled; injected hangs are already bounded by the
  /// fault plan's watchdog).
  double trial_timeout_s = 0.0;
  /// Checkpointed results CSV ("" = keep results in memory only).
  std::string results_path;
  /// JSONL event journal ("" = disabled).
  std::string journal_path;
  /// Names of the payload columns each trial produces.
  std::vector<std::string> result_columns;
  /// Skip trials already committed in results_path.
  bool resume = false;
  /// Storage backend for the checkpoint, journal and manifest. Null = the
  /// shared PosixStore. Tests substitute a fault::FaultyStore here to
  /// observe operation counts; when `faults.store` injects faults the
  /// runner wraps this backend in a FaultyStore itself.
  std::shared_ptr<Store> store;
  /// Durable mode: fsync journal + checkpoint every N committed trials
  /// (journal first — a durable CSV row implies its journal block is
  /// durable) and at campaign end/abort. 0 = never fsync: commits survive
  /// a process kill but not power loss.
  std::uint64_t fsync_every_trials = 0;
  /// Stop (checkpointed, resumable) after this many trials have been
  /// processed this run; 0 = run to completion. Test hook for kill/resume
  /// and the natural sharding point for splitting campaigns across
  /// workers.
  std::uint64_t stop_after_trials = 0;
  /// Shard-worker mode (process-isolated campaigns, runner/supervisor.h):
  /// when enabled, the sequencer walks only global trial indices in
  /// [shard.lo, shard.hi), heartbeats each commit over shard.heartbeat_fd,
  /// and honors the injected faults.worker schedule. Trial indices, fault
  /// draws and journal bytes stay exactly the unsharded campaign's.
  ShardWorkerConfig shard;
  /// Worker threads executing trials. Each worker owns a private chip
  /// session; a sequencer commits results in canonical trial order, so any
  /// value produces CSV/journal byte-identical to jobs = 1 (values < 1 are
  /// clamped to 1). See docs/PERFORMANCE.md.
  int jobs = 1;

  // -- Observability (docs/OBSERVABILITY.md). All optional, owned by the
  // caller, and strictly outside the CSV/journal artifacts: attaching any
  // of them changes no committed byte.
  /// Counter/gauge/histogram sink; deterministic counters accumulate in
  /// sequencer commit order, so they are byte-equal across --jobs N.
  obs::MetricsRegistry* metrics = nullptr;
  /// Wall-clock span aggregates (campaign / recover / trial / commit).
  obs::TraceRecorder* trace = nullptr;
  /// Rate-limited live progress line (stderr by default).
  obs::ProgressReporter* progress = nullptr;
};

struct CampaignReport {
  std::vector<TrialRecord> records;

  std::uint64_t completed = 0;    // trials finishing ok this run
  std::uint64_t resumed = 0;      // trials skipped via checkpoint
  std::uint64_t quarantined = 0;  // this run
  std::uint64_t retries = 0;      // extra attempts beyond each first
  std::uint64_t guard_blocks = 0; // attempts the guard made wait
  double guard_wait_s = 0.0;      // simulated time spent waiting for band
  double backoff_wait_s = 0.0;    // simulated time spent backing off
  double campaign_seconds = 0.0;  // simulated rig time the campaign took
  /// Device-side counters summed over this run's trials (each trial runs on
  /// a fresh power-on stack, so these are per-trial deltas accumulated in
  /// commit order). Campaign chips' own counters no longer see trial
  /// activity — sweeps that report ACT/refresh totals read them here.
  dram::BankCounters device_counters;
  bool aborted = false;
  std::string abort_reason;

  // -- Resume-time recovery findings (all zero on a fresh run).
  /// Mid-file checkpoint rows whose CRC failed: quarantined (dropped from
  /// the trusted set and re-run), with their best-effort keys.
  std::uint64_t checkpoint_corrupt_rows = 0;
  std::vector<std::string> checkpoint_corrupt_keys;
  /// CRC-valid rows the trust rule dropped (trusted_state()): no terminal
  /// journal event (the row outran its journal block across a power cut),
  /// a status that event contradicts, or a repeated key.
  std::uint64_t checkpoint_rolled_back = 0;
  /// A torn trailing record was truncated at the record boundary.
  bool checkpoint_tail_truncated = false;
  /// The checkpoint header was damaged on disk but the manifest matched
  /// this campaign, so the header was rebuilt rather than rejected.
  bool checkpoint_header_rebuilt = false;

  /// Fraction of attempted trials that produced a committed result.
  [[nodiscard]] double completion_rate() const;
  [[nodiscard]] std::vector<std::string> quarantined_keys() const;
};

class CampaignRunner {
 public:
  struct Trial {
    /// Stable unique key (no commas/quotes); the checkpoint identity.
    std::string key;
    /// The measurement. Runs against the (possibly faulty) session; any
    /// FaultError it lets escape is classified and handled by the runner.
    std::function<std::vector<std::string>(bender::ChipSession&)> body;
  };

  CampaignRunner(bender::HbmChip& chip, RunnerConfig config);

  /// Runs the campaign; trial indices (fault-plan keys) are positions in
  /// `trials`, so the list must be identical across resumed runs.
  CampaignReport run(const std::vector<Trial>& trials);

  [[nodiscard]] fault::FaultyChip& session() { return faulty_; }
  [[nodiscard]] const RunnerConfig& config() const { return config_; }
  /// The campaign chip — what a shard worker or supervisor builds its own
  /// runner around (bench/common.cpp).
  [[nodiscard]] bender::HbmChip& chip() { return chip_; }

 private:
  bender::HbmChip& chip_;
  RunnerConfig config_;
  fault::FaultyChip faulty_;
};

}  // namespace hbmrd::runner
