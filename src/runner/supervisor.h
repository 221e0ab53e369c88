// Process-level campaign supervisor: sharded worker processes with crash
// detection, a heartbeat hang watchdog, shard handoff and work stealing.
//
// The paper's multi-week FPGA campaigns (Sec. 3) have to survive wedged
// boards and killed host processes; ROADMAP item 1 promotes the in-process
// `--jobs N` runner to process isolation for the same reason. The
// supervisor:
//
//   * partitions the canonical trial list into contiguous shards and
//     forks one worker process per shard; the child runs its slice of the
//     campaign in place, writes its own `util::Store` artifact set
//     (`<results>.shard<id>` + manifest + optional journal shard) and
//     sends its stdout/stderr to `<results>.shard<id>.log`;
//   * listens on a per-worker heartbeat pipe (runner/shard.h protocol,
//     polled every 25 ms); a worker that stops beating past the hang
//     deadline is SIGKILLed;
//   * detects crashes (signal death, nonzero exit, incomplete shard rows
//     behind a clean exit code), fsck-verifies the dead worker's partial
//     shard store (truncating to the fsync/commit watermark with repair),
//     and respawns a fresh worker that resumes the shard checkpoint with
//     retry_policy exponential backoff; consecutive no-progress failures
//     beyond max_restarts quarantine the shard;
//   * re-shards stragglers (work stealing, always on): when a shard
//     finishes, the running shard with the most trials left (at least 4)
//     is asked (SIGTERM -> graceful stop) to hand back the untouched half
//     of its remaining range, which becomes a new shard — one
//     wedged-but-slow board cannot stall the campaign;
//   * merges the finished shard stores (runner/merge.h) into the canonical
//     CSV + journal, byte-identical to the unsharded run for any shard
//     count and any failure schedule.
//
// docs/RESILIENCE.md ("Process supervision and shard handoff") documents
// the protocol; `supervisor.*` counters land in obs::MetricsRegistry with
// the deterministic/telemetry split preserved (docs/OBSERVABILITY.md).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "runner/retry_policy.h"
#include "runner/runner.h"
#include "util/counters.h"

namespace hbmrd::runner {

struct SupervisorConfig {
  /// Shards to partition the campaign into (>= 1). Work stealing may grow
  /// the shard count at runtime; the partition is persisted in
  /// `<results>.shards` so a killed supervisor resumes it exactly.
  std::uint64_t shards = 2;
  /// Hang watchdog: a running worker that has not heartbeat for this many
  /// wall-clock seconds is SIGKILLed and treated as crashed.
  double hang_timeout_s = 30.0;
  /// Consecutive failures without committing a new row before a shard is
  /// quarantined (a failure after progress resets the count: a campaign
  /// limping through distinct fatal faults is converging, not looping).
  int max_restarts = 5;
  /// Backoff between a crash and the shard's respawn (base/max delays;
  /// max_attempts is not consulted — quarantine is governed above).
  RetryPolicy restart_backoff{5, 0.2, 5.0};
};

struct SupervisorReport {
  /// The merged campaign, records loaded from the canonical CSV. When a
  /// shard was quarantined (or the supervisor was stopped) the merge is
  /// skipped and `campaign.aborted` is set with the reason.
  CampaignReport campaign;

  std::uint64_t shards = 0;          // configured partition size
  std::uint64_t final_shards = 0;    // after work-stealing splits
  std::uint64_t spawns = 0;          // worker processes started (total)
  std::uint64_t restarts = 0;        // respawns after crash/hang/stop
  std::uint64_t crashes = 0;         // signal deaths + error exits
  std::uint64_t hangs_killed = 0;    // watchdog SIGKILLs
  std::uint64_t heartbeats = 0;      // heartbeat lines received
  std::uint64_t shards_stolen = 0;   // work-stealing splits performed
  std::uint64_t shards_quarantined = 0;
  std::uint64_t worker_fsck_repairs = 0;  // dead-shard stores repaired
  /// "shard <id> [lo, hi)" for every quarantined shard.
  std::vector<std::string> quarantined_shards;

  /// The configured partition is campaign configuration; the runtime
  /// counts depend on failure schedules and steal decisions (wall clock).
  using enum util::MetricKind;
  static constexpr util::CounterField<SupervisorReport> kCounterFields[] = {
      {"supervisor.shards", &SupervisorReport::shards},
      {"supervisor.final_shards", &SupervisorReport::final_shards, kTelemetry},
      {"supervisor.spawns", &SupervisorReport::spawns, kTelemetry},
      {"supervisor.restarts", &SupervisorReport::restarts, kTelemetry},
      {"supervisor.crashes", &SupervisorReport::crashes, kTelemetry},
      {"supervisor.hangs_killed", &SupervisorReport::hangs_killed, kTelemetry},
      {"supervisor.heartbeats", &SupervisorReport::heartbeats, kTelemetry},
      {"supervisor.shards_stolen", &SupervisorReport::shards_stolen,
       kTelemetry},
      {"supervisor.shards_quarantined", &SupervisorReport::shards_quarantined,
       kTelemetry},
      {"supervisor.worker_fsck_repairs",
       &SupervisorReport::worker_fsck_repairs, kTelemetry},
  };
};

/// The body of a shard worker process (the supervisor's forked child):
/// runs `worker` — the campaign config with the caller's shard store
/// (`results_path`, `journal_path`, `resume`) and `shard` slice filled in
/// — with its observability sinks dropped (they belong to the
/// supervisor), the graceful-stop handler installed and SIGPIPE ignored (a
/// dead supervisor mutes the heartbeat instead of killing the worker).
/// Returns the shard_exit code the process must exit with; an exception
/// is reported on stderr and maps to kError.
[[nodiscard]] int run_shard_worker(
    bender::HbmChip& chip, RunnerConfig worker,
    const std::vector<CampaignRunner::Trial>& trials);

class Supervisor {
 public:
  /// `campaign` must name a results_path (shard stores and the shard index
  /// derive from it); observability sinks attach to the supervisor side
  /// only (workers run clean). The chip is the template for the forked
  /// workers' private sessions, exactly as in CampaignRunner.
  Supervisor(bender::HbmChip& chip, RunnerConfig campaign,
             SupervisorConfig config);

  /// Partitions, supervises, merges. Throws std::invalid_argument on a
  /// config error (no results_path, zero shards); storage errors from the
  /// merge propagate as StoreError.
  SupervisorReport run(const std::vector<CampaignRunner::Trial>& trials);

 private:
  bender::HbmChip& chip_;
  RunnerConfig campaign_;
  SupervisorConfig config_;
};

}  // namespace hbmrd::runner
