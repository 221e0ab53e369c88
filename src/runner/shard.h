// Shard-side plumbing for process-isolated campaigns.
//
// A sharded campaign splits the canonical trial list into contiguous
// index ranges and hands each range to a worker *process* (see
// runner/supervisor.h). Everything a worker needs to cooperate with the
// supervisor lives here:
//
//   * ShardWorkerConfig — the runner-side switch: restrict the sequencer
//     to [lo, hi) while keeping trial indices global, so every fault-plan
//     draw and journal byte is the one the unsharded run would produce;
//   * HeartbeatEmitter — the pipe protocol (hello / per-commit progress /
//     done) the supervisor's hang watchdog listens to. The encode buffer
//     is a fixed pre-reserved array: supervision adds no per-trial
//     allocations to the commit hot path;
//   * shard_exit — the worker process exit codes the supervisor decodes;
//   * ShardSpec / ShardSet — the on-disk shard index (`<results>.shards`,
//     CRC-trailed lines) that records the partition and each shard's
//     status, so a killed supervisor can itself be resumed;
//   * graceful stop — a SIGTERM/SIGINT handler that asks the sequencer to
//     checkpoint-flush and exit at the next commit boundary instead of
//     dying with a torn tail.
//
// docs/RESILIENCE.md ("Process supervision and shard handoff") states the
// full protocol and the byte-identity contract of the merge step.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace hbmrd::runner {

/// Exit codes a shard worker process reports to the supervisor. 0/3/4 all
/// leave the shard store consistent and resumable; anything else (or a
/// signal death) is a crash and triggers fsck + restart.
namespace shard_exit {
inline constexpr int kComplete = 0;  // every trial in [lo, hi) committed
inline constexpr int kStopped = 3;   // graceful stop honored; resumable
inline constexpr int kAborted = 4;   // campaign aborted (fatal fault); resumable
inline constexpr int kError = 5;     // configuration / storage error
}  // namespace shard_exit

/// Runner-side shard mode (RunnerConfig::shard). Trial indices stay
/// global: the shard only restricts which indices the sequencer walks, so
/// fault-plan keys, journal bytes and CSV rows are exactly the unsharded
/// campaign's.
struct ShardWorkerConfig {
  bool enabled = false;
  /// Half-open global trial-index range this worker owns.
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  /// Write end of the supervisor's heartbeat pipe; -1 = no supervisor.
  int heartbeat_fd = -1;
  /// Supervisor restart count for this shard (0 = first spawn). Keys only
  /// the injected worker-fault gate (fault::WorkerFaultConfig), mirroring
  /// how the campaign incarnation keys fatal-fault draws.
  std::uint64_t incarnation = 0;
};

/// Allocation-free heartbeat protocol, worker side. One text line per
/// message on the supervisor pipe:
///   "s\n"          hello — the worker entered its campaign
///   "t <index>\n"  progress — global trial <index> is committed
///   "d\n"          done — every trial in the shard range is committed
/// Writes are EINTR-safe; a dead supervisor (EPIPE) mutes the emitter
/// instead of killing the worker (SIGPIPE must be ignored; the supervisor
/// child paths do this).
class HeartbeatEmitter {
 public:
  explicit HeartbeatEmitter(int fd) : fd_(fd) {}

  [[nodiscard]] bool enabled() const { return fd_ >= 0; }

  void hello();
  void progress(std::uint64_t trial_index);
  void done();

 private:
  void send(const char* bytes, std::size_t len);

  int fd_ = -1;
  /// Pre-reserved encode buffer: "t <20-digit index>\n" worst case.
  char buf_[32];
};

/// Installs the graceful-stop SIGTERM/SIGINT handler: the first signal
/// sets a flag the campaign sequencer polls at each commit boundary (the
/// run then checkpoint-flushes and reports abort_reason "signal"); a
/// second signal hard-exits. Idempotent.
void install_graceful_stop();
/// Clears the flag (a forked worker must not inherit a pending stop).
void reset_graceful_stop();
[[nodiscard]] bool graceful_stop_requested();

/// One shard of the campaign partition, as recorded in the shard index.
struct ShardSpec {
  enum class Status {
    kPending,      // not yet complete (includes running / awaiting restart)
    kDone,         // every trial in [lo, hi) committed and verified
    kQuarantined,  // crashed repeatedly without progress; needs an operator
  };

  std::uint64_t id = 0;  // artifact suffix; stable across splits/restarts
  std::uint64_t lo = 0;  // half-open global trial range
  std::uint64_t hi = 0;
  Status status = Status::kPending;

  [[nodiscard]] std::uint64_t size() const { return hi - lo; }
};

[[nodiscard]] const char* to_string(ShardSpec::Status status);

/// The on-disk shard index (`<results>.shards`): the partition the
/// supervisor committed to, one CRC-trailed line per shard. Rewritten
/// atomically on every status change, so a killed supervisor resumes the
/// exact partition (work stealing may have reshaped it) instead of
/// re-deriving one that would orphan shard stores.
struct ShardSet {
  std::uint64_t trial_count = 0;
  std::vector<ShardSpec> shards;

  [[nodiscard]] std::string serialize() const;
  /// nullopt on any syntax or CRC failure — a corrupt index is never
  /// trusted (the supervisor repartitions; merge refuses).
  [[nodiscard]] static std::optional<ShardSet> parse(std::string_view text);
  /// "" when the shards tile [0, trial_count) exactly (in any order, none
  /// empty); otherwise what is wrong with the partition.
  [[nodiscard]] std::string tiling_error() const;
};

/// `<results>.shards` next to the canonical checkpoint.
[[nodiscard]] std::string shard_index_path(const std::string& results_path);
/// Per-shard artifact path: `<base>.shard<id>` (applies to both the CSV
/// and the journal base paths).
[[nodiscard]] std::string shard_artifact_path(const std::string& base,
                                              std::uint64_t shard_id);

}  // namespace hbmrd::runner
