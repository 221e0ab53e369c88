// Deterministic, seeded fault injection for long characterization campaigns.
//
// The paper's results come from months of unattended sweeps on six
// FPGA-hosted boards (Sec. 3, Fig. 2) — a substrate where host sessions
// hang, readout links corrupt data, boards reset and lose DRAM contents,
// and the Chip-0 thermal rig drifts out of its 82 C band (Fig. 3). This
// layer reproduces those failure modes on the simulated testbed so that the
// campaign runner's recovery machinery (src/runner/) can be exercised and
// regression-tested.
//
// Every fault is a pure function of (plan seed, trial index, attempt
// number): re-running a campaign with the same plan replays the exact same
// fault sequence, and a retried attempt sees a fresh, independent draw —
// which is what makes recovery behavior assertable in tests.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace hbmrd::fault {

/// How the campaign runner must react to a fault.
enum class FaultClass {
  kTransient,   // retry with backoff
  kPersistent,  // quarantine the trial (row) and continue
  kFatal,       // abort the campaign, journal intact
};

enum class FaultKind {
  kNone = 0,
  kReadoutBitCorrupt,   // link flips a few bits; CRC flags the transfer
  kReadoutWordCorrupt,  // link garbles whole words; CRC flags the transfer
  kReadoutTruncation,   // readout ends short of the expected payload
  kCommandTimeout,      // session hangs; host watchdog kills + restarts it
  kSessionReset,        // board power-cycles; DRAM contents are lost
  kStuckReadout,        // persistent: this trial's readout fails every time
  kHostCrash,           // fatal: the host process dies mid-campaign
};
inline constexpr int kFaultKindCount = 8;

[[nodiscard]] const char* to_string(FaultKind kind);
[[nodiscard]] const char* to_string(FaultClass cls);
[[nodiscard]] FaultClass fault_class(FaultKind kind);

/// Thrown by FaultyChip at the session boundary; caught and classified by
/// the campaign runner.
class FaultError : public std::runtime_error {
 public:
  explicit FaultError(FaultKind kind)
      : std::runtime_error(std::string("injected fault: ") + to_string(kind)),
        kind_(kind) {}

  [[nodiscard]] FaultKind kind() const { return kind_; }
  [[nodiscard]] FaultClass fault_class() const {
    return fault::fault_class(kind_);
  }

 private:
  FaultKind kind_;
};

/// Storage-fault injection plan for the campaign persistence layer
/// (checkpoint CSV, journal, manifest). All draws are pure functions of
/// (seed, operation counter), so a rerun replays the identical fault
/// sequence — which is what makes the crash-consistency sweep exhaustive:
/// every write/fsync index is a reachable, deterministic crash point.
struct StoreFaultConfig {
  /// P(an append operation fails with an injected EIO/ENOSPC/short write).
  /// A short write lands a seeded prefix of the payload before throwing —
  /// the torn-record case the CRC trailers exist for.
  double write_error_rate = 0.0;
  /// Crash (simulated power loss) at the Nth append operation, 1-based;
  /// 0 = never. The crash tears the in-flight write and rolls every file
  /// back to a seeded point between its last-fsynced and current size.
  std::uint64_t crash_at_write = 0;
  /// Crash at the Nth fsync operation, 1-based; 0 = never. Fires before
  /// the sync takes effect, so the file's un-synced tail is still at risk.
  std::uint64_t crash_at_fsync = 0;

  [[nodiscard]] bool any() const {
    return write_error_rate > 0.0 || crash_at_write != 0 ||
           crash_at_fsync != 0;
  }
};

/// Worker-process fault injection for sharded campaigns (see
/// runner/supervisor.h). These faults act on the worker *process* itself —
/// SIGKILL mid-commit, a wedge that stops the heartbeat, a reporting path
/// that goes silent — so the supervisor's crash detection, hang watchdog
/// and shard-handoff recovery can be exercised deterministically. Trial
/// numbers are global (1-based positions in the campaign list), so exactly
/// the shard that owns the trial fires the fault.
struct WorkerFaultConfig {
  /// SIGKILL the worker inside the commit of this trial, after its journal
  /// block reached the OS but before its CSV row — the widest window the
  /// write-ahead discipline must close. 0 = never.
  std::uint64_t crash_at_trial = 0;
  /// Wedge (stop heartbeating, never progress) when reaching this trial;
  /// only the supervisor's watchdog SIGKILL ends the process. 0 = never.
  std::uint64_t hang_at_trial = 0;
  /// Mute the heartbeat pipe after this many trials while continuing to
  /// work — then wedge instead of exiting, like a stuck reporting thread;
  /// the watchdog must kill a worker it can no longer observe. 0 = never.
  std::uint64_t drop_heartbeats_after = 0;
  /// How many worker incarnations (supervisor restarts, 0-based gate) the
  /// faults keep firing for. 1 = first spawn only (the restarted worker
  /// recovers); a large value turns crash_at_trial into a crash loop that
  /// must end in shard quarantine.
  std::uint64_t repeat_incarnations = 1;

  [[nodiscard]] bool any() const {
    return crash_at_trial != 0 || hang_at_trial != 0 ||
           drop_heartbeats_after != 0;
  }
};

struct FaultPlanConfig {
  std::uint64_t seed = 0x5eedfa17ull;

  /// P(one transient fault fires during an attempt). Independent per
  /// attempt, so a retry at rate r completes with P = 1 - r^max_attempts.
  double transient_rate = 0.0;
  /// P(a trial begins with a thermal excursion pushed into the rig).
  double thermal_rate = 0.0;
  /// P(a trial is persistently faulty: every attempt fails -> quarantine).
  double persistent_rate = 0.0;
  /// P(the host crashes at a trial: the campaign aborts and must resume).
  double fatal_rate = 0.0;

  /// Magnitude of injected thermal excursions (sign drawn per trial).
  double excursion_delta_c = 6.0;
  /// Simulated time a hung session burns before the watchdog kills it.
  double watchdog_s = 30.0;

  /// I/O faults against the campaign's storage backend (seeded from the
  /// same plan seed; see fault::FaultyStore).
  StoreFaultConfig store;

  /// Process-level faults against sharded campaign workers (fire only when
  /// the runner executes in shard mode, inside a supervised worker).
  WorkerFaultConfig worker;

  [[nodiscard]] bool fault_free() const {
    return transient_rate <= 0.0 && thermal_rate <= 0.0 &&
           persistent_rate <= 0.0 && fatal_rate <= 0.0;
  }
};

/// The per-trial fault schedule, lazily evaluated from the seed.
class FaultPlan {
 public:
  FaultPlan() = default;  // fault-free
  explicit FaultPlan(FaultPlanConfig config) : config_(config) {}

  struct AttemptSchedule {
    /// Fault to inject at the first eligible operation of the attempt
    /// (kNone = clean attempt).
    FaultKind kind = FaultKind::kNone;
    /// Thermal excursion to push into the rig when the attempt begins
    /// (0 = none; only ever non-zero on a trial's first attempt).
    double excursion_delta_c = 0.0;
  };

  /// The schedule for one (trial, attempt); attempts are 1-based.
  /// `incarnation` counts how many checkpoint rows existed when the run
  /// started; it keys only the fatal-fault draw, so a host crash does not
  /// deterministically recur on the same trial after a resume, while every
  /// result-relevant draw stays identical across resumes.
  [[nodiscard]] AttemptSchedule attempt(std::uint64_t trial, int attempt,
                                        std::uint64_t incarnation = 0) const;

  [[nodiscard]] const FaultPlanConfig& config() const { return config_; }

 private:
  FaultPlanConfig config_;
};

}  // namespace hbmrd::fault
