// Per-thread trial execution for the parallel campaign runner.
//
// Each worker owns a private chip session: its own twin HbmChip (stack +
// executor + thermal rig built from the campaign chip's profile) wrapped in
// its own FaultyChip sharing the campaign's fault plan. Before every trial
// the worker restores the rig to the power-on snapshot and power-cycles the
// board, so each trial runs against the exact canonical session state —
// making every outcome a pure function of (profile, trial index, fault
// plan, incarnation), independent of which worker runs it and of whatever
// ran before. That purity is what lets the sequencer commit outcomes in
// canonical order and produce byte-identical CSV/journal for any --jobs N.
#pragma once

#include <cstdint>
#include <exception>
#include <string>

#include "bender/platform.h"
#include "fault/faulty_chip.h"
#include "runner/runner.h"
#include "thermal/rig.h"

namespace hbmrd::runner {

/// Everything one finished trial hands to the sequencer.
struct TrialOutcome {
  TrialRecord record;
  /// Staged JSONL event lines, in the order the serial runner would have
  /// journaled them; the sequencer appends whole buffers in canonical
  /// trial order.
  std::string journal;
  double trial_s = 0.0;  // simulated rig seconds the trial consumed
  std::uint64_t retries = 0;
  std::uint64_t guard_blocks = 0;
  double guard_wait_s = 0.0;
  double backoff_wait_s = 0.0;
  /// Device-side counters since the trial's power-on (the stack is fresh at
  /// trial start, so this is the per-trial delta).
  dram::BankCounters device;
  /// Host-side command counts since the trial's power-on (same semantics:
  /// the executor is rebuilt with the stack).
  bender::ExecutorCounters exec;
  /// Threshold-cache stats delta over this trial. lookups() and the
  /// epoch-relative summary_* fields are pure functions of the trial
  /// (deterministic — the worker opens a fresh epoch per trial via
  /// power_cycle()); the raw hit/miss split depends on which worker's
  /// cache served it (telemetry).
  disturb::ThresholdCacheStats cache;
  /// Probe-engine counters delta over this trial (hc_probes /
  /// hammers_replayed / hammers_saved). Pure functions of the trial like
  /// the device counters, so they land in the deterministic metrics
  /// catalog (study.*).
  bender::ProbeCounters probes;
  /// Injected-fault counters over this trial (pure function of trial
  /// index / attempt / incarnation, so commit-order accumulation is
  /// deterministic even when a fatal abort discards in-flight trials).
  /// by_kind stays zero: the per-kind split is read from stats().
  fault::FaultyChip::Stats fault_delta;
  /// Host wall-clock seconds the trial consumed (telemetry only; never
  /// enters an artifact).
  double wall_s = 0.0;
  bool fatal = false;
  std::string fatal_kind;
  /// Non-fault exception from the trial body or result validation; the
  /// sequencer rethrows it at this trial's commit point.
  std::exception_ptr error;
};

/// Rejects cell payloads that would corrupt the CSV checkpoint.
void validate_csv_cell(const std::string& cell, const char* what);

class TrialWorker {
 public:
  TrialWorker(const dram::ChipProfile& profile, const RunnerConfig& config,
              std::uint64_t incarnation, bool journal_enabled);

  /// Runs one trial (all retry attempts) against the canonical session
  /// state. `index` is the trial's position in the campaign list — the
  /// fault-plan key — which is why it must be the original index, not the
  /// shard index.
  [[nodiscard]] TrialOutcome run(const CampaignRunner::Trial& trial,
                                 std::uint64_t index);

  [[nodiscard]] const fault::FaultyChip::Stats& stats() const {
    return faulty_.stats();
  }

 private:
  bool wait_for_guard_band(TrialOutcome& out, std::string* sink,
                           const std::string& key, int attempt);

  const RunnerConfig& config_;
  bender::HbmChip chip_;
  thermal::TemperatureRig rig0_;  // power-on rig snapshot (canonical state)
  fault::FaultyChip faulty_;
  double trial_t0_ = 0.0;  // simulated rig time at current trial start
  bool journal_enabled_ = false;
};

}  // namespace hbmrd::runner
