// The FPGA-based testbed (paper Fig. 2): six boards, each carrying one HBM2
// stack, a temperature rig (closed-loop on Chip 0), and a DRAM Bender host
// session. This is the top of the substrate; the characterization library
// (src/study/) talks to it through the ChipSession interface.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "bender/session.h"
#include "dram/chip_profiles.h"
#include "dram/stack.h"
#include "thermal/rig.h"

namespace hbmrd::bender {

class HbmChip : public ChipSession {
 public:
  explicit HbmChip(dram::ChipProfile profile);

  HbmChip(const HbmChip&) = delete;
  HbmChip& operator=(const HbmChip&) = delete;

  [[nodiscard]] const dram::ChipProfile& profile() const override {
    return profile_;
  }

  ExecutionResult run(const Program& program) override;
  void idle(double seconds) override;

  [[nodiscard]] dram::Cycle now() const override { return executor_.now(); }
  [[nodiscard]] double temperature_c() override;

  /// Board power cycle: the host session is lost, the executor clock
  /// restarts at 0, and DRAM contents revert to (deterministic) power-on
  /// state — everything an experiment wrote is gone. The thermal rig is
  /// physically independent of the board and keeps its state.
  void power_cycle();

  /// Alias for power_cycle(); the recovery path after a hung session.
  void reset() { power_cycle(); }

  /// The canonical trial state: the rig back at `rig_snapshot` and a
  /// power-on stack, so what runs next cannot depend on what ran before.
  /// Campaign trials and serve fallbacks both start from it.
  void restore_canonical(const thermal::TemperatureRig& rig_snapshot) {
    rig_ = rig_snapshot;
    power_cycle();
  }

  /// Pins the device temperature the stack sees to a fixed value; the rig
  /// keeps advancing in real time underneath. The campaign runner pins
  /// trials to the calibrated setpoint once the rig has been validated to
  /// sit inside the guard band (the paper's "all results at 82 C"
  /// discipline), which is what makes retried and resumed trials
  /// bit-identical. std::nullopt unpins.
  void pin_temperature(std::optional<double> celsius);
  [[nodiscard]] std::optional<double> pinned_temperature() const {
    return pinned_c_;
  }

  // -- Device-state checkpoints (see ChipSession) ---------------------------
  // The stack's copy-on-write dose checkpoints paired with a scheduler
  // snapshot; power_cycle() invalidates the whole ladder (the stack is
  // rebuilt), so restore() after a power cycle throws.

  std::size_t checkpoint() override;
  void restore(std::size_t id) override;
  void discard_checkpoints() override;

  void begin_probe_accounting() override;
  void account_thermal_cycles(dram::Cycle cycles) override;
  void end_probe_accounting() override;

  [[nodiscard]] dram::Cycle act_backlog(const dram::BankAddress& bank)
      override {
    return executor_.act_backlog(bank);
  }

  // -- Backdoors for tests and diagnostics (not part of the host protocol) --

  [[nodiscard]] dram::Stack& stack() override { return *stack_; }
  [[nodiscard]] thermal::TemperatureRig& rig() { return rig_; }

  /// Host-side command counts since the last power cycle (the executor is
  /// rebuilt on power_cycle(), matching the device counters' semantics).
  [[nodiscard]] const ExecutorCounters& executor_counters() const {
    return executor_.counters();
  }

  /// Lifetime totals of the row-threshold-summary cache (which survives
  /// power cycles; see src/disturb/threshold_cache.h).
  [[nodiscard]] disturb::ThresholdCacheStats threshold_cache_stats() const {
    return threshold_cache_->totals();
  }

 private:
  void sync_thermal();
  [[nodiscard]] dram::StackConfig stack_config() const;

  dram::ChipProfile profile_;
  /// Row threshold summaries survive power cycles (they are pure functions
  /// of the profile's disturb seed); declared before stack_ so the first
  /// stack_config() call already sees it.
  std::shared_ptr<disturb::ThresholdCache> threshold_cache_ =
      std::make_shared<disturb::ThresholdCache>();
  std::unique_ptr<dram::Stack> stack_;
  thermal::TemperatureRig rig_;
  Executor executor_;
  dram::Cycle thermal_synced_at_ = 0;
  std::optional<double> pinned_c_;
  /// Scheduler snapshot of each rung of the stack's checkpoint ladder,
  /// whose depth says which are live. Storage above the depth is kept for
  /// reuse, so a checkpoint does not allocate.
  std::vector<Executor::Snapshot> exec_checkpoints_;
  /// While set, run() defers the thermal-rig advance to
  /// account_thermal_cycles() (see ChipSession::begin_probe_accounting).
  bool probe_accounting_ = false;
};

/// All six boards of the testbed (Table 3).
class Platform {
 public:
  explicit Platform(std::uint64_t seed = dram::kDefaultPlatformSeed);

  [[nodiscard]] int chip_count() const {
    return static_cast<int>(chips_.size());
  }
  [[nodiscard]] HbmChip& chip(int index);

 private:
  std::vector<std::unique_ptr<HbmChip>> chips_;
};

}  // namespace hbmrd::bender
