#include "bender/platform.h"

#include <stdexcept>

#include "trr/undocumented_trr.h"
#include "util/rng.h"

namespace hbmrd::bender {

namespace {

thermal::TemperatureRig make_rig(const dram::ChipProfile& profile) {
  const std::uint64_t seed =
      util::hash_key(profile.disturb.seed, 0x7e39ull, profile.index);
  auto rig = profile.temperature_controlled
                 ? thermal::TemperatureRig::controlled(
                       seed, profile.target_temperature_c)
                 : thermal::TemperatureRig::ambient(
                       seed, profile.ambient_temperature_c);
  // Warm-up: the paper's rig reaches its setpoint before testing starts.
  rig.advance(3600.0);
  return rig;
}

}  // namespace

dram::StackConfig HbmChip::stack_config() const {
  dram::StackConfig config;
  config.disturb = profile_.disturb;
  config.mapping = profile_.mapping;
  config.initial_temperature_c = profile_.setpoint_c();
  if (profile_.has_undocumented_trr) {
    config.defense_factory = [](const dram::BankAddress&) {
      return std::make_unique<trr::UndocumentedTrr>();
    };
  }
  config.threshold_cache = threshold_cache_;
  return config;
}

HbmChip::HbmChip(dram::ChipProfile profile)
    : profile_(std::move(profile)),
      stack_(std::make_unique<dram::Stack>(stack_config())),
      rig_(make_rig(profile_)),
      executor_(stack_.get()) {
  stack_->set_temperature(rig_.temperature_c());
}

void HbmChip::sync_thermal() {
  const dram::Cycle elapsed = executor_.now() - thermal_synced_at_;
  if (elapsed == 0) return;
  rig_.advance(dram::cycles_to_seconds(elapsed));
  thermal_synced_at_ = executor_.now();
  stack_->set_temperature(pinned_c_ ? *pinned_c_ : rig_.temperature_c());
}

void HbmChip::power_cycle() {
  // The stack reboots into its deterministic power-on state (the same
  // "silicon lottery" as at construction); the executor's clock and bank
  // schedule restart with it. The rig is untouched: heater, fan, and chip
  // temperature do not care about the board's power rail. Checkpoints die
  // with the stack, and any probe accounting ends with the session.
  stack_ = std::make_unique<dram::Stack>(stack_config());
  executor_ = Executor(stack_.get());
  // The cache's entries survive (seed-pure), but the summary_* counter
  // epoch rolls over with the board session (threshold_cache.h).
  threshold_cache_->begin_epoch();
  thermal_synced_at_ = 0;
  probe_accounting_ = false;
  stack_->set_temperature(pinned_c_ ? *pinned_c_ : rig_.temperature_c());
}

std::size_t HbmChip::checkpoint() {
  const std::size_t id = stack_->push_checkpoint();
  if (id == exec_checkpoints_.size()) exec_checkpoints_.emplace_back();
  executor_.save_state(exec_checkpoints_[id]);
  return id;
}

void HbmChip::restore(std::size_t id) {
  if (id >= stack_->checkpoint_depth()) {
    throw std::out_of_range(
        "restore: unknown checkpoint (discarded or lost to a power cycle)");
  }
  stack_->restore_checkpoint(id);
  executor_.restore_state(exec_checkpoints_[id]);
  // The rig never rewinds (real time is monotone); re-anchor the sync point
  // so the rewound device clock is not charged as negative elapsed time.
  thermal_synced_at_ = executor_.now();
}

void HbmChip::discard_checkpoints() { stack_->discard_checkpoints(); }

void HbmChip::begin_probe_accounting() {
  sync_thermal();
  probe_accounting_ = true;
}

void HbmChip::account_thermal_cycles(dram::Cycle cycles) {
  if (cycles == 0) return;
  rig_.advance(dram::cycles_to_seconds(cycles));
  thermal_synced_at_ = executor_.now();
  stack_->set_temperature(pinned_c_ ? *pinned_c_ : rig_.temperature_c());
}

void HbmChip::end_probe_accounting() {
  probe_accounting_ = false;
  thermal_synced_at_ = executor_.now();
}

void HbmChip::pin_temperature(std::optional<double> celsius) {
  pinned_c_ = celsius;
  stack_->set_temperature(pinned_c_ ? *pinned_c_ : rig_.temperature_c());
}

ExecutionResult HbmChip::run(const Program& program) {
  auto result = executor_.run(program);
  if (probe_accounting_) {
    // The probe engine replays the legacy-equivalent duration itself via
    // account_thermal_cycles(); charging the device time here as well
    // would advance the rig twice for replayed hammer windows.
    thermal_synced_at_ = executor_.now();
  } else {
    sync_thermal();
  }
  return result;
}

void HbmChip::idle(double seconds) {
  if (seconds < 0.0) throw std::invalid_argument("negative idle time");
  executor_.advance(dram::seconds_to_cycles(seconds));
  sync_thermal();
}

double HbmChip::temperature_c() {
  sync_thermal();
  return stack_->temperature();
}

Platform::Platform(std::uint64_t seed) {
  for (auto profile : dram::chip_profiles(seed)) {
    chips_.push_back(std::make_unique<HbmChip>(std::move(profile)));
  }
}

HbmChip& Platform::chip(int index) {
  if (index < 0 || index >= chip_count()) {
    throw std::out_of_range("chip index");
  }
  return *chips_[static_cast<std::size_t>(index)];
}

}  // namespace hbmrd::bender
