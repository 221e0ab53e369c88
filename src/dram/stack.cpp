#include "dram/stack.h"

#include <stdexcept>

#include "ecc/secded.h"

namespace hbmrd::dram {

Stack::Stack(StackConfig config)
    : fault_(config.disturb),
      threshold_cache_(config.threshold_cache
                           ? std::move(config.threshold_cache)
                           : std::make_shared<disturb::ThresholdCache>()),
      mapping_(config.mapping),
      timing_(config.timing),
      env_{config.initial_temperature_c} {
  channels_.reserve(kChannels);
  for (int ch = 0; ch < kChannels; ++ch) channels_.emplace_back(timing_);
  banks_.reserve(kBanks);
  for (int ch = 0; ch < kChannels; ++ch) {
    for (int pc = 0; pc < kPseudoChannels; ++pc) {
      for (int b = 0; b < kBanksPerPseudoChannel; ++b) {
        const BankAddress addr{ch, pc, b};
        banks_.emplace_back(
            addr, &fault_, &env_, timing_,
            threshold_cache_->bank(addr, flat_bank_index(addr)), ladder_,
            channels_[static_cast<std::size_t>(ch)]);
        if (config.defense_factory) {
          banks_.back().set_defense(config.defense_factory(addr));
        }
      }
    }
  }
}

std::size_t Stack::bank_index(const BankAddress& address) const {
  validate(address);
  return flat_bank_index(address);
}

void Stack::check_channel(int channel) {
  if (channel < 0 || channel >= kChannels) {
    throw std::out_of_range("channel index");
  }
}

std::span<Bank> Stack::channel_banks(int channel) {
  check_channel(channel);
  return {banks_.data() + channel_first_bank(channel), kBanksPerChannel};
}

const RefreshClock& Stack::refresh_clock(int channel) const {
  check_channel(channel);
  return channels_[static_cast<std::size_t>(channel)].clock();
}

Bank& Stack::bank(const BankAddress& address) {
  return banks_[bank_index(address)];
}

void Stack::activate(const RowAddress& address, Cycle now) {
  validate(address);
  const int physical = mapping_.to_physical(address.row);
  bank(address.bank).activate(physical, now);
}

void Stack::precharge(const BankAddress& address, Cycle now) {
  bank(address).precharge(now);
}

void Stack::precharge_all(int channel, Cycle now) {
  for (Bank& bk : channel_banks(channel)) bk.precharge(now);
}

void Stack::read_column(const BankAddress& address, int column,
                        std::span<std::uint64_t> out, Cycle now) {
  Bank& bk = bank(address);
  bk.read_column(column, out, now);
  if (!mode_registers_.ecc_enabled()) return;

  // Sideband ECC: decode each 64-bit word against the parity stored when
  // the word was last written under ECC. Words never written under ECC
  // pass through unmodified.
  const ParityKey key{bank_index(address), bk.open_row()};
  const auto it = parity_.find(key);
  if (it == parity_.end()) return;
  for (std::size_t w = 0; w < out.size(); ++w) {
    const std::size_t word_index =
        static_cast<std::size_t>(column) * kWordsPerColumn + w;
    const auto result =
        ecc::Secded72_64::decode(out[w], it->second[word_index]);
    switch (result.status) {
      case ecc::DecodeStatus::kClean:
        break;
      case ecc::DecodeStatus::kCorrectedData:
      case ecc::DecodeStatus::kCorrectedParity:
        ++ecc_counters_.corrected_words;
        break;
      case ecc::DecodeStatus::kDetectedUncorrectable:
        ++ecc_counters_.detected_uncorrectable_words;
        break;
    }
    out[w] = result.data;
  }
}

void Stack::write_column(const BankAddress& address, int column,
                         std::span<const std::uint64_t> data, Cycle now) {
  Bank& bk = bank(address);
  bk.write_column(column, data, now);
  if (!mode_registers_.ecc_enabled()) return;

  const ParityKey key{bank_index(address), bk.open_row()};
  auto& row_parity = parity_[key];
  if (row_parity.empty()) {
    row_parity.resize(static_cast<std::size_t>(RowBits::kWords), 0);
  }
  for (std::size_t w = 0; w < data.size(); ++w) {
    const std::size_t word_index =
        static_cast<std::size_t>(column) * kWordsPerColumn + w;
    row_parity[word_index] = ecc::Secded72_64::encode(data[w]);
  }
}

void Stack::refresh(int channel, Cycle now) {
  check_channel(channel);
  channels_[static_cast<std::size_t>(channel)].refresh(now);
  // Documented TRR Mode (Sec. 7, footnote 2): while armed, every REF also
  // refreshes the neighbours of the mode-register-designated target row.
  if (mode_registers_.trr_mode_enabled()) {
    const BankAddress target{channel, mode_registers_.trr_target_pseudo_channel(),
                             mode_registers_.trr_target_bank()};
    const int physical =
        mapping_.to_physical(mode_registers_.trr_target_row());
    Bank& bk = bank(target);
    if (physical - 1 >= 0) bk.refresh_row(physical - 1, now);
    if (physical + 1 < kRowsPerBank) bk.refresh_row(physical + 1, now);
  }
}

void Stack::mode_register_set(int reg, std::uint32_t value) {
  mode_registers_.write(reg, value);
}

std::uint32_t Stack::mode_register_read(int reg) const {
  return mode_registers_.read(reg);
}

HammerPlan Stack::plan_hammer(const BankAddress& address,
                              std::span<const HammerStep> logical_steps) const {
  std::vector<HammerStep> physical_steps(logical_steps.begin(),
                                         logical_steps.end());
  for (auto& step : physical_steps) {
    step.row = mapping_.to_physical(step.row);
  }
  return banks_[bank_index(address)].plan(std::move(physical_steps));
}

Cycle Stack::bulk_hammer(const BankAddress& address,
                         std::span<const HammerStep> logical_steps,
                         std::uint64_t iterations, Cycle start) {
  return bank(address).apply(plan_hammer(address, logical_steps), iterations,
                             start);
}

BankCounters Stack::total_counters() const {
  BankCounters totals;
  for (const auto& bank : banks_) util::fold_counters(totals, bank.counters());
  for (const auto& channel : channels_) {
    totals.refresh_commands +=
        channel.issued() * static_cast<std::uint64_t>(kBanksPerChannel);
  }
  return totals;
}

std::size_t Stack::push_checkpoint() {
  if (mode_registers_.ecc_enabled()) {
    throw std::logic_error(
        "push_checkpoint: ECC parity is not checkpointed; disable ECC first");
  }
  Rung& rung = rungs_.emplace_back();
  rung.modes = mode_registers_;
  for (std::size_t ch = 0; ch < channels_.size(); ++ch) {
    rung.clocks[ch] = channels_[ch].clock();
  }
  return ladder_.push();
}

void Stack::restore_checkpoint(std::size_t index) {
  ladder_.restore(index);
  const Rung& rung = rungs_[index];
  mode_registers_ = rung.modes;
  for (std::size_t ch = 0; ch < channels_.size(); ++ch) {
    channels_[ch].set_clock(rung.clocks[ch]);
  }
  rungs_.resize(index + 1);
}

void Stack::discard_checkpoints() {
  ladder_.discard();
  rungs_.clear();
}

void Stack::drop_row_states(const BankAddress& address) {
  bank(address).drop_row_states();
  // Drop the matching parity as well so a later ECC read does not decode
  // stale parity against power-on contents.
  const std::size_t index = bank_index(address);
  for (auto it = parity_.begin(); it != parity_.end();) {
    if (it->first.first == index) {
      it = parity_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace hbmrd::dram
