// One HBM2 stack: 8 channels x 2 pseudo channels x 16 banks, the mode
// registers, logical->physical row mapping, optional sideband ECC, and the
// documented TRR Mode. This is the device side of the HBM2 command
// interface; the host side lives in src/bender/.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "disturb/fault_model.h"
#include "disturb/threshold_cache.h"
#include "dram/bank.h"
#include "dram/mapping.h"
#include "dram/mode_registers.h"

namespace hbmrd::dram {

struct StackConfig {
  disturb::DisturbParams disturb;
  MappingScheme mapping = MappingScheme::kIdentity;
  TimingParams timing{};
  /// Builds the per-bank in-DRAM defense (e.g. the undocumented TRR of
  /// Sec. 7); null means the chip has no proprietary defense.
  std::function<std::unique_ptr<ReadDisturbDefense>(const BankAddress&)>
      defense_factory;
  double initial_temperature_c = 60.0;
  /// Per-bank row threshold cache (see disturb/threshold_cache.h) that
  /// every sense reads. Shared so it survives stack rebuilds (power
  /// cycles): the cached summaries are pure functions of the disturb seed,
  /// never of device state. Null = the stack creates a private cache.
  /// Must only be shared between stacks driven from the same thread.
  std::shared_ptr<disturb::ThresholdCache> threshold_cache;
};

/// Counters exposed for the ECC analysis of Sec. 8 (Fig. 15).
struct EccCounters {
  std::uint64_t corrected_words = 0;
  std::uint64_t detected_uncorrectable_words = 0;
};

class Stack {
 public:
  explicit Stack(StackConfig config);

  // -- Command interface (logical row addresses) ----------------------------

  void activate(const RowAddress& address, Cycle now);
  void precharge(const BankAddress& address, Cycle now);
  /// Precharges every bank of one channel (PREA).
  void precharge_all(int channel, Cycle now);

  void read_column(const BankAddress& address, int column,
                   std::span<std::uint64_t> out, Cycle now);
  void write_column(const BankAddress& address, int column,
                    std::span<const std::uint64_t> data, Cycle now);

  /// REF to one channel (see RefreshChannel): advances the channel's REF
  /// clock and refresh pointer, runs the share of every bank that has had
  /// a command (its pointer rows with state plus any defense victim
  /// refreshes; the others have nothing to refresh), and services the
  /// documented TRR Mode when it is armed through the mode registers.
  void refresh(int channel, Cycle now);

  void mode_register_set(int reg, std::uint32_t value);
  [[nodiscard]] std::uint32_t mode_register_read(int reg) const;
  [[nodiscard]] ModeRegisters& mode_registers() { return mode_registers_; }

  /// Hammer fast path (see Bank::plan and Bank::apply); rows are logical.
  /// The plan is for bank(address): apply it there as often as needed.
  [[nodiscard]] HammerPlan plan_hammer(
      const BankAddress& address,
      std::span<const HammerStep> logical_steps) const;

  /// bank(address).apply(plan_hammer(address, logical_steps), ...).
  Cycle bulk_hammer(const BankAddress& address,
                    std::span<const HammerStep> logical_steps,
                    std::uint64_t iterations, Cycle start);

  // -- Dose checkpoints (copy-on-write; see Bank) ----------------------------

  /// Pushes a rung on the banks' ladder and snapshots the mode registers
  /// and the channels' REF clocks; returns the checkpoint index. Visits no
  /// bank: each bank records its layer at its first mutation afterwards.
  /// Requires ECC disabled (parity is not checkpointed).
  std::size_t push_checkpoint();

  /// Rewinds the banks mutated since checkpoint `index`, the mode
  /// registers and the REF clocks to it; younger checkpoints are
  /// discarded, `index` stays restorable.
  void restore_checkpoint(std::size_t index);

  /// Forgets all checkpoints without changing the current state.
  void discard_checkpoints();

  [[nodiscard]] std::size_t checkpoint_depth() const {
    return ladder_.depth();
  }

  // -- Environment -----------------------------------------------------------

  void set_temperature(double celsius) { env_.temperature_c = celsius; }
  [[nodiscard]] double temperature() const { return env_.temperature_c; }

  // -- Introspection (tests, diagnostics; not part of the host protocol) ----

  /// Also the hammer fast path's handle for Bank::apply.
  [[nodiscard]] Bank& bank(const BankAddress& address);
  [[nodiscard]] const RowMapping& mapping() const { return mapping_; }
  [[nodiscard]] const disturb::FaultModel& fault_model() const {
    return fault_;
  }
  [[nodiscard]] const TimingParams& timing() const { return timing_; }
  [[nodiscard]] const EccCounters& ecc_counters() const {
    return ecc_counters_;
  }
  /// REF history of one channel; throws std::out_of_range on a bad
  /// channel.
  [[nodiscard]] const RefreshClock& refresh_clock(int channel) const;

  /// Simulator-only memory reclaim: drops row state in one bank.
  void drop_row_states(const BankAddress& address);

  /// Sum of all banks' device-side event counters. refresh_commands counts
  /// a REF once per bank of its channel: REFs issued x kBanksPerChannel,
  /// rewound ones included, like every other counter.
  [[nodiscard]] BankCounters total_counters() const;

 private:
  /// What a checkpoint rung holds beside the banks' layers.
  struct Rung {
    ModeRegisters modes;
    std::array<RefreshClock, kChannels> clocks;
  };

  [[nodiscard]] std::size_t bank_index(const BankAddress& address) const;
  /// Throws std::out_of_range on a bad channel.
  static void check_channel(int channel);
  /// One channel's banks.
  std::span<Bank> channel_banks(int channel);

  disturb::FaultModel fault_;
  std::shared_ptr<disturb::ThresholdCache> threshold_cache_;
  RowMapping mapping_;
  TimingParams timing_;
  Environment env_;
  ModeRegisters mode_registers_;
  /// The banks' checkpoint ladder and their channels' refresh state (both
  /// outlive the banks), and what each rung snapshots beside the banks.
  CheckpointLadder ladder_;
  std::vector<RefreshChannel> channels_;
  std::vector<Rung> rungs_;
  std::vector<Bank> banks_;

  // Sideband ECC parity, stored per (bank, logical row) when ECC is on.
  // 8 parity bits per 64-bit data word; see src/ecc/. Parity cells are not
  // subject to simulated disturbance (documented simplification).
  using ParityKey = std::pair<std::size_t, int>;  // (bank index, physical row)
  std::map<ParityKey, std::vector<std::uint8_t>> parity_;
  EccCounters ecc_counters_;
};

}  // namespace hbmrd::dram
