// FaultyChip: a ChipSession that interposes the fault plan between the
// study code and a real HbmChip.
//
// The study layer (src/study/) is written against bender::ChipSession, so
// handing it a FaultyChip exercises every sweep under injected link
// corruption, session hangs, board resets, and thermal excursions without
// the study code changing at all. Faults surface as FaultError at the
// session boundary — exactly where a real DRAM Bender host would observe a
// CRC failure, a watchdog timeout, or a dropped connection — and are caught
// and classified by the campaign runner.
#pragma once

#include <array>
#include <cstdint>

#include "bender/platform.h"
#include "bender/session.h"
#include "fault/fault_plan.h"

namespace hbmrd::fault {

class FaultyChip final : public bender::ChipSession {
 public:
  /// With a default (fault-free) plan this is a transparent pass-through.
  explicit FaultyChip(bender::HbmChip& chip, FaultPlan plan = FaultPlan());

  /// Arms the schedule of (trial, attempt); attempts are 1-based. A
  /// scheduled thermal excursion is pushed into the rig immediately; a
  /// scheduled session fault fires at the attempt's first eligible
  /// operation. Until the first begin_attempt the chip runs fault-free.
  void begin_attempt(std::uint64_t trial, int attempt);

  /// See FaultPlan::attempt — set by the runner after loading a checkpoint.
  void set_incarnation(std::uint64_t incarnation) {
    incarnation_ = incarnation;
  }

  // -- ChipSession ----------------------------------------------------------

  [[nodiscard]] const dram::ChipProfile& profile() const override {
    return chip_.profile();
  }
  bender::ExecutionResult run(const bender::Program& program) override;
  void idle(double seconds) override { chip_.idle(seconds); }
  [[nodiscard]] dram::Cycle now() const override { return chip_.now(); }
  [[nodiscard]] double temperature_c() override {
    return chip_.temperature_c();
  }
  [[nodiscard]] dram::Stack& stack() override { return chip_.stack(); }

  // Device checkpoints forward to the real chip unchanged: the fault plan
  // draws on (trial, attempt, incarnation) only, and faults fire at run()
  // above, so checkpoint replays see exactly the draws the from-scratch
  // path would have seen.
  std::size_t checkpoint() override { return chip_.checkpoint(); }
  void restore(std::size_t id) override { chip_.restore(id); }
  void discard_checkpoints() override { chip_.discard_checkpoints(); }
  void begin_probe_accounting() override { chip_.begin_probe_accounting(); }
  void account_thermal_cycles(dram::Cycle cycles) override {
    chip_.account_thermal_cycles(cycles);
  }
  void end_probe_accounting() override { chip_.end_probe_accounting(); }
  [[nodiscard]] dram::Cycle act_backlog(const dram::BankAddress& bank)
      override {
    return chip_.act_backlog(bank);
  }

  // -- Diagnostics ----------------------------------------------------------

  [[nodiscard]] bender::HbmChip& raw() { return chip_; }
  [[nodiscard]] const FaultPlan& plan() const { return plan_; }

  struct Stats {
    std::uint64_t injected_total = 0;
    std::array<std::uint64_t, kFaultKindCount> by_kind{};
    std::uint64_t thermal_excursions = 0;

    [[nodiscard]] std::uint64_t count(FaultKind kind) const {
      return by_kind[static_cast<std::size_t>(kind)];
    }

    void merge(const Stats& other) {
      injected_total += other.injected_total;
      for (std::size_t k = 0; k < by_kind.size(); ++k) {
        by_kind[k] += other.by_kind[k];
      }
      thermal_excursions += other.thermal_excursions;
    }
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Folds another session's statistics into this one. The parallel runner
  /// uses this to surface per-worker session stats through the campaign's
  /// facade session (integer sums, so the totals are order-independent).
  void absorb_stats(const Stats& other) { stats_.merge(other); }

 private:
  [[noreturn]] void inject(FaultKind kind, bender::ExecutionResult* readout);

  bender::HbmChip& chip_;
  FaultPlan plan_;
  FaultPlan::AttemptSchedule schedule_;
  std::uint64_t trial_ = 0;
  int attempt_ = 0;
  std::uint64_t incarnation_ = 0;
  bool armed_ = false;
  Stats stats_;
};

}  // namespace hbmrd::fault
