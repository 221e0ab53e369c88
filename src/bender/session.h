// The host-side chip session: the interface through which the
// characterization library (src/study/) and the campaign runner
// (src/runner/) talk to one HBM2 stack.
//
// A session is the unit that fails in a long campaign: the DRAM Bender host
// process, its readout link, and the board it drives. Splitting the
// interface from HbmChip lets src/fault/ interpose a FaultyChip that
// injects link corruption, hangs, and board resets without the study code
// knowing — the study layer is written against ChipSession only.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "bender/executor.h"
#include "bender/program.h"
#include "dram/chip_profiles.h"
#include "dram/stack.h"
#include "util/counters.h"

namespace hbmrd::bender {

/// Deterministic probe-engine counters, one set per session. Filled by the
/// incremental HC search engine (src/study/ber_probe.*) and surfaced as the
/// study.* campaign metrics (docs/OBSERVABILITY.md): pure functions of the
/// executed searches, byte-equal across --jobs N.
struct ProbeCounters {
  /// Hammer-count probes measured on the device (memoized repeats excluded).
  std::uint64_t hc_probes = 0;
  /// Aggressor activations actually simulated by probes.
  std::uint64_t hammers_replayed = 0;
  /// Aggressor activations a from-scratch probe would have replayed but a
  /// checkpoint restore skipped.
  std::uint64_t hammers_saved = 0;

  static constexpr util::CounterField<ProbeCounters> kCounterFields[] = {
      {"study.hc_probes", &ProbeCounters::hc_probes},
      {"study.hammers_replayed", &ProbeCounters::hammers_replayed},
      {"study.hammers_saved", &ProbeCounters::hammers_saved},
  };
};

class ChipSession {
 public:
  virtual ~ChipSession() = default;

  [[nodiscard]] virtual const dram::ChipProfile& profile() const = 0;

  /// Runs a program; the chip's thermal state advances by the elapsed time.
  virtual ExecutionResult run(const Program& program) = 0;

  /// Idle time without any commands (DRAM decays; Sec. 7 retention probes).
  virtual void idle(double seconds) = 0;

  [[nodiscard]] virtual dram::Cycle now() const = 0;
  [[nodiscard]] virtual double temperature_c() = 0;

  /// Device backdoor for tests and diagnostics (not part of the host
  /// protocol). Faults never live below this line: a FaultyChip forwards
  /// stack() to the real device.
  [[nodiscard]] virtual dram::Stack& stack() = 0;

  // -- Device-state checkpoints (incremental-dose probe engine) -------------
  // Every session checkpoints: HbmChip implements these, and a decorator
  // (FaultyChip) must forward each one, so faults stay transparent to the
  // probe engine. They are pure virtual so a decorator that drops one does
  // not compile.

  /// Always true; no code consults it. It stays only because perfbench's
  /// TimedSession still overrides it, and it is deleted with the next
  /// perfbench change (ROADMAP item 8).
  [[nodiscard]] virtual bool supports_checkpoints() const { return true; }

  /// Captures the device state (copy-on-write) and returns a checkpoint id.
  virtual std::size_t checkpoint() = 0;

  /// Rewinds the device to checkpoint `id` (discarding younger ones; `id`
  /// stays valid). Throws after a power cycle: checkpoints do not survive
  /// the stack rebuild.
  virtual void restore(std::size_t id) = 0;

  /// Forgets all checkpoints without changing the current state.
  virtual void discard_checkpoints() = 0;

  /// Probe-duration accounting: between begin and end, run() defers the
  /// thermal-rig advance and the caller replays the legacy-equivalent
  /// duration through account_thermal_cycles(), so checkpoint replays do
  /// not double-charge wall-clock time.
  virtual void begin_probe_accounting() = 0;
  virtual void account_thermal_cycles(dram::Cycle cycles) = 0;
  virtual void end_probe_accounting() = 0;

  /// Cycles the next ACT to `bank` would still wait at the current clock.
  [[nodiscard]] virtual dram::Cycle act_backlog(
      const dram::BankAddress& bank) = 0;

  /// The session's probe-engine counters (see ProbeCounters).
  [[nodiscard]] ProbeCounters& probe_counters() { return probe_counters_; }
  [[nodiscard]] const ProbeCounters& probe_counters() const {
    return probe_counters_;
  }

  // -- SoftMC-style convenience wrappers (each runs a small program) --------
  // Implemented on run()/stack() so that session-layer faults apply to all
  // of them uniformly.

  void write_row(const dram::RowAddress& address, const dram::RowBits& bits);
  [[nodiscard]] dram::RowBits read_row(const dram::RowAddress& address);

  /// Hammers the given rows in order `count` times, each activation keeping
  /// the row open for `on_cycles` (0 = minimum tRAS).
  void hammer(const dram::BankAddress& bank, std::span<const int> rows,
              std::uint64_t count, dram::Cycle on_cycles = 0);

  /// Idle time while issuing REF to one channel every tREFI.
  void idle_with_refresh(double seconds, int channel);

  /// ECC mode register (disabled for characterization, Sec. 3.1).
  void set_ecc_enabled(bool on);

 private:
  ProbeCounters probe_counters_;
};

}  // namespace hbmrd::bender
