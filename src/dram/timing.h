// HBM2 command timing: the interface clock, the timing parameters relevant
// to the study, and a per-bank timing rule checker.
//
// The DRAM Bender infrastructure controls command timing at the granularity
// of one interface clock of 1.66 ns (600 MHz). All device time is therefore
// kept as an integer cycle count; nanoseconds are derived for display only.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "dram/geometry.h"

namespace hbmrd::dram {

using Cycle = std::uint64_t;

/// Interface clock: 600 MHz.
inline constexpr double kClockHz = 600.0e6;
inline constexpr double kNsPerCycle = 1.0e9 / kClockHz;  // ~1.6667 ns

[[nodiscard]] constexpr double cycles_to_ns(Cycle c) noexcept {
  return static_cast<double>(c) * kNsPerCycle;
}
[[nodiscard]] constexpr double cycles_to_seconds(Cycle c) noexcept {
  return static_cast<double>(c) / kClockHz;
}
[[nodiscard]] constexpr Cycle seconds_to_cycles(double s) noexcept {
  return static_cast<Cycle>(s * kClockHz + 0.5);
}
[[nodiscard]] constexpr Cycle ns_to_cycles(double ns) noexcept {
  return seconds_to_cycles(ns * 1e-9);
}

/// Timing parameters, in interface clock cycles. Values follow the paper's
/// HBM2 configuration: tRAS-limited minimum aggressor on-time of ~29 ns, a
/// tREFI of 3.9 us, a 32 ms refresh window, and an activation budget of
/// floor((tREFI - tRFC) / tRC) = 78 between two REF commands (Sec. 7).
struct TimingParams {
  Cycle t_ras = 18;   // row active time, 30.0 ns (paper: ~29 ns minimum)
  Cycle t_rp = 10;    // precharge latency, ~16.7 ns
  Cycle t_rcd = 10;   // ACT -> RD/WR, ~16.7 ns
  Cycle t_rc = 28;    // ACT -> ACT same bank = tRAS + tRP, ~46.7 ns
  Cycle t_rfc = 156;  // REF cycle time, 260 ns
  Cycle t_refi = 2340;         // average refresh interval, 3.9 us
  Cycle t_refw = 19'200'000;   // refresh window, 32 ms

  /// Maximum delay of a REF command: 9 * tREFI = 35.1 us (Sec. 2.2).
  [[nodiscard]] constexpr Cycle max_ref_delay() const { return 9 * t_refi; }

  /// ACT budget between two REFs: floor((tREFI - tRFC) / tRC) (Sec. 7).
  [[nodiscard]] constexpr int activation_budget() const {
    return static_cast<int>((t_refi - t_rfc) / t_rc);
  }

  /// REF commands per refresh window.
  [[nodiscard]] constexpr int refs_per_window() const {
    return static_cast<int>(t_refw / t_refi);
  }

  /// Rows refreshed per bank per REF so that every row is refreshed at least
  /// once per refresh window.
  [[nodiscard]] constexpr int rows_per_ref() const {
    const int refs = refs_per_window();
    return (kRowsPerBank + refs - 1) / refs;
  }
};

static_assert(TimingParams{}.activation_budget() == 78,
              "paper computes an activation budget of 78 for this chip");
static_assert(TimingParams{}.refs_per_window() == 8205,
              "paper repeats its bypass pattern 8205 times per tREFW");
static_assert(TimingParams{}.rows_per_ref() == 2);

/// Thrown when a command violates a timing rule or protocol state
/// (e.g. activating an already-open bank).
class TimingViolation : public std::runtime_error {
 public:
  explicit TimingViolation(const std::string& what)
      : std::runtime_error(what) {}
};

/// The REF history of one channel. REF is a channel command: every bank of
/// a channel sees the same REFs, so the tRFC rules, the banks' refresh
/// pointer and the in-DRAM TRR phase all read this one clock.
struct RefreshClock {
  /// REFs issued to the channel: the 1-based ordinal of the last one.
  std::uint64_t refs = 0;
  /// Cycle of the last REF (meaningful once refs > 0).
  Cycle last_ref = 0;

  /// Validates a REF at `now` against tRFC (REF to REF) and records it.
  void on_refresh(Cycle now, const TimingParams& p);
};

/// Tracks per-bank command history and enforces the timing rules above.
/// One checker instance per bank; the REF rules that span the channel read
/// its RefreshClock.
class BankTimingChecker {
 public:
  explicit BankTimingChecker(TimingParams params) : p_(params) {}

  /// Each on_* method validates the command at `now` and records it.
  /// `channel` is the REF clock of the bank's channel (tRFC, REF to ACT).
  void on_activate(Cycle now, const RefreshClock& channel);
  void on_precharge(Cycle now);
  void on_read(Cycle now) const;
  void on_write(Cycle now) const;

  /// Validates this bank's share of a REF at `now`: the bank is precharged
  /// and tRP has passed since its last PRE. The REF itself is recorded on
  /// the channel's RefreshClock.
  void check_refresh(Cycle now) const;

  /// A hammer window whose steps are legal by construction (see
  /// Bank::plan): validates its first ACT at `first_act`, the only step
  /// whose legality depends on the bank's history, and records the state
  /// after the window: last ACT at `last_act`, precharged at `last_pre`.
  void on_window(Cycle first_act, Cycle last_act, Cycle last_pre,
                 const RefreshClock& channel);

  [[nodiscard]] bool bank_open() const { return open_; }
  [[nodiscard]] Cycle open_since() const { return last_act_; }

 private:
  TimingParams p_;
  bool open_ = false;
  bool ever_activated_ = false;
  Cycle last_act_ = 0;
  Cycle last_pre_ = 0;
};

}  // namespace hbmrd::dram
