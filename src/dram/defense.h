// Hook interface for in-DRAM read-disturbance defenses (e.g. the
// undocumented TRR mechanism of Sec. 7). One instance per bank; the device
// model notifies it of activations (one call per ACT, or one per applied
// hammer window) and asks it, on every REF to the bank's channel once the
// bank has had a command, which victim rows to preventively refresh.
// Implemented in src/trr/.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "dram/timing.h"

namespace hbmrd::dram {

/// One applied hammer window as a defense sees it: `rounds` back-to-back
/// repetitions of one round of steps, with no REF in between. A round is
/// summarized by its distinct rows, so a defense folds the whole window in
/// one call instead of one per step.
struct ActivationWindow {
  /// The round's distinct physical rows in first-activation order.
  std::span<const int> rows;
  /// ACTs of each of `rows` in one round (same order).
  std::span<const std::uint64_t> acts;
  /// The same rows ordered by their last ACT in a round, newest first.
  std::span<const int> recency;
  std::uint64_t rounds = 0;
  /// The cycle at which the window completes.
  Cycle now = 0;
};

class ReadDisturbDefense {
 public:
  virtual ~ReadDisturbDefense() = default;

  /// Deep copy of the tracker state. The device checkpoint layer keeps one
  /// per rung a bank is mutated under (Bank::open_layer), so every defense
  /// rides along in checkpoints and restores.
  [[nodiscard]] virtual std::unique_ptr<ReadDisturbDefense> clone() const = 0;

  /// Called on every ACT to this bank (physical row index).
  virtual void on_activate(int physical_row, Cycle now) = 0;

  /// Called once per window the hammer fast path applies (Bank::apply), in
  /// place of one on_activate per step. Window counts, first-ACT latches
  /// and recency samplers fold from the view alone: per-row totals are
  /// acts x rounds, the first ACT is rows[0], and move-to-front over the
  /// steps leaves the rows in `recency` order ahead of the untouched ones
  /// (repeating a round does not change last-ACT order).
  virtual void on_window(const ActivationWindow& window) = 0;

  /// Called on every REF to this bank's channel from the bank's first
  /// command on, with the REF's 1-based ordinal on the channel (the REFs
  /// before that first command found the defense in its initial state, in
  /// which a REF changes nothing but the ordinal). Returns the *physical*
  /// victim rows the defense preventively refreshes with this REF
  /// (possibly empty).
  virtual std::vector<int> on_refresh(std::uint64_t ref) = 0;
};

}  // namespace hbmrd::dram
