// Runs an activation stream through a chip with a controller-side defense
// in the loop: every workload activation is observed by the defense, whose
// preventive refreshes (ordinary ACT+PRE pairs to the victim rows) and
// throttling stalls are woven into the command stream.
#pragma once

#include <array>
#include <memory>
#include <span>
#include <utility>

#include "bender/session.h"
#include "defense/controller_defense.h"

namespace hbmrd::defense {

/// One workload activation.
struct Activation {
  dram::BankAddress bank;
  int row = 0;  // logical
  /// Extra cycles the row is held open before precharge (RowPress-style
  /// long tAggON). 0 means a plain ACT+PRE pair paced at tRC.
  dram::Cycle on_cycles = 0;
};

class ProtectedSession {
 public:
  /// `issue_periodic_refresh`: weave one REF per tREFI (to every touched
  /// channel) into the stream, as a real memory controller must. Required
  /// for throttling defenses (BlockHammer), whose guarantee presumes the
  /// periodic refresh of victims.
  ProtectedSession(bender::ChipSession* chip,
                   std::unique_ptr<ControllerDefense> defense,
                   bool issue_periodic_refresh = true);

  /// Issues the activations in order, applying the defense to each.
  /// Commands are batched into programs of bounded size.
  void run(std::span<const Activation> activations);

  /// Double-sided hammer through the defense: activates the rows in order,
  /// `count` times.
  void hammer(const dram::BankAddress& bank, std::span<const int> rows,
              std::uint64_t count);

  [[nodiscard]] ControllerDefense& defense() { return *defense_; }
  [[nodiscard]] bender::ChipSession& chip() { return *chip_; }

  /// --- Accounting introspection (used by tests and the arena scorer) ---

  /// The estimated-cycle cursor (re-anchored to the executor clock at each
  /// flush; between flushes it advances by per-command cost estimates).
  [[nodiscard]] dram::Cycle estimated_now() const { return estimated_cycle_; }
  /// Total estimated cycles this session has accounted for (sum of every
  /// advance_estimate delta; never re-anchored, unlike estimated_now()).
  [[nodiscard]] dram::Cycle accounted_cycles() const {
    return accounted_cycles_;
  }
  /// How many tREFW boundaries have fired on the defense. With the fixed
  /// drift re-anchoring this is exactly accounted_cycles() / tREFW.
  [[nodiscard]] std::uint64_t window_boundaries_fired() const {
    return window_boundaries_fired_;
  }
  /// Per-channel REF commands woven into the stream. With the fixed
  /// catch-up loop, for a single-channel stream this is exactly
  /// one per elapsed tREFI of accounted time.
  [[nodiscard]] std::uint64_t periodic_refreshes_issued() const {
    return periodic_refreshes_issued_;
  }

 private:
  void append(const Activation& activation);
  void flush();
  /// Fires window-boundary callbacks based on the estimated cycle cursor.
  void advance_estimate(dram::Cycle cycles);

  bender::ChipSession* chip_;
  std::unique_ptr<ControllerDefense> defense_;
  bool issue_periodic_refresh_;
  bender::ProgramBuilder builder_;
  std::size_t pending_instructions_ = 0;
  dram::Cycle estimated_cycle_;
  dram::Cycle next_window_boundary_;
  dram::Cycle next_refresh_;
  dram::Cycle accounted_cycles_ = 0;
  std::uint64_t window_boundaries_fired_ = 0;
  std::uint64_t periodic_refreshes_issued_ = 0;
  /// Channels the stream has activated, walked in channel order at each
  /// periodic REF.
  std::array<bool, dram::kChannels> touched_channels_{};
};

}  // namespace hbmrd::defense
