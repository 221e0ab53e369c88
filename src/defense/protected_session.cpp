#include "defense/protected_session.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace hbmrd::defense {

namespace {

/// Programs are flushed once they reach this many instructions, bounding
/// builder memory during long attack runs.
constexpr std::size_t kFlushThreshold = 200'000;

}  // namespace

ProtectedSession::ProtectedSession(bender::ChipSession* chip,
                                   std::unique_ptr<ControllerDefense> defense,
                                   bool issue_periodic_refresh)
    : chip_(chip),
      defense_(std::move(defense)),
      issue_periodic_refresh_(issue_periodic_refresh) {
  if (chip_ == nullptr || defense_ == nullptr) {
    throw std::invalid_argument("ProtectedSession: null chip or defense");
  }
  estimated_cycle_ = chip_->now();
  const auto& timing = chip_->stack().timing();
  next_window_boundary_ = estimated_cycle_ + timing.t_refw;
  next_refresh_ = estimated_cycle_ + timing.t_refi;
  // Defenses that pace themselves against the decay cadence (BlockHammer)
  // must use the window this session will actually fire boundaries on.
  defense_->on_window_cadence(timing.t_refw);
}

void ProtectedSession::advance_estimate(dram::Cycle cycles) {
  estimated_cycle_ += cycles;
  accounted_cycles_ += cycles;
  while (estimated_cycle_ >= next_window_boundary_) {
    defense_->on_window_boundary();
    ++window_boundaries_fired_;
    next_window_boundary_ += chip_->stack().timing().t_refw;
  }
}

void ProtectedSession::append(const Activation& activation) {
  const auto& timing = chip_->stack().timing();
  touched_channels_.at(static_cast<std::size_t>(activation.bank.channel)) =
      true;

  // The controller's periodic refresh duty: one REF per elapsed tREFI per
  // channel. Every missed interval is made up — a dense stretch of traffic
  // (or a RowPress-style long on-time crossing several deadlines in one
  // command) must not swallow REF intervals, or the protected chip
  // under-refreshes exactly when the attack pressure is highest.
  if (issue_periodic_refresh_) {
    while (estimated_cycle_ >= next_refresh_) {
      for (int channel = 0; channel < dram::kChannels; ++channel) {
        if (!touched_channels_[static_cast<std::size_t>(channel)]) continue;
        builder_.ref(channel);
        ++pending_instructions_;
        ++periodic_refreshes_issued_;
        advance_estimate(timing.t_rfc);
      }
      next_refresh_ += timing.t_refi;
    }
  }

  const auto decision =
      defense_->on_activate(activation.bank, activation.row,
                            estimated_cycle_);
  if (decision.stall_cycles > 0) {
    builder_.wait(decision.stall_cycles);
    ++pending_instructions_;
    advance_estimate(decision.stall_cycles);
  }
  builder_.act(activation.bank, activation.row);
  ++pending_instructions_;
  dram::Cycle open_cost = timing.t_rc;
  if (activation.on_cycles > 0) {
    builder_.wait(activation.on_cycles);
    ++pending_instructions_;
    // Matches the executor's on-time semantics for [ACT WAIT PRE]: the row
    // stays open max(wait + issue, tRAS) cycles, then precharges in tRP.
    open_cost =
        std::max<dram::Cycle>(activation.on_cycles + 1, timing.t_ras) +
        timing.t_rp;
  }
  builder_.pre(activation.bank);
  ++pending_instructions_;
  advance_estimate(open_cost);
  for (int victim : decision.refresh_rows) {
    builder_.act(activation.bank, victim).pre(activation.bank);
    pending_instructions_ += 2;
    advance_estimate(timing.t_rc);
  }
  if (pending_instructions_ >= kFlushThreshold) flush();
}

void ProtectedSession::flush() {
  if (pending_instructions_ == 0) return;
  chip_->run(std::move(builder_).build());
  builder_ = bender::ProgramBuilder();
  pending_instructions_ = 0;
  // Re-anchor the estimate on the executor's real clock. The window and
  // refresh cursors are deadlines expressed on the same timeline as the
  // estimate, so they must shift by the same drift — otherwise a positive
  // drift makes on_window_boundary() fire in a burst (corrupting Graphene
  // resets and BlockHammer decay cadence) and a negative one silences it
  // for a window. Unsigned arithmetic makes the shift exact either way.
  const dram::Cycle drift = chip_->now() - estimated_cycle_;
  estimated_cycle_ += drift;
  next_window_boundary_ += drift;
  next_refresh_ += drift;
}

void ProtectedSession::run(std::span<const Activation> activations) {
  for (const auto& activation : activations) append(activation);
  flush();
}

void ProtectedSession::hammer(const dram::BankAddress& bank,
                              std::span<const int> rows,
                              std::uint64_t count) {
  for (std::uint64_t i = 0; i < count; ++i) {
    for (int row : rows) append(Activation{bank, row});
  }
  flush();
}

}  // namespace hbmrd::defense
