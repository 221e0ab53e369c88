// The undocumented, proprietary TRR mechanism reverse engineered on Chip 0
// (paper Sec. 7). Behavioural contract, matching the paper's observations:
//
//  * Every 17th REF command is TRR-capable: it preventively refreshes the
//    two neighbours of every aggressor the mechanism detected since the
//    previous TRR-capable REF (Obsv. 24, 25).
//  * The first row activated after a TRR-capable REF is always detected as
//    an aggressor and held until the next TRR-capable REF (Obsv. 26).
//  * Between any two REF commands, a row whose activation count exceeds
//    half of all activations in that window is detected (Obsv. 27).
//  * A small recency sampler additionally tracks the last
//    `sampler_capacity` *distinct* rows activated; their neighbours are
//    refreshed at every TRR-capable REF. This is the structure the paper's
//    bypass pattern defeats: with >= 4 trailing dummy rows per refresh
//    interval the sampler holds only dummies (Fig. 14 finds exactly 4
//    dummy rows to be the bypass threshold).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "dram/defense.h"

namespace hbmrd::trr {

struct TrrParams {
  /// Every Nth REF of the channel (ordinal a multiple of N) performs the
  /// victim refreshes (Obsv. 24).
  int trr_ref_interval = 17;
  /// Entries in the recency sampler (bypass needs >= this many dummies).
  int sampler_capacity = 4;
  /// Latched aggressors held until the next TRR-capable REF.
  int pending_capacity = 4;
};

class UndocumentedTrr final : public dram::ReadDisturbDefense {
 public:
  explicit UndocumentedTrr(TrrParams params = {});

  void on_activate(int physical_row, dram::Cycle now) override;
  void on_window(const dram::ActivationWindow& window) override;
  std::vector<int> on_refresh(std::uint64_t ref) override;

  // All tracker state (window counts, sampler, latches, pending queue) is
  // plain copyable data, so the device checkpoint layer can snapshot it.
  [[nodiscard]] std::unique_ptr<dram::ReadDisturbDefense> clone()
      const override {
    return std::make_unique<UndocumentedTrr>(*this);
  }

  [[nodiscard]] const TrrParams& params() const { return p_; }

  // Introspection for tests.
  [[nodiscard]] const std::vector<int>& sampler() const { return sampler_; }
  [[nodiscard]] const std::vector<int>& pending() const { return pending_; }

 private:
  void count_activations(int physical_row, std::uint64_t count);
  void latch_pending(int physical_row);

  TrrParams p_;

  // All containers below are flat vectors, bounded by the handful of
  // distinct rows a refresh window sees (window_counts_) or the small
  // sampler/pending capacities. Flat storage keeps clone() — called for
  // every bank at every device-checkpoint push — allocation-free for idle
  // banks, where the hot path would otherwise copy empty node containers.

  // Window state since the previous REF (any REF, Obsv. 27).
  std::vector<std::pair<int, std::uint64_t>> window_counts_;
  std::uint64_t window_total_ = 0;

  // Rolling recency sampler of distinct rows (most recent at the front).
  std::vector<int> sampler_;

  // First-ACT latch: armed right after every TRR-capable REF (Obsv. 26).
  bool first_act_armed_ = true;  // the very first ACT after power-up counts
  std::optional<int> first_act_row_;

  // Aggressors detected since the last TRR-capable REF.
  std::vector<int> pending_;
};

}  // namespace hbmrd::trr
