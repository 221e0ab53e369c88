// An *alternative hypothesis* in-DRAM TRR: a per-bank counter table that
// refreshes the neighbours of the most-activated row at every TRR-capable
// REF (the DDR4 "vendor A" style mechanism U-TRR describes — the paper's
// reference [44]). The tested HBM2 chip does NOT behave like this; the
// engine exists so the Sec. 7 reverse-engineering probes can demonstrate
// their discriminating power (bench/ablate_trr_hypotheses): a first-ACT
// probe that fires on the real mechanism stays silent here, and vice
// versa for count-dominance behaviour.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "dram/defense.h"

namespace hbmrd::trr {

struct CounterTrrParams {
  /// Every Nth REF of the channel (ordinal a multiple of N) performs the
  /// victim refreshes.
  int trr_ref_interval = 17;
  /// Counter-table entries (rows tracked simultaneously).
  int table_entries = 8;
  /// How many top rows get their neighbours refreshed per capable REF.
  int refresh_top = 1;
};

class CounterTrr final : public dram::ReadDisturbDefense {
 public:
  explicit CounterTrr(CounterTrrParams params = {});

  void on_activate(int physical_row, dram::Cycle now) override;
  /// Notes acts x rounds per row, in first-activation order.
  void on_window(const dram::ActivationWindow& window) override;
  std::vector<int> on_refresh(std::uint64_t ref) override;

  // The counter table and the params are plain copyable data.
  [[nodiscard]] std::unique_ptr<dram::ReadDisturbDefense> clone()
      const override {
    return std::make_unique<CounterTrr>(*this);
  }

  [[nodiscard]] const CounterTrrParams& params() const { return p_; }
  [[nodiscard]] const std::map<int, std::uint64_t>& counters() const {
    return counters_;
  }

 private:
  void note(int physical_row, std::uint64_t count);

  CounterTrrParams p_;
  // Misra-Gries-style bounded counter table (what a small in-DRAM CAM
  // affords): decrement-all when full, evict zeros.
  std::map<int, std::uint64_t> counters_;
};

}  // namespace hbmrd::trr
