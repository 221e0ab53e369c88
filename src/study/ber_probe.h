// Resumable BER probing: the incremental-dose engine behind the HC_first /
// HC_nth searches.
//
// A BerProbe owns one (victim, pattern, on-time) measurement series. It
// initializes once, then reaches any probe count from the nearest lower
// device checkpoint (ChipSession::checkpoint()/restore()) by hammering only
// the delta — O(HC) activations for the whole search, because bisection
// probes replay at most the bracket gap and the ladder the bracketing phase
// leaves behind is reused. A from-scratch probe (re-initialize the rows and
// replay the entire hammer per probe) would cost O(HC * log HC).
//
// Byte-identity contract (tests/study_hc_incremental_test.cpp, whose
// ScratchProbe is that from-scratch probe, kept as the oracle): flip sets,
// CSV checkpoints, and JSONL journals are identical to it. The engine
// never senses a dose state the from-scratch probe would not have sensed
// (restore-then-delta reproduces the exact sensed dose trajectory), and it
// replays the from-scratch probe durations into the thermal rig through
// the session's probe accounting, so temperature and journal timing draws
// match. See docs/PERFORMANCE.md ("Incremental HC search") for the full
// argument.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "bender/session.h"
#include "study/address_map.h"
#include "study/ber.h"

namespace hbmrd::study {

class BerProbe {
 public:
  /// One BerProbe must be the only checkpoint user of its session while
  /// alive.
  BerProbe(bender::ChipSession& chip, const AddressMap& map,
           const dram::RowAddress& victim, const BerConfig& config);
  ~BerProbe();

  BerProbe(const BerProbe&) = delete;
  BerProbe& operator=(const BerProbe&) = delete;

  /// Full BER result at `count` activations per aggressor. Memoized: a
  /// count measured before is returned without touching the device, so a
  /// search never pays for the same probe twice.
  const RowBerResult& measure(std::uint64_t count);

  /// Bitflip count at `count` (memoized, see measure()).
  int bitflips_at(std::uint64_t count) { return measure(count).bitflips; }

 private:
  [[nodiscard]] bender::Program make_init_program() const;
  [[nodiscard]] bender::Program make_hammer_program(std::uint64_t count) const;
  [[nodiscard]] bender::Program make_read_program() const;

  /// One rung of the checkpoint ladder: the device state right after
  /// hammering `count` activations from the shared initialization, plus
  /// the cumulative hammer-phase cycles to reach it (for duration replay).
  struct LadderEntry {
    std::uint64_t count = 0;
    std::size_t checkpoint = 0;
    dram::Cycle hammer_cycles = 0;
  };

  bender::ChipSession& chip_;
  const AddressMap& map_;
  dram::RowAddress victim_;
  BerConfig config_;  // hoisted once per search, not per probe
  std::vector<int> aggressors_;
  dram::Cycle t_rp_ = 0;

  dram::Cycle init_cycles_ = 0;   // measured first-probe init duration
  dram::Cycle ctx_backlog_ = 0;   // ACT backlog the first probe inherited
  /// Strictly increasing in both count and checkpoint id; entry 0 is the
  /// post-initialization state (count 0).
  std::vector<LadderEntry> ladder_;
  std::map<std::uint64_t, RowBerResult> memo_;
};

/// Smallest count with at least `n` flips, by exponential bracketing from
/// `lower` + bisection — the probe-sequence contract shared by find_hc_nth
/// and measure_hcn. `Probe` is anything with `int bitflips_at(count)`: the
/// engine above, or a test's from-scratch oracle. `lower` must satisfy
/// flips(lower - 1) < n (monotone device model); nullopt when even
/// `max_count` shows fewer than n flips.
template <typename Probe>
[[nodiscard]] std::optional<std::uint64_t> find_nth_flip(
    Probe& probe, int n, std::uint64_t lower, std::uint64_t max_count) {
  // A single activation pair can already flip cells at extreme on-times
  // (Sec. 6: HC_first of 1 at tAggON = 16 ms).
  std::uint64_t lo = lower;
  if (probe.bitflips_at(lo) >= n) return lo;

  // Exponential bracketing from a coarse floor.
  std::uint64_t hi = std::max<std::uint64_t>(lo * 2, 1024);
  bool found = false;
  while (hi < max_count) {
    if (probe.bitflips_at(hi) >= n) {
      found = true;
      break;
    }
    lo = hi;
    hi *= 2;
  }
  if (!found) {
    hi = max_count;
    if (probe.bitflips_at(hi) < n) return std::nullopt;
  }
  // Invariant: flips(lo) < n <= flips(hi).
  while (lo + 1 < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (probe.bitflips_at(mid) < n) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return hi;
}

}  // namespace hbmrd::study
