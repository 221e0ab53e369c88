// Resumable BER probing: the incremental-dose engine behind the HC_first /
// HC_nth searches.
//
// A BerProbe owns one (victim, pattern, on-time) measurement series. On a
// session with checkpoint support it initializes once, then reaches any
// probe count from the nearest lower device checkpoint
// (ChipSession::checkpoint()/restore()) by hammering only the delta —
// O(HC) activations for the whole search, because bisection probes replay
// at most the bracket gap and the ladder the bracketing phase leaves
// behind is reused. Sessions without checkpoint support take the
// from-scratch path: re-initialize the rows and replay the entire hammer
// for every probe, O(HC * log HC) activations per search.
//
// Byte-identity contract (tests/study_hc_incremental_test.cpp): flip sets,
// CSV checkpoints, and JSONL journals are identical on both paths. The
// engine never senses a dose state the from-scratch path would not have
// sensed (restore-then-delta reproduces the exact sensed dose trajectory),
// and it replays the from-scratch probe durations into the thermal rig
// through the session's probe accounting, so temperature and journal
// timing draws match. See docs/PERFORMANCE.md ("Incremental HC search")
// for the full argument.
#pragma once

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
  /// Uses the checkpointed engine when `chip.supports_checkpoints()`, and
  /// from-scratch probing otherwise (e.g. a defense that cannot be
  /// cloned). One BerProbe must be the only checkpoint user of its session
  /// while alive.
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
  int bitflips_at(std::uint64_t count);

  /// True when the checkpointed engine is active (not the fallback).
  [[nodiscard]] bool incremental() const { return incremental_; }

 private:
  const RowBerResult& probe_scratch(std::uint64_t count);
  const RowBerResult& probe_incremental(std::uint64_t count);

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
  bool incremental_ = false;
  std::vector<int> aggressors_;
  dram::Cycle t_rp_ = 0;

  bool initialized_ = false;
  dram::Cycle init_cycles_ = 0;   // measured first-probe init duration
  dram::Cycle ctx_backlog_ = 0;   // ACT backlog the first probe inherited
  /// Strictly increasing in both count and checkpoint id; entry 0 is the
  /// post-initialization state (count 0).
  std::vector<LadderEntry> ladder_;
  std::map<std::uint64_t, RowBerResult> memo_;
};

/// Smallest count with at least `n` flips, by exponential bracketing from
/// `lower` + bisection — the probe-sequence contract shared by find_hc_nth
/// and measure_hcn. `lower` must satisfy flips(lower - 1) < n (monotone
/// device model); nullopt when even `max_count` shows fewer than n flips.
[[nodiscard]] std::optional<std::uint64_t> find_nth_flip(
    BerProbe& probe, int n, std::uint64_t lower, std::uint64_t max_count);

}  // namespace hbmrd::study
