// Batch query engine over a loaded `.hbmidx` index (docs/SERVING.md).
//
// A batch is a line-oriented text request; each line expands into one or
// more CSV response lines, in request order:
//
//   hc_first      <ch> <pc> <bank|lo..hi> <row|lo..hi> <pattern|*> [on=<ns>]
//   hc_nth <k>    <ch> <pc> <bank|lo..hi> <row|lo..hi> <pattern|*> [on=<ns>]
//   ber <count>   <ch> <pc> <bank|lo..hi> <row|lo..hi> <pattern|*> [on=<ns>]
//   min_retention <ch> <pc> <bank|lo..hi> <row|lo..hi>
//
// Ranges (`lo..hi`) are inclusive; `*` expands to all four data patterns;
// `on=<ns>` is the aggressor on-time in nanoseconds (converted to cycles
// with dram::ns_to_cycles, exactly like the shell's `on=` token). Blank
// lines and `#` comments are skipped. Responses:
//
//   hc_first,<ch>,<pc>,<bank>,<row>,<Pattern>,<on_cycles>,<hc|none>
//   hc_nth,<k>,<ch>,<pc>,<bank>,<row>,<Pattern>,<on_cycles>,<hc|none>
//   ber,<count>,<ch>,<pc>,<bank>,<row>,<Pattern>,<on_cycles>,<flips>
//   min_retention,<ch>,<pc>,<bank>,<row>,<seconds>
//   error,<line-number>,<message>
//
// `none` = the search bound (manifest max_hammer_count) induces no k-th
// flip. Doubles print shortest-round-trip (std::to_chars), so the same
// double produces identical bytes no matter where it came from.
//
// Byte-identity contract: a response line is identical whether it was
// answered from the index, from the fallback overlay, or by live
// simulation. The fallback path restores the chip to its canonical
// power-on state (the campaign worker's rig-snapshot + power_cycle idiom)
// before every simulation, so fallback answers are pure functions of
// (chip profile, query) — the same pure functions the exporter measured.
// tests/serve_engine_test.cpp and the CI serve-smoke step assert the
// identity byte-for-byte.
//
// Hot path: index-hit queries touch no lock and perform no allocation in
// steady state (token views live in the caller's QueryScratch, numbers
// format through std::to_chars into a stack buffer, responses append to
// the caller's reused string). Only the miss path takes the overlay mutex.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "bender/platform.h"
#include "serve/index.h"
#include "study/address_map.h"
#include "study/patterns.h"
#include "thermal/rig.h"
#include "util/counters.h"

namespace hbmrd::serve {

/// Deterministic serving counters (`serve.*` in the metrics catalogue).
struct ServeCounters {
  std::uint64_t batches = 0;
  std::uint64_t queries = 0;  // expanded single-point queries
  std::uint64_t hits = 0;     // answered from the index
  std::uint64_t overlay_hits = 0;  // answered from recorded fallbacks
  std::uint64_t misses = 0;        // not in index (simulated or refused)
  std::uint64_t fallback_simulations = 0;
  std::uint64_t errors = 0;        // malformed request lines
  std::uint64_t bytes_served = 0;  // response payload bytes

  static constexpr util::CounterField<ServeCounters> kCounterFields[] = {
      {"serve.batches", &ServeCounters::batches},
      {"serve.queries", &ServeCounters::queries},
      {"serve.index_hits", &ServeCounters::hits},
      {"serve.overlay_hits", &ServeCounters::overlay_hits},
      {"serve.misses", &ServeCounters::misses},
      {"serve.fallback_simulations", &ServeCounters::fallback_simulations},
      {"serve.errors", &ServeCounters::errors},
      {"serve.bytes_served", &ServeCounters::bytes_served},
  };
};

/// Per-thread parse scratch; reusing one keeps the hot path allocation-free.
struct QueryScratch {
  std::vector<std::string_view> tokens;
};

/// A chip the engine can fall back to. canonical() replays the campaign
/// worker's full trial idiom (runner/worker.cpp): restore_canonical() from
/// the rig snapshot taken at construction, then pin the device to the
/// profile's calibrated setpoint. The pin matters: campaign CSVs are
/// measured pinned, so an unpinned fallback would drift off the recorded
/// thresholds by the thermal epsilon and break byte-identity with
/// campaign-exported indexes.
class FallbackSession {
 public:
  FallbackSession(bender::HbmChip& chip, const study::AddressMap& map)
      : chip_(&chip), map_(&map), rig0_(chip.rig()) {}

  [[nodiscard]] bender::ChipSession& canonical() {
    chip_->restore_canonical(rig0_);
    chip_->pin_temperature(chip_->profile().setpoint_c());
    return *chip_;
  }
  [[nodiscard]] const study::AddressMap& map() const { return *map_; }

 private:
  bender::HbmChip* chip_;
  const study::AddressMap* map_;
  thermal::TemperatureRig rig0_;
};

// -- Canonical simulation semantics ----------------------------------------
// The single source of truth for what a query *means*: the exporter
// measures through these helpers and the engine falls back through them,
// which is what makes hit and miss answers byte-identical.

/// Smallest hammer count inducing k bitflips; kNoFlip when the bound is hit.
[[nodiscard]] std::uint64_t simulate_hc_nth(FallbackSession& session,
                                            const dram::RowAddress& victim,
                                            study::DataPattern pattern,
                                            std::uint64_t on_cycles, int k,
                                            std::uint64_t max_hammer_count);

/// Bitflip count at a given hammer count, defined as the number of
/// threshold rungs at or below it (#{k : HC_k(search_bound) <= count})
/// and computed through simulate_hc_nth with the SAME search bound the
/// exporter used (the manifest's max_hammer_count). The bound is part of
/// the function's identity: the incremental HC search's probe trajectory
/// — and therefore its epsilon at an exact boundary — depends on it, so
/// reusing the exporter's bound is what keeps ber answers byte-identical
/// across hit/miss paths even when `count` sits exactly on a threshold.
[[nodiscard]] int simulate_bitflips_at(FallbackSession& session,
                                       const dram::RowAddress& victim,
                                       study::DataPattern pattern,
                                       std::uint64_t on_cycles,
                                       std::uint64_t hammer_count,
                                       std::uint64_t search_bound);

/// Minimum cell retention of the row at reference temperature, seconds.
[[nodiscard]] double simulate_min_retention(FallbackSession& session,
                                            const dram::RowAddress& victim);

/// Parses a pattern name as printed by study::to_string ("Rowstripe0",
/// "Checkered1", ...); nullopt for anything else.
[[nodiscard]] std::optional<study::DataPattern> parse_pattern(
    std::string_view name);

struct Range {
  std::uint32_t lo = 0;
  std::uint32_t hi = 0;  // inclusive
};

/// "<n>" or "<lo>..<hi>" (inclusive); nullopt when malformed, reversed or
/// reaching `limit` (exclusive). Batch lines and the export verb's
/// `--bank`/`--rows` share it.
[[nodiscard]] std::optional<Range> parse_range(std::string_view text,
                                               std::uint32_t limit);

class QueryEngine {
 public:
  explicit QueryEngine(Index index) : index_(std::move(index)) {}

  [[nodiscard]] const Index& index() const { return index_; }

  /// Diagnostic mode (--force-miss): every query skips the index AND the
  /// overlay and simulates, without recording — the tool that proves the
  /// miss path produces the hit path's bytes.
  void set_bypass_index(bool bypass) { bypass_index_ = bypass; }

  /// When disabled (--no-fallback), a miss produces an error line instead
  /// of a simulation — the tool that proves index coverage.
  void set_fallback_enabled(bool enabled) { fallback_enabled_ = enabled; }

  /// Runs one batch: parses `request`, appends response lines to
  /// `response` (not cleared). `fallback` may be null (same as fallback
  /// disabled). Thread-safe; concurrent batches only contend on the
  /// overlay mutex, and only on the miss path.
  void run_batch(std::string_view request, std::string& response,
                 QueryScratch& scratch, FallbackSession* fallback,
                 ServeCounters& counters);

 private:
  // kind, k_or_count, ch, pc, bank, row, pattern_id, on_cycles
  using OverlayKey = std::array<std::uint64_t, 8>;

  [[nodiscard]] bool overlay_find(const OverlayKey& key,
                                  std::uint64_t* value);
  void overlay_record(const OverlayKey& key, std::uint64_t value);

  Index index_;
  bool bypass_index_ = false;
  bool fallback_enabled_ = true;

  std::mutex overlay_mutex_;
  /// Answers recorded from fallback simulations: a later identical query
  /// is a (slow-path, but simulation-free) overlay hit.
  std::map<OverlayKey, std::uint64_t> overlay_;
};

}  // namespace hbmrd::serve
