// Disturbance-dose bookkeeping for one victim row.
//
// A victim accumulates dose *epochs*: scalar doses tagged with the aggressor
// distance and the aggressor's contents at the time of the activations.
// Keeping the aggressor bits per epoch (instead of per cell) lets the device
// model stay O(touched rows) in memory while still applying bit-exact
// data-pattern coupling at sense time. An epoch holds the aggressor's
// contents by reference: the bank never mutates a contents buffer that is
// shared (it copies on write), so every epoch opened while the aggressor's
// contents were unchanged shares one immutable 1 KiB copy with the row.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "dram/row_data.h"

namespace hbmrd::disturb {

struct DoseEpoch {
  /// Physical row distance of the aggressor relative to the victim
  /// (-2, -1, +1, or +2).
  int distance = 0;
  /// Content-version of the aggressor when this epoch was opened; used to
  /// merge consecutive activations with unchanged aggressor data.
  std::uint64_t aggressor_version = 0;
  /// Per-activation dose, in equivalent minimum-on-time activations
  /// (already includes the tAggON and temperature factors, but *not* the
  /// per-bit coupling or the distance factor, which are applied at sense
  /// time).
  double unit = 0.0;
  /// Number of activations accumulated at that unit dose. Keeping the
  /// (unit, count) factorization instead of a pre-multiplied double makes
  /// dose accumulation associative: hammering a row in two windows of
  /// n and m activations yields bit-for-bit the same epoch as one window
  /// of n + m, which the checkpointed incremental HC search relies on.
  std::uint64_t count = 0;
  /// Aggressor contents during these activations, shared with the
  /// aggressor row; null = the aggressor's power-on contents (it was
  /// activated without ever being read or written). The aggressor is row
  /// `victim + distance`. Materializing contents keeps the version, so
  /// epochs merged across it hold equal contents either way.
  std::shared_ptr<const dram::RowBits> aggressor_bits;

  [[nodiscard]] double dose() const {
    return unit * static_cast<double>(count);
  }
};

/// The dose epochs of one victim row. Appends merge with the previous epoch
/// when the (distance, aggressor version, unit dose) triple is unchanged —
/// the common case during hammering.
class DoseLedger {
 public:
  /// `aggressor_bits` is the aggressor row's own contents handle
  /// (dram::Bank's RowState::bits), taken by reference to its exact type:
  /// a merging add touches no reference count, and an add that opens an
  /// epoch copies the handle once.
  void add(int distance, std::uint64_t aggressor_version,
           const std::shared_ptr<dram::RowBits>& aggressor_bits, double unit,
           std::uint64_t count = 1) {
    // Scan backwards (lists stay tiny): the most recent epoch is the common
    // match during hammering, but an older one can still merge.
    for (auto it = epochs_.rbegin(); it != epochs_.rend(); ++it) {
      if (it->distance == distance &&
          it->aggressor_version == aggressor_version && it->unit == unit) {
        it->count += count;
        return;
      }
    }
    epochs_.push_back(DoseEpoch{distance, aggressor_version, unit, count,
                                aggressor_bits});
  }

  void clear() { epochs_.clear(); }
  [[nodiscard]] bool empty() const { return epochs_.empty(); }
  [[nodiscard]] const std::vector<DoseEpoch>& epochs() const {
    return epochs_;
  }

  /// Total dose from adjacent (distance +-1) aggressors; a coarse summary
  /// used by tests and diagnostics.
  [[nodiscard]] double adjacent_dose() const {
    double total = 0.0;
    for (const auto& e : epochs_) {
      if (e.distance == 1 || e.distance == -1) total += e.dose();
    }
    return total;
  }

 private:
  std::vector<DoseEpoch> epochs_;
};

}  // namespace hbmrd::disturb
