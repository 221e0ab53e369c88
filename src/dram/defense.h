// Hook interface for in-DRAM read-disturbance defenses (e.g. the
// undocumented TRR mechanism of Sec. 7). One instance per bank; the device
// model notifies it of activations and asks it, on every REF to the bank's
// channel once the bank has had a command, which victim rows to
// preventively refresh. Implemented in src/trr/.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "dram/timing.h"

namespace hbmrd::dram {

class ReadDisturbDefense {
 public:
  virtual ~ReadDisturbDefense() = default;

  /// True when clone() returns a faithful deep copy of the tracker state.
  /// The device checkpoint layer (Bank::push_checkpoint) refuses to
  /// checkpoint a bank whose defense cannot be cloned, so sessions with
  /// such defenses fall back to the from-scratch measurement path.
  [[nodiscard]] virtual bool checkpointable() const { return false; }

  /// Deep copy of the defense state, or null when unsupported.
  [[nodiscard]] virtual std::unique_ptr<ReadDisturbDefense> clone() const {
    return nullptr;
  }

  /// Called on every ACT to this bank (physical row index).
  virtual void on_activate(int physical_row, Cycle now) = 0;

  /// Called by the simulator's hammer fast path: semantically equivalent to
  /// `count` consecutive on_activate calls for the same row.
  virtual void on_activate_bulk(int physical_row, std::uint64_t count,
                                Cycle now) = 0;

  /// Called on every REF to this bank's channel from the bank's first
  /// command on, with the REF's 1-based ordinal on the channel (the REFs
  /// before that first command found the defense in its initial state, in
  /// which a REF changes nothing but the ordinal). Returns the *physical*
  /// victim rows the defense preventively refreshes with this REF
  /// (possibly empty).
  virtual std::vector<int> on_refresh(std::uint64_t ref) = 0;
};

}  // namespace hbmrd::dram
