// One DRAM bank: the row array, the open-row state machine, disturbance
// dose accumulation, lazy bitflip materialization, its share of its
// channel's REFs, and the defense hook. All row indices at this layer are
// *physical*.
//
// Memory model: only rows that have been touched (written, activated, or
// disturbed) carry state; everything else is implicit (power-on contents,
// fully charged). A row state is a small record plus its dose epochs, held
// in a flat per-bank table. Its 1 KiB contents are materialized only when a
// column is read or written or a sense flips a cell; until then they are
// the row's power-on contents. Contents are copy-on-write: one immutable
// buffer is shared by the row, by every dose epoch it opened as an
// aggressor and by checkpoint pre-images, and a writer copies it first.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "disturb/dose.h"
#include "disturb/fault_model.h"
#include "disturb/threshold_cache.h"
#include "dram/defense.h"
#include "dram/geometry.h"
#include "dram/row_data.h"
#include "dram/timing.h"
#include "util/counters.h"

namespace hbmrd::dram {

/// Ambient conditions shared by all banks of a stack; owned by the Stack.
struct Environment {
  double temperature_c = 60.0;
};

/// Device-side event counters (diagnostics; benches report them).
struct BankCounters {
  std::uint64_t activations = 0;
  /// Filled by Stack::total_counters only (REFs issued x banks per
  /// channel): a REF is a channel command, which no Bank counts.
  std::uint64_t refresh_commands = 0;
  std::uint64_t defense_victim_refreshes = 0;
  std::uint64_t bitflips_materialized = 0;
  /// Bank::apply calls (one analytic hammer window each).
  std::uint64_t bulk_hammer_windows = 0;
  /// Steps of applied windows that activate an already-hammered row of
  /// the same window (refresh-window bursts repeat aggressors and
  /// dummies): the senses and lookups the per-distinct-row dedup saved.
  std::uint64_t hammer_dedup_hits = 0;
  /// 64-bit word operations of senses: one per word with a non-empty
  /// candidate mask, plus one per ledger epoch for each word whose dose
  /// classes were split; also the plane/uniform fills of the retention
  /// floor scan.
  std::uint64_t sense_word_ops = 0;
  /// Candidate cells of senses: the popcount of each sense's candidate
  /// mask (the population buckets the bounds cannot rule out).
  std::uint64_t sense_cells_visited = 0;

  static constexpr util::CounterField<BankCounters> kCounterFields[] = {
      {"device.acts", &BankCounters::activations},
      {"device.refs", &BankCounters::refresh_commands},
      {"device.victim_refreshes", &BankCounters::defense_victim_refreshes},
      {"device.bitflips", &BankCounters::bitflips_materialized},
      {"device.hammer_windows", &BankCounters::bulk_hammer_windows},
      {"device.dedup_hits", &BankCounters::hammer_dedup_hits},
      {"device.sense_word_ops", &BankCounters::sense_word_ops},
      {"device.sense_cells_visited", &BankCounters::sense_cells_visited},
  };
};

/// One activation of the hammer fast path: a row kept open for `on_cycles`.
struct HammerStep {
  /// Physical at the Bank layer; Stack::plan_hammer and Stack::bulk_hammer
  /// accept logical rows and translate them.
  int row = 0;
  Cycle on_cycles = 0;
};

class Bank;

/// One hammer window, planned once by Bank::plan and replayed by
/// Bank::apply: everything the window's steps alone decide, none of the
/// bank's row state. That is the physical steps, their canonical schedule,
/// the distinct rows and the victims each of them disturbs, the window's
/// dose folded per (row, tAggON unit) and, when the planning bank has a
/// defense, the defense's view of one round (ActivationWindow). Valid for
/// the bank that planned it (or one with the same timing, fault model and
/// defense presence).
class HammerPlan {
 public:
  /// Steps (activations) of one round of the window.
  [[nodiscard]] std::size_t size() const { return steps_.size(); }

 private:
  friend class Bank;
  HammerPlan() = default;

  /// A distinct row of the window, in first-activation order.
  struct Row {
    int row = 0;
    /// Offsets of its first and last ACT within one round.
    Cycle first_offset = 0;
    Cycle last_offset = 0;
    /// The rows its activations disturb, one per blast-radius distance;
    /// -1 where there is none (outside the bank or subarray) or the row is
    /// itself hammered (it restores itself every round).
    std::array<int, 4> victims{};
  };
  /// The steps of one distinct row with one unit dose: `count` activations
  /// per round, listed in the order of their first step.
  struct Dose {
    std::uint32_t row = 0;  // index into rows_
    double unit = 0.0;
    std::uint64_t count = 0;
  };

  std::vector<HammerStep> steps_;  // physical rows
  std::vector<Cycle> act_offset_;  // ACT of each step within a round
  Cycle period_ = 0;               // distance between round starts
  std::vector<Row> rows_;
  std::vector<Dose> doses_;
  /// The defense's view of one round, filled only when the planning bank
  /// has a defense: rows_ in first-activation order, each one's ACTs per
  /// round, and the same rows by last ACT, newest first.
  std::vector<int> defense_rows_;
  std::vector<std::uint64_t> defense_acts_;
  std::vector<int> defense_recency_;
};

/// The checkpoint ladder of a set of banks (a Stack's 256, or a test's
/// one): the number of rungs pushed and the banks that hold layers.
/// Pushing a rung visits no bank; each bank opens its layer for the top
/// rung at its first mutation after the push and joins the list. Restore
/// and discard visit only the listed banks, so every ladder operation
/// costs O(banks touched since the push), never O(banks).
class CheckpointLadder {
 public:
  CheckpointLadder() = default;
  CheckpointLadder(const CheckpointLadder&) = delete;
  CheckpointLadder& operator=(const CheckpointLadder&) = delete;

  /// Opens a new rung and returns its index.
  std::size_t push() { return depth_++; }

  /// Rewinds every bank to its state at the push of rung `index` and drops
  /// the younger rungs; `index` itself stays restorable.
  void restore(std::size_t index);

  /// Forgets every rung without changing the banks' state.
  void discard();

  [[nodiscard]] std::size_t depth() const { return depth_; }

 private:
  friend class Bank;

  std::size_t depth_ = 0;
  /// Banks holding at least one layer, each listed once.
  std::vector<Bank*> banks_;
};

/// The refresh state of one channel (a Stack has 8; a test's lone bank may
/// have its own): the channel's REF clock and the banks that have had a
/// command other than REF since power-on. A bank joins the list at its
/// first mutation, where it also joins the checkpoint ladder. A REF visits
/// only the listed banks. A bank that never had a command holds no row
/// state, its defense is in its initial state (which a REF does not
/// change) and its refresh pointer is the channel's, so skipping it
/// changes nothing, and a REF costs O(listed banks), never O(banks).
class RefreshChannel {
 public:
  explicit RefreshChannel(TimingParams timing)
      : timing_(timing), rows_per_ref_(timing.rows_per_ref()) {}
  RefreshChannel(const RefreshChannel&) = delete;
  RefreshChannel& operator=(const RefreshChannel&) = delete;
  /// Moves only before any bank has joined (banks point at the channel).
  RefreshChannel(RefreshChannel&&) noexcept = default;
  RefreshChannel& operator=(RefreshChannel&&) noexcept = default;

  /// One REF to the channel. Validates tRFC from the last REF and each
  /// listed bank's share (precharged, tRP after its last PRE) before
  /// anything changes, records the REF, then runs each listed bank's
  /// share: the refresh-pointer rows that have state and the victim rows
  /// of its defense.
  void refresh(Cycle now);

  [[nodiscard]] const RefreshClock& clock() const { return clock_; }
  /// Rewinds the clock to a snapshot of clock() (checkpoint restore).
  /// issued() keeps counting: it counts represented work.
  void set_clock(const RefreshClock& clock) { clock_ = clock; }

  /// REFs issued since construction, including rewound ones.
  [[nodiscard]] std::uint64_t issued() const { return issued_; }

  /// The first row the next REF refreshes in every bank of the channel:
  /// refs x rows_per_ref, modulo the rows of a bank.
  [[nodiscard]] int refresh_pointer() const;

 private:
  friend class Bank;

  TimingParams timing_;
  /// timing_.rows_per_ref(), computed once: it costs two divisions, and
  /// every REF reads it once per listed bank.
  int rows_per_ref_;
  RefreshClock clock_;
  std::uint64_t issued_ = 0;
  /// Banks that have had a command other than REF, in joining order.
  std::vector<Bank*> banks_;
};

class Bank {
 public:
  /// `threshold_cache` holds the per-row cell summaries every sense reads
  /// its candidate cells from; its capacity changes only how often a
  /// summary is rebuilt, never the result. The cache outlives the bank (it
  /// is shared across power cycles) and must only be used from the bank's
  /// thread. `ladder` is the checkpoint ladder the bank records layers for
  /// and `channel` the refresh state of the bank's channel; both outlive
  /// the bank, which must not move while it holds layers or is listed on
  /// the channel.
  Bank(BankAddress address, const disturb::FaultModel* fault_model,
       const Environment* env, TimingParams timing,
       disturb::BankThresholdCache& threshold_cache,
       CheckpointLadder& ladder, RefreshChannel& channel);

  Bank(const Bank&) = delete;
  Bank& operator=(const Bank&) = delete;
  Bank(Bank&&) noexcept;
  Bank& operator=(Bank&&) noexcept;
  ~Bank();

  [[nodiscard]] const BankAddress& address() const { return address_; }

  // -- Commands (timing-checked) -------------------------------------------

  void activate(int physical_row, Cycle now);
  void precharge(Cycle now);

  /// Column access on the open row.
  void read_column(int column, std::span<std::uint64_t> out, Cycle now);
  void write_column(int column, std::span<const std::uint64_t> data,
                    Cycle now);

  /// Refresh one specific physical row (used for documented-TRR-Mode
  /// refreshes and defense victim refreshes).
  void refresh_row(int physical_row, Cycle now);

  // -- Hammer fast path ------------------------------------------------------

  /// Plans a window of ACT(+on-time)+PRE steps over physical rows. Each
  /// step's on-time must be at least tRAS. Reads no row state; only
  /// whether the bank has a defense decides if the plan carries the
  /// defense's view of the window.
  [[nodiscard]] HammerPlan plan(std::vector<HammerStep> steps) const;

  /// Semantically equivalent to repeating the planned window `iterations`
  /// times starting at `start`. The bank must be precharged. Each distinct
  /// row is sensed once, its victims are resolved once, and each folded
  /// dose entry reaches each victim's ledger in one add of count x
  /// iterations activations: the same epochs, in the same order and with
  /// the same counts, as one add per activation. Victim dose is exact; the
  /// (negligible) residual self-dose of rows activated inside the loop is
  /// dropped (they are restored by their own activations). The defense
  /// sees the window in one on_window call: the plan's distinct rows, their
  /// ACTs per round and their last-ACT order, which fold to the same
  /// tracker state as every step in step order. Returns the cycle at which
  /// the burst completes (bank precharged).
  Cycle apply(const HammerPlan& plan, std::uint64_t iterations, Cycle start);

  /// apply(plan(steps), iterations, start).
  Cycle bulk_hammer(std::span<const HammerStep> steps,
                    std::uint64_t iterations, Cycle start) {
    return apply(plan({steps.begin(), steps.end()}), iterations, start);
  }

  // -- Defense ---------------------------------------------------------------

  void set_defense(std::unique_ptr<ReadDisturbDefense> defense) {
    defense_ = std::move(defense);
  }
  [[nodiscard]] ReadDisturbDefense* defense() { return defense_.get(); }

  // -- Dose checkpoints (copy-on-write) --------------------------------------
  //
  // A checkpoint captures the bank's device-visible state — row contents,
  // dose ledgers, retention clocks, open row, timing-checker state, and a
  // clone of the defense tracker — lazily, at two levels. (The refresh
  // pointer and the tRFC history are the channel's RefreshClock, which the
  // Stack snapshots per rung.) The bank opens its layer for the ladder's
  // top rung only at its first mutation after the push (ACT, PRE of an
  // open row, RD, WR, its share of a REF, refresh_row or apply), so a bank
  // that gets no command costs nothing (a REF skips a bank that never had
  // a command); and the layer copies a row's pre-image only the first time
  // that row is touched. Cost is O(rows touched since the push), never
  // O(rows per bank). Pushes, restores and discards go through the
  // CheckpointLadder the bank was built with. Used by the incremental HC
  // search engine (src/study/ber_probe.*) to rewind a hammered row to a
  // lower dose.

  /// Layers this bank holds (one per rung it was mutated under, at most
  /// the ladder's depth; 0 for a bank untouched since the first push).
  [[nodiscard]] std::size_t checkpoint_depth() const {
    return layers_.size();
  }

  // -- Introspection / simulator-only helpers -------------------------------

  [[nodiscard]] bool is_open() const { return open_row_.has_value(); }
  [[nodiscard]] int open_row() const;
  /// The channel's refresh pointer (see RefreshChannel).
  [[nodiscard]] int refresh_pointer() const {
    return channel_->refresh_pointer();
  }

  /// Drops all per-row simulator state (contents revert to power-on).
  /// Memory-reclaim hook for long sweeps; not a DRAM operation. Illegal
  /// while the ladder has rungs (no layer would rewind it).
  void drop_row_states();

  /// Number of rows currently carrying state.
  [[nodiscard]] std::size_t touched_rows() const { return rows_.size(); }

  /// Cumulative device-side event counters.
  [[nodiscard]] const BankCounters& counters() const { return counters_; }

  /// Dose ledger of a row, if it has state (tests/diagnostics only).
  [[nodiscard]] const disturb::DoseLedger* ledger(int physical_row) const;

  /// Stored contents and last restore time of a row.
  struct StoredRow {
    RowBits bits;
    Cycle last_restore;
  };

  /// A row's stored state, if it has any (tests/diagnostics only: the
  /// per-cell sense oracle starts from it). Contents that were never
  /// materialized are returned as the row's power-on contents; the call
  /// neither materializes them nor consults the threshold cache.
  [[nodiscard]] std::optional<StoredRow> stored_row(int physical_row) const;

 private:
  friend class CheckpointLadder;
  friend class RefreshChannel;

  struct RowState {
    /// Contents; null = the row's power-on contents, not yet materialized.
    /// Never mutated while shared (use_count() > 1): writers copy first, so
    /// dose epochs and checkpoint pre-images can hold the same buffer.
    std::shared_ptr<RowBits> bits;
    Cycle last_restore = 0;
    std::uint64_t version = 0;
    disturb::DoseLedger ledger;
    /// Cached minimum cell retention of this row at the reference
    /// temperature (seconds); < 0 = not yet computed. Senses skip the
    /// retention scan entirely while the unrefreshed time stays below it.
    double min_retention_ref_s = -1.0;
    /// Copy-on-write generation whose top layer already holds this row's
    /// pre-image (0 = none); see cow_touch().
    std::uint64_t cow_epoch = 0;
    /// Physical row of this state (the table erases by swapping the last
    /// entry into the hole, which must re-point that entry's slot).
    int row = 0;
  };

  /// The bank's state at the push of ladder rung `rung`: the scalars as
  /// the layer was opened (nothing changed between the push and then) plus
  /// lazily collected row pre-images (nullopt = the row had no state at
  /// push time; at most one per row, see cow_touch()).
  struct CheckpointLayer {
    std::size_t rung = 0;
    std::vector<std::pair<int, std::optional<RowState>>> pre;
    std::optional<int> open_row;
    BankTimingChecker checker;
    std::unique_ptr<ReadDisturbDefense> defense;  // clone; null if none
  };

  /// Called on entry to every command that may change the bank: joins the
  /// channel's REF list at the bank's first mutation, and opens the layer
  /// for the ladder's top rung unless the bank already holds it. Two
  /// compares once it has joined and holds the layer (or the ladder is
  /// empty).
  void cover_top_rung() {
    if (!on_channel_) {
      channel_->banks_.push_back(this);
      on_channel_ = true;
    }
    if (layer_top_ != ladder_->depth_) open_layer();
  }
  void open_layer();
  /// Undoes every layer whose rung is >= `rung`, newest first, and drops
  /// them; the bank is then as it was at that rung's push.
  void rewind_to(std::size_t rung);
  /// Drops every layer without changing the current state.
  void drop_layers();

  /// The row's state, created (dose-only: no contents) if it has none.
  /// Creating a state can grow the table and so invalidates every other
  /// RowState pointer and reference.
  RowState& state(int physical_row, Cycle now);
  [[nodiscard]] RowState* find_state(int physical_row);
  /// Index of the row's state in rows_, or -1 (also for rows outside the
  /// bank). No copy-on-write bookkeeping: for lookups that change nothing.
  [[nodiscard]] int slot_of(int physical_row) const {
    if (slot_.empty() || physical_row < 0 || physical_row >= kRowsPerBank) {
      return -1;
    }
    return slot_[static_cast<std::size_t>(physical_row)];
  }
  /// Removes the row's state: the last table entry moves into its slot.
  void erase_state(int physical_row);
  /// Makes room for `more` new row states, so that the next `more` state()
  /// calls keep every RowState pointer and reference valid.
  void reserve_states(std::size_t more) {
    const std::size_t grown = rows_.size() + more;
    if (grown > rows_.capacity()) {
      rows_.reserve(std::max(grown, 2 * rows_.capacity()));
    }
  }

  /// This bank's share of REF number `ref` of its channel (validated by
  /// RefreshChannel::refresh): senses and restores the channel's
  /// rows_per_ref rows from `first_row` that have state (in range by
  /// construction, so straight from the slot table, without
  /// refresh_row's checks), plus any victim rows the attached defense
  /// requests.
  void refresh(Cycle now, std::uint64_t ref, int first_row);

  /// The row's contents, materialized from its power-on contents first if
  /// it has none (one threshold-cache peek). Read-only: may be shared.
  const RowBits& contents(RowState& rs);

  /// Records `rs`'s pre-image into the top checkpoint layer if it has not
  /// been recorded since the layer became top. Called from every state
  /// lookup, so each mutation site is covered by construction. The
  /// pre-image shares the row's contents buffer instead of copying it.
  void cow_touch(RowState& rs) {
    if (layers_.empty() || rs.cow_epoch == cow_epoch_) return;
    layers_.back().pre.emplace_back(rs.row, rs);
    rs.cow_epoch = cow_epoch_;
  }

  /// Per-bank scratch arena: every per-sense/per-window buffer (candidate
  /// mask, retention plane and uniforms, dose-class groups and table)
  /// lives here, lazily allocated on first use so untouched banks stay
  /// cheap and the worker hot path is allocation-free in steady state.
  struct SenseArena;

  [[nodiscard]] SenseArena& arena();

  /// Sense: applies retention decay and disturbance flips to the stored
  /// bits, then clears the dose ledger and resets the retention clock.
  /// Three stages: the deterministic early-outs; a candidate mask of the
  /// row summary's population buckets the bounds cannot rule out; one word
  /// loop that decides the candidates 64 cells at a time. The loop reads the
  /// pre-sense contents in place (the summary's power-on plane for a row
  /// without contents) and writes flips into a fresh buffer.
  void sense_and_restore(int physical_row, RowState& row, Cycle now);

  /// Applies the disturbance of one aggressor activation burst to the
  /// aggressor's in-subarray neighbours. The aggressor must have state.
  /// Reserves room for the victims first, so each victim is resolved once
  /// (created if new); pre-images are recorded victims first, then the
  /// aggressor.
  void disturb_neighbors(int aggressor_row, double dose, Cycle now);

  void check_row(int physical_row) const;

  BankAddress address_;
  const disturb::FaultModel* fault_;
  const Environment* env_;
  TimingParams timing_;
  BankTimingChecker checker_;

  std::optional<int> open_row_;
  /// Flat row table: slot_[row] indexes rows_ (-1 = no state). Allocated
  /// with kRowsPerBank entries on the bank's first row state, so banks
  /// that are never touched stay small.
  std::vector<std::int16_t> slot_;
  std::vector<RowState> rows_;
  CheckpointLadder* ladder_;  // never null
  RefreshChannel* channel_;  // never null
  /// Listed on channel_ (from the bank's first mutation on).
  bool on_channel_ = false;
  /// This bank's layers, oldest (lowest rung) first; layer_top_ is one past
  /// the newest layer's rung (0 = no layers), so the bank covers the
  /// ladder's top rung iff layer_top_ == ladder_->depth_. cow_epoch_ is
  /// the generation that invalidates RowState::cow_epoch tags; bumped on
  /// every opened layer so stale tags never suppress a needed pre-image.
  std::vector<CheckpointLayer> layers_;
  std::size_t layer_top_ = 0;
  std::uint64_t cow_epoch_ = 0;
  std::unique_ptr<ReadDisturbDefense> defense_;
  BankCounters counters_;
  disturb::BankThresholdCache* threshold_cache_;  // never null
  std::unique_ptr<SenseArena> arena_;
};

}  // namespace hbmrd::dram
