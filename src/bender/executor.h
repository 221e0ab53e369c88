// The host-side command scheduler ("memory controller") of the simulated
// DRAM Bender stack.
//
// The executor plays programs against a Stack: each command is issued at the
// earliest cycle that satisfies the HBM2 timing rules (the device model
// independently asserts the same rules), WAIT instructions extend row
// on-times, and counted loops either run iteratively or, when the body only
// hammers one bank (ACT/WAIT/PRE runs, optionally with REFs on that bank's
// channel), through the device's analytic hammer fast path with identical
// semantics. Each [ACT..PRE] run of the body is planned once per loop
// (dram::HammerPlan) and applied to the bank as often as the loop needs
// (dram::Bank::apply). A REF-free body is one window of `iterations`
// rounds; a refresh-interleaved body (the TRR-bypass shape) replays its
// REFs at their exact iterative schedule and applies each run's plan as a
// one-round window.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "bender/program.h"
#include "dram/stack.h"
#include "util/counters.h"

namespace hbmrd::bender {

/// Host-side command counts since executor construction (= since the last
/// power cycle: HbmChip rebuilds the executor on power_cycle()). Counts
/// REPRESENTED commands: a fast-path hammer window contributes the
/// ACT/PRE commands its iterative equivalent would have issued, plus one
/// bulk_hammer_windows tick per analytic window. Pure functions of the
/// executed programs, so deterministic across --jobs N (the observability
/// layer's determinism contract relies on this).
struct ExecutorCounters {
  std::uint64_t acts = 0;
  std::uint64_t pres = 0;  // PRE and PREA commands
  std::uint64_t refs = 0;
  std::uint64_t bulk_hammer_windows = 0;

  static constexpr util::CounterField<ExecutorCounters> kCounterFields[] = {
      {"exec.acts", &ExecutorCounters::acts},
      {"exec.pres", &ExecutorCounters::pres},
      {"exec.refs", &ExecutorCounters::refs},
      {"exec.hammer_windows", &ExecutorCounters::bulk_hammer_windows},
  };
};

struct ExecutionResult {
  /// Data returned by RD instructions, in program order: one column read
  /// appends kWordsPerColumn words.
  std::vector<std::uint64_t> readout;
  dram::Cycle start_cycle = 0;
  dram::Cycle end_cycle = 0;

  [[nodiscard]] dram::Cycle elapsed() const { return end_cycle - start_cycle; }

  /// Reassembles the n-th row read by the program (counting read_row
  /// macros / groups of kColumns RD instructions).
  [[nodiscard]] dram::RowBits row(std::size_t index) const;

  /// Number of complete rows in the readout.
  [[nodiscard]] std::size_t row_count() const {
    return readout.size() /
           static_cast<std::size_t>(dram::RowBits::kWords);
  }
};

class Executor {
 private:
  struct BankSchedule {
    bool open = false;
    /// Earliest next ACT by the bank's own commands; the channel's REFs
    /// gate it further (act_ready()).
    dram::Cycle act_ok = 0;
    dram::Cycle pre_ok = 0;    // earliest next PRE (tRAS)
    dram::Cycle rdwr_ok = 0;   // earliest next RD/WR (tRCD)
    dram::Cycle last_act = 0;
  };

 public:
  explicit Executor(dram::Stack* stack);

  /// Runs one program to completion and returns its readout.
  ExecutionResult run(const Program& program);

  /// Idle time: advances the clock without issuing commands (retention
  /// experiments). DRAM contents keep decaying; nothing is refreshed.
  void advance(dram::Cycle cycles) { clock_ += cycles; }

  [[nodiscard]] dram::Cycle now() const { return clock_; }

  [[nodiscard]] const ExecutorCounters& counters() const { return counters_; }

  /// Opaque scheduler snapshot for the device checkpoint layer: the clock,
  /// every bank's timing window and every channel's REF window. Counters
  /// are not part of it (they count represented work, which is monotone
  /// even across restores).
  class Snapshot {
    friend class Executor;
    dram::Cycle clock = 0;
    std::vector<BankSchedule> bank_sched;
    std::vector<dram::Cycle> channel_ref_ok;
    std::vector<dram::Cycle> channel_act_ok;
  };

  /// Overwrites `s` with the current schedule; reuses its storage, so a
  /// snapshot saved into before does not allocate.
  void save_state(Snapshot& s) const {
    s.clock = clock_;
    s.bank_sched = bank_sched_;
    s.channel_ref_ok = channel_ref_ok_;
    s.channel_act_ok = channel_act_ok_;
  }

  void restore_state(const Snapshot& s) {
    clock_ = s.clock;
    bank_sched_ = s.bank_sched;
    channel_ref_ok_ = s.channel_ref_ok;
    channel_act_ok_ = s.channel_act_ok;
  }

  /// Cycles the next ACT to `bank` must still wait at the current clock
  /// (the command-context backlog left by whatever ran before); 0 when the
  /// bank is immediately activatable.
  [[nodiscard]] dram::Cycle act_backlog(const dram::BankAddress& bank) const;

 private:
  BankSchedule& sched(const dram::BankAddress& bank);
  [[nodiscard]] const BankSchedule& sched(const dram::BankAddress& bank) const;
  /// The schedules of one channel's banks; throws on a bad channel.
  std::span<BankSchedule> channel_sched(int channel);

  /// Earliest next ACT to `bank`: its own act_ok, and tRFC after the last
  /// REF to its channel.
  [[nodiscard]] dram::Cycle act_ready(const dram::BankAddress& bank,
                                      const BankSchedule& b) const {
    return std::max(b.act_ok,
                    channel_ref_ok_[static_cast<std::size_t>(bank.channel)]);
  }
  /// Raises a bank's act_ok to `until` (never lowers it) and its channel's
  /// latest act_ok with it.
  void hold_act(int channel, BankSchedule& b, dram::Cycle until);

  void exec_act(const ActInstr& instr);
  void exec_pre(const PreInstr& instr);
  void exec_pre_all(const PreAllInstr& instr);
  void exec_rd(const RdInstr& instr, ExecutionResult& result);
  void exec_wr(const WrInstr& instr, const Program& program);
  void exec_ref(const RefInstr& instr);
  void exec_mrs(const MrsInstr& instr);

  /// Runs a loop; returns the index one past the matching LoopEnd.
  std::size_t exec_loop(const Program& program, std::size_t begin_index,
                        ExecutionResult& result);

  /// Issues one non-loop instruction at its earliest legal cycle.
  void exec(const Program& program, const Instruction& instr,
            ExecutionResult& result);

  /// The hammer fast path for loop bodies of [ACT (WAIT)* PRE]+ runs on one
  /// bank, optionally mixed with REFs on that bank's channel (the TRR bypass
  /// shape of Sec. 7); true on success, false to run the loop iteratively.
  bool try_hammer_fast_path(const Program& program, std::size_t body_begin,
                            std::size_t body_end, std::uint64_t iterations);

  dram::Stack* stack_;
  dram::TimingParams timing_;
  dram::Cycle clock_ = 0;
  ExecutorCounters counters_;
  std::vector<BankSchedule> bank_sched_;
  /// Per channel: the earliest next REF (tRFC after the last one), which
  /// also gates every ACT to the channel, and the latest act_ok of its
  /// banks, which gates the next REF. A REF is a channel command and
  /// visits no bank schedule.
  std::vector<dram::Cycle> channel_ref_ok_;
  std::vector<dram::Cycle> channel_act_ok_;
};

}  // namespace hbmrd::bender
