#include "bender/executor.h"

#include <algorithm>
#include <span>
#include <stdexcept>

namespace hbmrd::bender {

namespace {

/// Command-bus occupancy of one issued command.
constexpr dram::Cycle kIssueCycles = 1;
/// Mode-register-set settle time (simplified tMRD).
constexpr dram::Cycle kMrsCycles = 8;

/// Index of a channel's per-channel state; throws on a bad channel.
std::size_t channel_index(int channel) {
  if (channel < 0 || channel >= dram::kChannels) {
    throw std::out_of_range("channel index");
  }
  return static_cast<std::size_t>(channel);
}

}  // namespace

dram::RowBits ExecutionResult::row(std::size_t index) const {
  const auto words_per_row = static_cast<std::size_t>(dram::RowBits::kWords);
  if ((index + 1) * words_per_row > readout.size()) {
    throw std::out_of_range("ExecutionResult::row index");
  }
  dram::RowBits bits;
  const auto base = index * words_per_row;
  for (std::size_t w = 0; w < words_per_row; ++w) {
    bits.words()[w] = readout[base + w];
  }
  return bits;
}

Executor::Executor(dram::Stack* stack) : stack_(stack) {
  if (stack_ == nullptr) throw std::invalid_argument("Executor: null stack");
  timing_ = stack_->timing();
  bank_sched_.resize(dram::kBanks);
  channel_ref_ok_.resize(dram::kChannels, 0);
  channel_act_ok_.resize(dram::kChannels, 0);
}

Executor::BankSchedule& Executor::sched(const dram::BankAddress& bank) {
  dram::validate(bank);
  return bank_sched_[dram::flat_bank_index(bank)];
}

std::span<Executor::BankSchedule> Executor::channel_sched(int channel) {
  channel_index(channel);
  return {bank_sched_.data() + dram::channel_first_bank(channel),
          dram::kBanksPerChannel};
}

const Executor::BankSchedule& Executor::sched(
    const dram::BankAddress& bank) const {
  return const_cast<Executor*>(this)->sched(bank);
}

dram::Cycle Executor::act_backlog(const dram::BankAddress& bank) const {
  const dram::Cycle ready = act_ready(bank, sched(bank));
  return ready > clock_ ? ready - clock_ : 0;
}

void Executor::hold_act(int channel, BankSchedule& b, dram::Cycle until) {
  b.act_ok = std::max(b.act_ok, until);
  dram::Cycle& latest = channel_act_ok_[static_cast<std::size_t>(channel)];
  latest = std::max(latest, b.act_ok);
}

void Executor::exec_act(const ActInstr& instr) {
  ++counters_.acts;
  BankSchedule& b = sched(instr.bank);
  const dram::Cycle t = std::max(clock_, act_ready(instr.bank, b));
  stack_->activate({instr.bank, instr.row}, t);
  b.open = true;
  b.last_act = t;
  b.pre_ok = t + timing_.t_ras;
  b.rdwr_ok = t + timing_.t_rcd;
  hold_act(instr.bank.channel, b, t + timing_.t_rc);
  clock_ = t + kIssueCycles;
}

void Executor::exec_pre(const PreInstr& instr) {
  ++counters_.pres;
  BankSchedule& b = sched(instr.bank);
  const dram::Cycle t = b.open ? std::max(clock_, b.pre_ok) : clock_;
  stack_->precharge(instr.bank, t);
  if (b.open) {
    b.open = false;
    hold_act(instr.bank.channel, b, t + timing_.t_rp);
  }
  clock_ = t + kIssueCycles;
}

void Executor::exec_pre_all(const PreAllInstr& instr) {
  ++counters_.pres;
  // Schedule the PREA at a cycle legal for every open bank of the channel.
  const std::span<BankSchedule> banks = channel_sched(instr.channel);
  dram::Cycle t = clock_;
  for (const BankSchedule& b : banks) {
    if (b.open) t = std::max(t, b.pre_ok);
  }
  stack_->precharge_all(instr.channel, t);
  for (BankSchedule& b : banks) {
    if (b.open) {
      b.open = false;
      hold_act(instr.channel, b, t + timing_.t_rp);
    }
  }
  clock_ = t + kIssueCycles;
}

void Executor::exec_rd(const RdInstr& instr, ExecutionResult& result) {
  BankSchedule& b = sched(instr.bank);
  const dram::Cycle t = std::max(clock_, b.rdwr_ok);
  std::array<std::uint64_t, dram::kWordsPerColumn> buffer;
  stack_->read_column(instr.bank, instr.column, buffer, t);
  result.readout.insert(result.readout.end(), buffer.begin(), buffer.end());
  clock_ = t + kIssueCycles;
}

void Executor::exec_wr(const WrInstr& instr, const Program& program) {
  BankSchedule& b = sched(instr.bank);
  const dram::Cycle t = std::max(clock_, b.rdwr_ok);
  const auto& data =
      program.wdata.at(static_cast<std::size_t>(instr.wdata_slot));
  stack_->write_column(instr.bank, instr.column, data, t);
  clock_ = t + kIssueCycles;
}

void Executor::exec_ref(const RefInstr& instr) {
  const std::size_t channel = channel_index(instr.channel);
  ++counters_.refs;
  const dram::Cycle t = std::max(
      {clock_, channel_ref_ok_[channel], channel_act_ok_[channel]});
  stack_->refresh(instr.channel, t);
  channel_ref_ok_[channel] = t + timing_.t_rfc;
  clock_ = t + kIssueCycles;
}

void Executor::exec_mrs(const MrsInstr& instr) {
  stack_->mode_register_set(instr.reg, instr.value);
  clock_ += kMrsCycles;
}

void Executor::exec(const Program& program, const Instruction& instr,
                    ExecutionResult& result) {
  if (const auto* act = std::get_if<ActInstr>(&instr)) {
    exec_act(*act);
  } else if (const auto* pre = std::get_if<PreInstr>(&instr)) {
    exec_pre(*pre);
  } else if (const auto* prea = std::get_if<PreAllInstr>(&instr)) {
    exec_pre_all(*prea);
  } else if (const auto* rd = std::get_if<RdInstr>(&instr)) {
    exec_rd(*rd, result);
  } else if (const auto* wr = std::get_if<WrInstr>(&instr)) {
    exec_wr(*wr, program);
  } else if (const auto* ref = std::get_if<RefInstr>(&instr)) {
    exec_ref(*ref);
  } else if (const auto* mrs = std::get_if<MrsInstr>(&instr)) {
    exec_mrs(*mrs);
  } else if (const auto* wait = std::get_if<WaitInstr>(&instr)) {
    clock_ += wait->cycles;
  } else {
    // run() hands every LoopBegin to exec_loop(), which consumes its LoopEnd.
    throw std::invalid_argument("stray LoopEnd");
  }
}

bool Executor::try_hammer_fast_path(const Program& program,
                                    std::size_t body_begin,
                                    std::size_t body_end,
                                    std::uint64_t iterations) {
  // Eligible body: REF instructions interleaved with maximal
  // [ACT (WAIT)* PRE]+ runs, everything on one bank / that bank's channel.
  // An element with ref == nullptr is a hammer window over steps
  // [begin, end) of the shared step vector.
  struct Element {
    const RefInstr* ref;
    std::size_t begin;
    std::size_t end;
  };
  std::vector<Element> elements;
  std::vector<dram::HammerStep> steps;
  const dram::BankAddress* bank = nullptr;
  bool has_ref = false;
  std::size_t i = body_begin;
  while (i < body_end) {
    if (const auto* ref = std::get_if<RefInstr>(&program.instructions[i])) {
      elements.push_back({ref, 0, 0});
      has_ref = true;
      ++i;
      continue;
    }
    const std::size_t window_begin = steps.size();
    while (i < body_end) {
      const auto* act = std::get_if<ActInstr>(&program.instructions[i]);
      if (act == nullptr) break;
      if (bank == nullptr) {
        bank = &act->bank;
      } else if (act->bank != *bank) {
        return false;
      }
      ++i;
      dram::Cycle on = 0;
      while (i < body_end) {
        const auto* w = std::get_if<WaitInstr>(&program.instructions[i]);
        if (w == nullptr) break;
        on += w->cycles;
        ++i;
      }
      if (i >= body_end) return false;
      const auto* pre = std::get_if<PreInstr>(&program.instructions[i]);
      if (pre == nullptr || pre->bank != *bank) return false;
      ++i;
      // Same on-time the iterative path would produce: the PRE issues one
      // command-bus cycle after the ACT plus any WAITs, floored at tRAS.
      steps.push_back(dram::HammerStep{
          act->row, std::max(on + kIssueCycles, timing_.t_ras)});
    }
    // Neither a REF nor an ACT opened this element: unsupported instruction.
    if (steps.size() == window_begin) return false;
    elements.push_back({nullptr, window_begin, steps.size()});
  }
  if (bank == nullptr) return false;
  // REFs must target the hammered bank's channel: their tRFC gate on the
  // channel's ACTs then dominates the schedule exactly as in the iterative
  // path. A REF on another channel would see our conservative post-window
  // clock.
  for (const auto& e : elements) {
    if (e.ref != nullptr && e.ref->channel != bank->channel) return false;
  }
  BankSchedule& b = sched(*bank);
  if (b.open) return false;  // require a precharged bank, like the device

  // Plan every window once; each pass replays the plans.
  std::vector<dram::HammerPlan> plans;
  for (const auto& e : elements) {
    if (e.ref == nullptr) {
      plans.push_back(stack_->plan_hammer(
          *bank, std::span(steps).subspan(e.begin, e.end - e.begin)));
    }
  }
  dram::Bank& device = stack_->bank(*bank);

  // A REF-free body is one window of `iterations` rounds. Otherwise every
  // iteration replays the REFs at their exact iterative schedule and each
  // window as one round.
  const std::uint64_t rounds = has_ref ? 1 : iterations;
  const std::uint64_t passes = has_ref ? iterations : 1;
  for (std::uint64_t pass = 0; pass < passes; ++pass) {
    const dram::HammerPlan* plan = plans.data();
    for (const auto& e : elements) {
      if (e.ref != nullptr) {
        exec_ref(*e.ref);
        continue;
      }
      const dram::Cycle start = std::max(clock_, act_ready(*bank, b));
      const dram::Cycle end = device.apply(*plan, rounds, start);
      // Represented commands: each round replays every [ACT .. PRE] step.
      counters_.acts += rounds * plan->size();
      counters_.pres += rounds * plan->size();
      ++plan;
      ++counters_.bulk_hammer_windows;
      b.open = false;
      b.last_act = end;  // conservative: next ACT is gated by act_ok below
      hold_act(bank->channel, b, end);
      b.pre_ok = end;
      b.rdwr_ok = end;
      clock_ = end;
    }
  }
  return true;
}

std::size_t Executor::exec_loop(const Program& program,
                                std::size_t begin_index,
                                ExecutionResult& result) {
  const auto& begin =
      std::get<LoopBeginInstr>(program.instructions[begin_index]);
  // Find the matching LoopEnd (builder guarantees no nesting).
  std::size_t end_index = begin_index + 1;
  while (end_index < program.instructions.size() &&
         !std::holds_alternative<LoopEndInstr>(
             program.instructions[end_index])) {
    if (std::holds_alternative<LoopBeginInstr>(
            program.instructions[end_index])) {
      throw std::invalid_argument("nested loops are not supported");
    }
    ++end_index;
  }
  if (end_index >= program.instructions.size()) {
    throw std::invalid_argument("unterminated loop");
  }

  if (!try_hammer_fast_path(program, begin_index + 1, end_index,
                            begin.iterations)) {
    for (std::uint64_t iter = 0; iter < begin.iterations; ++iter) {
      for (std::size_t i = begin_index + 1; i < end_index; ++i) {
        exec(program, program.instructions[i], result);
      }
    }
  }
  return end_index + 1;
}

ExecutionResult Executor::run(const Program& program) {
  ExecutionResult result;
  result.start_cycle = clock_;
  std::size_t i = 0;
  while (i < program.instructions.size()) {
    if (std::holds_alternative<LoopBeginInstr>(program.instructions[i])) {
      i = exec_loop(program, i, result);
    } else {
      exec(program, program.instructions[i++], result);
    }
  }
  result.end_cycle = clock_;
  return result;
}

}  // namespace hbmrd::bender
