// Test programs and the fluent builder used by the characterization library.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "bender/instruction.h"
#include "dram/row_data.h"

namespace hbmrd::bender {

/// Write data for one column (kBitsPerColumn bits).
using ColumnData = std::array<std::uint64_t, dram::kWordsPerColumn>;

struct Program {
  std::vector<Instruction> instructions;
  std::vector<ColumnData> wdata;
};

class ProgramBuilder {
 public:
  // -- Raw instructions ------------------------------------------------------

  ProgramBuilder& act(const dram::BankAddress& bank, int row);
  ProgramBuilder& pre(const dram::BankAddress& bank);
  ProgramBuilder& pre_all(int channel);
  ProgramBuilder& rd(const dram::BankAddress& bank, int column);
  ProgramBuilder& wr(const dram::BankAddress& bank, int column,
                     const ColumnData& data);
  ProgramBuilder& ref(int channel);
  ProgramBuilder& mrs(int reg, std::uint32_t value);
  ProgramBuilder& wait(dram::Cycle cycles);
  ProgramBuilder& loop_begin(std::uint64_t iterations);
  ProgramBuilder& loop_end();

  // -- Convenience macros (expand to raw instructions) ----------------------

  /// ACT + 32 column writes + PRE.
  ProgramBuilder& write_row(const dram::BankAddress& bank, int row,
                            const dram::RowBits& bits);

  /// ACT + 32 column reads + PRE. Reads land in the execution result's
  /// readout buffer in order; one row contributes kColumns * kWordsPerColumn
  /// words.
  ProgramBuilder& read_row(const dram::BankAddress& bank, int row);

  /// Counted hammer loop: activates each row in order, keeps it open for
  /// `on_cycles` (>= tRAS; pass 0 for the minimum), precharges, repeats.
  /// The executor runs this through the analytic fast path.
  ProgramBuilder& hammer(const dram::BankAddress& bank,
                         std::span<const int> rows, std::uint64_t count,
                         dram::Cycle on_cycles = 0);

  /// Reserves room for `instructions` instructions in total.
  void reserve(std::size_t instructions) {
    program_.instructions.reserve(instructions);
  }

  [[nodiscard]] Program build() &&;

 private:
  Program program_;
  int open_loops_ = 0;
};

}  // namespace hbmrd::bender
