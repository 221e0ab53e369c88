#include "bender/session.h"

#include <stdexcept>

#include "dram/mode_registers.h"

namespace hbmrd::bender {

void ChipSession::write_row(const dram::RowAddress& address,
                            const dram::RowBits& bits) {
  ProgramBuilder builder;
  builder.write_row(address.bank, address.row, bits);
  run(std::move(builder).build());
}

dram::RowBits ChipSession::read_row(const dram::RowAddress& address) {
  ProgramBuilder builder;
  builder.read_row(address.bank, address.row);
  return run(std::move(builder).build()).row(0);
}

void ChipSession::hammer(const dram::BankAddress& bank,
                         std::span<const int> rows, std::uint64_t count,
                         dram::Cycle on_cycles) {
  ProgramBuilder builder;
  builder.hammer(bank, rows, count, on_cycles);
  run(std::move(builder).build());
}

void ChipSession::idle_with_refresh(double seconds, int channel) {
  if (seconds < 0.0) throw std::invalid_argument("negative idle time");
  const auto t_refi = stack().timing().t_refi;
  const auto refs = dram::seconds_to_cycles(seconds) / t_refi;
  if (refs == 0) {
    idle(seconds);
    return;
  }
  ProgramBuilder builder;
  builder.loop_begin(refs);
  builder.ref(channel);
  builder.wait(t_refi - 1);  // REF issue occupies one bus cycle
  builder.loop_end();
  run(std::move(builder).build());
}

void ChipSession::set_ecc_enabled(bool on) {
  ProgramBuilder builder;
  auto mr4 = stack().mode_register_read(dram::ModeRegisters::kEccRegister);
  if (on) {
    mr4 |= dram::ModeRegisters::kEccBit;
  } else {
    mr4 &= ~dram::ModeRegisters::kEccBit;
  }
  builder.mrs(dram::ModeRegisters::kEccRegister, mr4);
  run(std::move(builder).build());
}

}  // namespace hbmrd::bender
