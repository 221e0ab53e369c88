// Sec. 7, footnote 2: HBM2's *documented* TRR Mode lets the memory
// controller designate one target row whose neighbours the chip refreshes
// with every REF. This bench shows why it cannot replace a real defense:
// it protects exactly the designated row, so any victim the controller did
// not anticipate still falls to the bypass pattern — the paper's argument
// that attackers and defenders must reason about both mechanisms.
#include "common.h"
#include "study/bypass.h"

int main(int argc, char** argv) {
  using namespace hbmrd;
  bench::BenchContext ctx(argc, argv,
                          "Sec. 7 footnote 2: documented TRR Mode",
                          {{{"--windows", util::FlagKind::kInt,
                             "tREFI windows per attack (default 8205)"}}});
  auto& chip = ctx.platform().chip(0);
  const auto& map = ctx.map_of(0);
  const auto windows = static_cast<std::uint64_t>(
      ctx.cli().get_int("--windows", 8205));

  const dram::RowAddress protected_victim{{0, 0, 0}, 4301};
  const dram::RowAddress other_victim{{0, 0, 0}, 4701};

  // Arm TRR Mode through the mode registers, exactly as JESD235 describes:
  // the controller designates a suspected aggressor as the target, and the
  // device refreshes the target's two neighbours with every REF. Covering
  // `protected_victim` therefore means designating one of its aggressors.
  {
    const auto aggressors = map.aggressors_of(protected_victim.row);
    bender::ProgramBuilder builder;
    const auto mr3 = chip.stack().mode_register_read(
        dram::ModeRegisters::kTrrModeRegister);
    builder.mrs(dram::ModeRegisters::kTrrModeRegister,
                mr3 | dram::ModeRegisters::kTrrModeBit);
    builder.mrs(dram::ModeRegisters::kTrrRowRegister,
                static_cast<std::uint32_t>(aggressors.front()));
    builder.mrs(dram::ModeRegisters::kTrrBankRegister, 0);
    chip.run(std::move(builder).build());
  }

  study::BypassConfig config;
  config.dummy_rows = 8;
  config.aggressor_acts = 34;
  config.windows = windows;

  ctx.banner("Bypass attack vs both victims (TRR Mode armed on one)");
  util::Table table({"Victim", "TRR Mode covers it?", "bitflips", "BER"});
  const auto protected_result =
      study::run_bypass_attack(chip, map, protected_victim, config);
  const auto other_result =
      study::run_bypass_attack(chip, map, other_victim, config);
  table.row()
      .cell("row " + std::to_string(protected_victim.row))
      .cell("yes (designated)")
      .cell(protected_result.bitflips)
      .cell(bench::ber_pct(protected_result.ber));
  table.row()
      .cell("row " + std::to_string(other_victim.row))
      .cell("no")
      .cell(other_result.bitflips)
      .cell(bench::ber_pct(other_result.ber));
  table.print(std::cout);

  ctx.banner("Reading");
  ctx.compare("designated row survives the bypass", "TRR Mode works as specified",
              protected_result.bitflips == 0 ? "0 bitflips" : "FLIPPED");
  ctx.compare("any other row still falls",
              "one programmable target cannot cover 16384 rows/bank",
              other_result.bitflips > 0
                  ? std::to_string(other_result.bitflips) + " bitflips"
                  : "unexpectedly protected");
  std::cout
      << "Hence Sec. 8.2: controllers need scalable defenses (PARA/\n"
         "Graphene/BlockHammer — see defense_eval) rather than the\n"
         "documented single-target TRR Mode, and attackers must model both\n"
         "the documented and the undocumented mechanism.\n";
  return 0;
}
