#include "study/ber.h"

#include <algorithm>

namespace hbmrd::study {

void append_ber_init(bender::ProgramBuilder& builder, const AddressMap& map,
                     const dram::RowAddress& victim, const BerConfig& config) {
  const auto victim_bits = victim_row_bits(config.pattern);
  const auto aggressor_bits = aggressor_row_bits(config.pattern);
  const auto aggressors = map.aggressors_of(victim.row);

  builder.write_row(victim.bank, victim.row, victim_bits);
  for (int row : aggressors) {
    builder.write_row(victim.bank, row, aggressor_bits);
  }
  // V +- [2:init_ring] store the victim byte (Table 1).
  for (int row : map.physical_ring(victim.row, config.init_ring)) {
    if (std::find(aggressors.begin(), aggressors.end(), row) !=
        aggressors.end()) {
      continue;
    }
    builder.write_row(victim.bank, row, victim_bits);
  }
}

RowBerResult make_row_ber_result(const dram::RowAddress& victim,
                                 const dram::RowBits& read_back,
                                 const BerConfig& config) {
  const auto expected = victim_row_bits(config.pattern);
  RowBerResult row_result;
  row_result.victim = victim;
  read_back.diff_positions(expected, row_result.flipped_bits);
  row_result.bitflips = static_cast<int>(row_result.flipped_bits.size());
  row_result.ber =
      static_cast<double>(row_result.bitflips) / dram::kRowBits;
  return row_result;
}

namespace {

/// Builds the Table 1 initialization + double-sided hammer + victim readback
/// program for one victim row.
bender::Program make_ber_program(const AddressMap& map,
                                 const dram::RowAddress& victim,
                                 const BerConfig& config) {
  bender::ProgramBuilder builder;
  append_ber_init(builder, map, victim, config);
  builder.hammer(victim.bank, map.aggressors_of(victim.row),
                 config.hammer_count, config.on_cycles);
  builder.read_row(victim.bank, victim.row);
  return std::move(builder).build();
}

}  // namespace

RowBerResult measure_row_ber(bender::ChipSession& chip, const AddressMap& map,
                             const dram::RowAddress& victim,
                             const BerConfig& config) {
  const auto result = chip.run(make_ber_program(map, victim, config));
  return make_row_ber_result(victim, result.row(0), config);
}

}  // namespace hbmrd::study
