#include "study/ber_probe.h"

#include <stdexcept>

namespace hbmrd::study {

BerProbe::BerProbe(bender::ChipSession& chip, const AddressMap& map,
                   const dram::RowAddress& victim, const BerConfig& config)
    : chip_(chip),
      map_(map),
      victim_(victim),
      config_(config),
      aggressors_(map.aggressors_of(victim.row)),
      t_rp_(chip.stack().timing().t_rp) {
  // Anchor the thermal rig: from here on run() defers rig advances and the
  // engine replays the from-scratch probe durations explicitly.
  chip_.begin_probe_accounting();
}

BerProbe::~BerProbe() {
  chip_.end_probe_accounting();
  chip_.discard_checkpoints();
}

bender::Program BerProbe::make_init_program() const {
  bender::ProgramBuilder builder;
  append_ber_init(builder, map_, victim_, config_);
  return std::move(builder).build();
}

bender::Program BerProbe::make_hammer_program(std::uint64_t count) const {
  bender::ProgramBuilder builder;
  builder.hammer(victim_.bank, aggressors_, count, config_.on_cycles);
  return std::move(builder).build();
}

bender::Program BerProbe::make_read_program() const {
  bender::ProgramBuilder builder;
  builder.read_row(victim_.bank, victim_.row);
  return std::move(builder).build();
}

const RowBerResult& BerProbe::measure(std::uint64_t count) {
  if (count == 0) {
    throw std::invalid_argument("BerProbe: hammer count must be >= 1");
  }
  if (const auto it = memo_.find(count); it != memo_.end()) {
    return it->second;
  }
  ++chip_.probe_counters().hc_probes;
  const bool first = ladder_.empty();
  const dram::Cycle t0 = chip_.now();
  try {
    if (first) {
      // The first probe runs the exact from-scratch trajectory, split into
      // init / hammer / read programs (the split is command-invisible: the
      // scheduler state persists across run() calls), with a checkpoint
      // pushed after the initialization and one after the hammer.
      ctx_backlog_ = chip_.act_backlog(victim_.bank);
      init_cycles_ = chip_.run(make_init_program()).elapsed();
      ladder_.push_back({0, chip_.checkpoint(), 0});
    }

    // Nearest checkpoint at or below the requested count. The memo
    // guarantees `count` itself was never probed, so delta >= 1.
    std::size_t base_index = ladder_.size() - 1;
    while (ladder_[base_index].count > count) --base_index;
    const LadderEntry base = ladder_[base_index];
    chip_.restore(base.checkpoint);
    ladder_.resize(base_index + 1);  // restore() discarded younger rungs
    const std::uint64_t delta = count - base.count;

    dram::Cycle hammer_cycles = base.hammer_cycles;
    hammer_cycles += chip_.run(make_hammer_program(delta)).elapsed();
    ladder_.push_back({count, chip_.checkpoint(), hammer_cycles});

    const auto read = chip_.run(make_read_program());
    auto result = make_row_ber_result(victim_, read.row(0), config_);

    const auto steps = static_cast<std::uint64_t>(aggressors_.size());
    auto& counters = chip_.probe_counters();
    counters.hammers_replayed += delta * steps;
    counters.hammers_saved += (count - delta) * steps;

    // Replay the from-scratch probe duration into the thermal rig in one
    // piece, exactly as the from-scratch probe's single program would have:
    // the first probe pays the inherited ACT backlog; every later probe
    // starts tRP-1 cycles after the previous read's precharge.
    const dram::Cycle init_part =
        first ? init_cycles_ : init_cycles_ - ctx_backlog_ + (t_rp_ - 1);
    chip_.account_thermal_cycles(init_part + hammer_cycles + read.elapsed());

    return memo_.emplace(count, std::move(result)).first->second;
  } catch (...) {
    // A session fault unwinding through the engine. A readout fault left
    // the device exactly where the from-scratch run would have been (its
    // program completed before the readout was lost): charge the elapsed
    // cycles so the rig sees the same duration. Hang/reset faults power-
    // cycled the chip (device clock rewound to 0, accounting cleared) and
    // charged their own idle time — nothing to account here.
    const dram::Cycle now = chip_.now();
    if (now > t0) chip_.account_thermal_cycles(now - t0);
    throw;
  }
}

}  // namespace hbmrd::study
