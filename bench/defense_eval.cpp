// Extension bench (Sec. 8.2): head-to-head evaluation of controller-side
// RowHammer defenses on the simulated chip — PARA (probabilistic),
// Graphene (deterministic tracking), BlockHammer (blacklist + throttle) —
// under (a) a double-sided attack and (b) a benign random workload, with
// uniform vs per-channel-adaptive protect thresholds.
#include "common.h"

#include "defense/blockhammer.h"
#include "defense/graphene.h"
#include "defense/para.h"
#include "defense/protected_session.h"
#include "study/hc_first.h"
#include "study/row_selection.h"

namespace {

using namespace hbmrd;

std::unique_ptr<defense::ControllerDefense> make_defense(
    const std::string& kind, std::uint64_t threshold,
    const study::AddressMap* map) {
  if (kind == "PARA") {
    defense::ParaConfig config;
    config.protect_threshold = threshold;
    return std::make_unique<defense::Para>(config, map);
  }
  if (kind == "Graphene") {
    defense::GrapheneConfig config;
    config.protect_threshold = threshold;
    config.table_entries = 128;
    config.window_activations = 670'000;
    return std::make_unique<defense::Graphene>(config, map);
  }
  defense::BlockHammerConfig config;
  config.protect_threshold = threshold;
  config.blacklist_threshold = std::max<std::uint64_t>(64, threshold / 8);
  return std::make_unique<defense::BlockHammer>(config);
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchContext ctx(argc, argv,
                          "Defense evaluation (Sec. 8.2 extension)");
  const int chip_index = static_cast<int>(ctx.cli().get_int("--chip", 4));
  auto& chip = ctx.platform().chip(chip_index);
  const auto& map = ctx.map_of(chip_index);
  const auto attack_hammers = static_cast<std::uint64_t>(
      ctx.cli().get_int("--hammers", 200'000));
  const dram::BankAddress bank{0, 0, 0};
  const dram::RowAddress victim{bank, 4301};
  const std::vector<int> aggressors = map.aggressors_of(victim.row);

  // The safe threshold: quarter of the sampled minimum HC_first.
  std::uint64_t sampled_min = ~0ull;
  for (int row : study::spread_rows(8)) {
    study::HcSearchConfig config;
    const auto hc = study::find_hc_first(chip, map, {bank, row}, config);
    if (hc) sampled_min = std::min(sampled_min, *hc);
  }
  const std::uint64_t threshold = std::max<std::uint64_t>(512, sampled_min / 4);
  std::cout << "Protect threshold: " << threshold << " (sampled min HC_first "
            << sampled_min << " / 4)\n";

  ctx.banner("Double-sided attack (" + std::to_string(attack_hammers) +
             " hammers/aggressor)");
  util::Table attack_table({"Defense", "victim bitflips",
                            "preventive refreshes / 1K ACTs",
                            "stalled ACTs", "slowdown"});
  for (const std::string kind : {"PARA", "Graphene", "BlockHammer"}) {
    // Fresh victim state per run.
    chip.write_row(victim, study::victim_row_bits(study::DataPattern::kCheckered0));
    for (int row : aggressors) {
      chip.write_row({bank, row},
                     study::aggressor_row_bits(study::DataPattern::kCheckered0));
    }
    const auto start = chip.now();
    defense::ProtectedSession session(&chip,
                                      make_defense(kind, threshold, &map));
    session.hammer(bank, aggressors, attack_hammers);
    const auto elapsed = chip.now() - start;
    const auto& stats = session.defense().stats();
    const int flips = chip.read_row(victim).count_diff(
        study::victim_row_bits(study::DataPattern::kCheckered0));
    const double baseline_cycles =
        static_cast<double>(attack_hammers * aggressors.size()) *
        static_cast<double>(chip.stack().timing().t_rc);
    attack_table.row()
        .cell(kind)
        .cell(flips)
        .cell(stats.refresh_overhead_per_kilo_act(), 2)
        .cell(stats.stalled_activations)
        .cell(util::format_double(
                  static_cast<double>(elapsed) / baseline_cycles, 2) +
              "x");
  }
  attack_table.print(std::cout);

  // Benign-workload and camouflaged-attack evaluation moved to arena_eval:
  // the arena scores every defense on multi-tenant traffic (benign
  // slowdown, preventive-refresh overhead) and on camouflaged/fuzzed
  // patterns, with checkpointed byte-identical leaderboard artifacts.
  ctx.banner("Per-channel adaptive thresholds (Takeaway 3 -> Sec. 8.2)");
  // PARA's refresh rate scales ~1/threshold: channels with higher minimum
  // HC_first afford a lower rate. Compare summed refresh probability.
  double uniform_cost = 0;
  double adaptive_cost = 0;
  std::uint64_t global_min = ~0ull;
  std::vector<std::uint64_t> channel_minima(dram::kChannels, 0);
  for (int ch = 0; ch < dram::kChannels; ++ch) {
    std::uint64_t lowest = ~0ull;
    for (int row : study::spread_rows(6)) {
      study::HcSearchConfig config;
      const auto hc =
          study::find_hc_first(chip, map, {{ch, 0, 0}, row}, config);
      if (hc) lowest = std::min(lowest, *hc);
    }
    channel_minima[static_cast<std::size_t>(ch)] = lowest;
    global_min = std::min(global_min, lowest);
  }
  for (int ch = 0; ch < dram::kChannels; ++ch) {
    defense::ParaConfig uniform_config;
    uniform_config.protect_threshold = std::max<std::uint64_t>(
        512, global_min / 4);
    defense::ParaConfig adaptive_config;
    adaptive_config.protect_threshold = std::max<std::uint64_t>(
        512, channel_minima[static_cast<std::size_t>(ch)] / 4);
    uniform_cost += defense::Para(uniform_config, &map).probability();
    adaptive_cost += defense::Para(adaptive_config, &map).probability();
  }
  ctx.compare("summed PARA refresh probability (8 channels)",
              "adaptive < uniform (heterogeneous vulnerability)",
              util::format_double(adaptive_cost, 5) + " vs " +
                  util::format_double(uniform_cost, 5) + " (" +
                  util::format_double(
                      100.0 * (1.0 - adaptive_cost / uniform_cost), 1) +
                  "% saved)");
  return 0;
}
