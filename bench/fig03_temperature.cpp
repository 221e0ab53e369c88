// Fig. 3: chip temperature over 24 hours, sampled every 5 seconds.
// Chip 0 is held at 82 C by the heating-pad/fan controller; the Alveo
// chips idle at stable ambient temperatures.
#include "common.h"

#include "thermal/rig.h"

int main(int argc, char** argv) {
  using namespace hbmrd;
  bench::BenchContext ctx(
      argc, argv, "Fig. 3: chip temperature over 24 h",
      {{{"--hours", util::FlagKind::kDouble,
         "trace length in hours (default 4; --full: 24)"}}});

  const double hours = ctx.full() ? 24.0 : ctx.cli().get_double("--hours", 4.0);
  const double sample_period_s = 5.0;

  ctx.banner("Per-chip temperature traces (" + util::format_double(hours, 0) +
             " h, 5 s samples)");
  util::Table table(
      {"Chip", "samples", "min C", "mean C", "max C", "stddev C"});
  for (int i = 0; i < ctx.platform().chip_count(); ++i) {
    const auto& profile = ctx.platform().chip(i).profile();
    // Fresh rigs so every chip's trace starts from its warm steady state.
    auto rig = profile.temperature_controlled
                   ? thermal::TemperatureRig::controlled(
                         profile.disturb.seed, profile.target_temperature_c)
                   : thermal::TemperatureRig::ambient(
                         profile.disturb.seed,
                         profile.ambient_temperature_c);
    rig.advance(1800.0);  // warm-up
    std::vector<double> samples;
    const auto count = static_cast<int>(hours * 3600.0 / sample_period_s);
    for (int s = 0; s < count; ++s) {
      rig.advance(sample_period_s);
      samples.push_back(rig.temperature_c());
    }
    const auto summary = util::summarize(samples);
    table.row()
        .cell(profile.label)
        .cell(samples.size())
        .cell(summary.min, 2)
        .cell(summary.mean, 2)
        .cell(summary.max, 2)
        .cell(util::stddev(samples), 3);
  }
  table.print(std::cout);

  ctx.compare("Chip 0 setpoint", "82 C, stable over 24 h",
              "mean within the controller's hysteresis band (table above)");
  ctx.compare("Chips 1-5", "stable ambient temperatures",
              "sub-degree stddev (table above)");
  return 0;
}
