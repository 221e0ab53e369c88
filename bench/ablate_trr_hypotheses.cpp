// Ablation: discriminating power of the Sec. 7 reverse-engineering probes.
// Two mechanism hypotheses produce the same headline behaviour ("every
// 17th REF refreshes some victim") but differ in *how* aggressors are
// detected:
//   (a) the observed HBM2 mechanism — recency sampler + first-ACT latch +
//       half-count rule (trr::UndocumentedTrr), and
//   (b) a DDR4-vendor-A-style counter table (trr::CounterTrr).
// The bench runs the paper's two key probe patterns against both bare
// engines and shows each probe separates the hypotheses.
#include "common.h"

#include "trr/counter_trr.h"
#include "trr/undocumented_trr.h"

namespace {

using namespace hbmrd;

constexpr int kAggressor = 5000;
constexpr int kVictim = kAggressor + 1;

bool victim_refreshed(const std::vector<int>& victims) {
  return std::find(victims.begin(), victims.end(), kVictim) != victims.end();
}

/// Probe 1 (Obsv. 26): aggressor activated ONCE, first after a capable
/// REF; 16 windows of junk follow. Sampler/latch mechanisms still detect
/// it; a counter table has long forgotten a count-1 row.
bool first_act_probe(dram::ReadDisturbDefense& trr) {
  std::uint64_t ref = 0;  // the channel's REF ordinal
  while (ref < 17) trr.on_refresh(++ref);  // align phase
  trr.on_activate(kAggressor, 0);
  bool refreshed = false;
  for (int window = 0; window < 17; ++window) {
    for (int j = 0; j < 6; ++j) trr.on_activate(8000 + 8 * j, 0);
    if (victim_refreshed(trr.on_refresh(++ref))) refreshed = true;
  }
  return refreshed;
}

/// Probe 2: the aggressor dominates by *total count across windows* (900
/// activations spread evenly, never more than half of any single window,
/// never the first ACT, always flushed from the recency sampler). A
/// counter table catches it; the observed mechanism does not.
bool count_dominance_probe(dram::ReadDisturbDefense& trr) {
  std::uint64_t ref = 0;
  while (ref < 17) trr.on_refresh(++ref);
  bool refreshed = false;
  for (int window = 0; window < 34; ++window) {
    trr.on_activate(9000, 0);  // absorbs any first-ACT detector
    for (int i = 0; i < 26; ++i) {
      trr.on_activate(kAggressor, 0);
      trr.on_activate(9100 + (i % 13) * 8, 0);  // interleaved cover noise
    }
    for (int j = 0; j < 5; ++j) trr.on_activate(9300 + 8 * j, 0);
    if (victim_refreshed(trr.on_refresh(++ref))) refreshed = true;
  }
  return refreshed;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchContext ctx(argc, argv,
                          "Ablation: TRR mechanism hypotheses vs probes");

  util::Table table({"Probe", "observed HBM2 mechanism",
                     "counter-table hypothesis"});
  {
    trr::UndocumentedTrr observed;
    trr::CounterTrr counter;
    table.row()
        .cell("first-ACT-after-capable-REF (Obsv. 26)")
        .cell(first_act_probe(observed) ? "detects" : "silent")
        .cell(first_act_probe(counter) ? "detects" : "silent");
  }
  {
    trr::UndocumentedTrr observed;
    trr::CounterTrr counter;
    table.row()
        .cell("cross-window count dominance")
        .cell(count_dominance_probe(observed) ? "detects" : "silent")
        .cell(count_dominance_probe(counter) ? "detects" : "silent");
  }
  table.print(std::cout);

  ctx.banner("Reading");
  std::cout
      << "The paper's probes are not just descriptive: each pattern fires\n"
         "on exactly one hypothesis, so the U-TRR methodology can tell a\n"
         "sampler/latch design from a counter-table design. The tested\n"
         "HBM2 chip matches the sampler/latch column (Obsv. 24-27); DDR4\n"
         "vendor A in U-TRR matches the counter-table column.\n";
  return 0;
}
