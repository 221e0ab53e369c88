// Queries/sec of the batch query server's two paths (docs/SERVING.md):
//
//   * BM_ServeHitQuery — hc_first point queries answered from a loaded
//     `.hbmidx` index (the allocation-free hot path). items_per_second is
//     the headline hit-path qps; the acceptance floor is 1e5 qps
//     single-thread and the measured rate is orders of magnitude above.
//   * BM_ServeMissSimulate — the same query forced down the fallback
//     path: canonical-state restore + a full incremental HC search.
//
// The ratio of the two is the PR's index-vs-simulate speedup. The binary
// carries the BM_RowWalkAnchor machine-speed anchor (bench/anchor.h) so
// tools/bench_check.py can normalize against
// bench/baselines/BENCH_serve.json on any machine:
//   ./bench/serve_qps --benchmark_format=json > BENCH_serve.json
#include <benchmark/benchmark.h>

#include <string>

#include "anchor.h"
#include "bender/platform.h"
#include "dram/stack.h"
#include "serve/engine.h"
#include "serve/export.h"
#include "serve/index.h"
#include "study/address_map.h"

namespace {

using namespace hbmrd;

using bench::BM_RowWalkAnchor;
BENCHMARK(BM_RowWalkAnchor);

/// A hand-built 4096-row index: the hit path only reads records, so the
/// rung values need not come from simulation.
serve::Index hit_index() {
  serve::ExportSpec spec;
  spec.chip_index = 2;  // identity mapping
  spec.hc_depth = 1;
  serve::IndexBuilder builder(serve::manifest_for(spec));
  for (std::uint32_t row = 0; row < 4096; ++row) {
    builder.set_rung({0, 0, 0, 2, 0}, row, 1, 40000 + 37 * row);
  }
  return serve::Index::parse(builder.serialize(), "bench");
}

void BM_ServeHitQuery(benchmark::State& state) {
  serve::QueryEngine engine(hit_index());
  constexpr int kQueriesPerBatch = 256;
  std::string batch;
  for (int i = 0; i < kQueriesPerBatch; ++i) {
    batch += "hc_first 0 0 0 " + std::to_string((i * 181) % 4096) +
             " Checkered0\n";
  }
  serve::QueryScratch scratch;
  serve::ServeCounters counters;
  std::string response;
  for (auto _ : state) {
    response.clear();
    engine.run_batch(batch, response, scratch, nullptr, counters);
    benchmark::DoNotOptimize(response.data());
  }
  if (counters.hits != counters.queries) {
    state.SkipWithError("hit benchmark took a miss path");
  }
  state.SetItemsProcessed(state.iterations() * kQueriesPerBatch);
}
BENCHMARK(BM_ServeHitQuery);

void BM_ServeMissSimulate(benchmark::State& state) {
  serve::QueryEngine engine(hit_index());
  engine.set_bypass_index(true);  // every query simulates, none recorded
  bender::HbmChip chip(
      dram::chip_profiles(dram::kDefaultPlatformSeed)[2]);
  const auto map = study::AddressMap::from_scheme(chip.profile().mapping);
  serve::FallbackSession session(chip, map);
  const std::string batch = "hc_first 0 0 0 4300 Checkered0\n";
  serve::QueryScratch scratch;
  serve::ServeCounters counters;
  std::string response;
  for (auto _ : state) {
    response.clear();
    engine.run_batch(batch, response, scratch, &session, counters);
    benchmark::DoNotOptimize(response.data());
  }
  if (counters.fallback_simulations != counters.queries) {
    state.SkipWithError("miss benchmark was answered without simulating");
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServeMissSimulate);

}  // namespace

BENCHMARK_MAIN();
