// The machine-speed anchor of tools/bench_check.py, shared by
// perf_simulator and serve_qps. It walks RowBits-sized buffers with a
// fixed chain of integer work and runs no simulator code, so a change to
// the device path cannot move it: it tracks only the machine.
#pragma once

#include <benchmark/benchmark.h>

#include <array>
#include <cstdint>

#include "dram/row_data.h"

namespace hbmrd::bench {

/// Folds 16 rows (16 KiB, cache-resident) word by word through a
/// multiply-xorshift chain. Every step depends on the last, so the loop
/// does not vectorize and its time is a fixed count of dependent
/// multiplies and L1/L2 reads.
inline void BM_RowWalkAnchor(benchmark::State& state) {
  std::array<dram::RowBits, 16> rows;
  std::uint64_t fill = 0x9E3779B97F4A7C15ull;
  for (auto& row : rows) {
    for (auto& word : row.words()) {
      fill ^= fill >> 31;
      fill *= 0xD6E8FEB86659FD93ull;
      word = fill;
    }
  }
  // The contents must not be folded into the loop at compile time.
  benchmark::DoNotOptimize(rows.data());
  benchmark::ClobberMemory();
  std::uint64_t hash = 0;
  for (auto _ : state) {
    for (const auto& row : rows) {
      for (const std::uint64_t word : row.words()) {
        hash = (hash ^ word) * 0xBF58476D1CE4E5B9ull;
        hash ^= hash >> 29;
      }
    }
    benchmark::DoNotOptimize(hash);
  }
}

}  // namespace hbmrd::bench
