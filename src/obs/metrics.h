// Campaign observability: a registry of named counters, gauges and
// histograms, deterministic by construction.
//
// The registry splits its contents by a hard contract line:
//
//   * deterministic counters — integer counts derived purely from the
//     simulation (commands issued, trials committed, store operations in
//     sequencer order). For a given campaign state on disk they are
//     byte-equal across `--jobs N`, across reruns, and across machines;
//     the tests diff them between --jobs 1 and --jobs 4, which makes the
//     metrics layer itself a correctness oracle for the parallel runner
//     (docs/OBSERVABILITY.md states the full contract);
//   * telemetry — wall-clock timings, cache hit/miss splits that depend on
//     dynamic work assignment, and other host-side measurements. Useful to
//     an operator, never compared, and kept strictly out of the CSV and
//     journal artifacts.
//
// Storage is std::map keyed by name, so serialization order — and with it
// the JSON snapshot and the deterministic fingerprint — never depends on
// insertion order or hashing.
//
// Threading: a registry belongs to the thread that drives the campaign
// sequencer (all store I/O and all metric accumulation happen there);
// there is deliberately no locking.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/counters.h"
#include "util/store.h"

namespace hbmrd::obs {

class TraceRecorder;

using util::MetricKind;

struct Histogram {
  /// Upper bounds of the finite buckets, ascending; values above the last
  /// bound land in the implicit +inf bucket (counts.size() == bounds + 1).
  std::vector<double> bounds;
  std::vector<std::uint64_t> counts;
  std::uint64_t total = 0;
  double sum = 0.0;

  void observe(double value);
};

class MetricsRegistry {
 public:
  /// Creates the counter if needed and adds `delta`. A metric's kind is
  /// fixed by its first registration; re-adding with a different kind is a
  /// logic error (throws std::logic_error) — the determinism contract of a
  /// name cannot depend on call order.
  void add(std::string_view name, std::uint64_t delta,
           MetricKind kind = MetricKind::kDeterministic);

  /// Last-write-wins scalar (always telemetry: gauges carry wall-clock
  /// rates, paths and other host-side observations).
  void set_gauge(std::string_view name, double value);

  /// Records one observation into the named histogram (always telemetry).
  /// The bucket layout is fixed at first use; `bounds` is consulted only
  /// then (empty = kDefaultSecondsBounds, for timings).
  void observe(std::string_view name, double value,
               const std::vector<double>& bounds = {});

  [[nodiscard]] std::uint64_t counter(std::string_view name) const;
  [[nodiscard]] bool has_counter(std::string_view name) const;

  /// `name=value` lines, one per deterministic counter, sorted by name.
  /// Two campaign runs that honor the determinism contract produce equal
  /// fingerprints; tests compare these across --jobs values.
  [[nodiscard]] std::string deterministic_fingerprint() const;

  /// The full JSON snapshot: {"deterministic":{...},"telemetry":
  /// {"counters":...,"gauges":...,"histograms":...},"spans":...}.
  /// Key order is the map order (sorted), so equal registries serialize to
  /// equal bytes. `trace` adds the span table (null = omitted).
  [[nodiscard]] std::string to_json(const TraceRecorder* trace = nullptr) const;

  /// Atomically replaces `path` with the JSON snapshot through the Store
  /// durability contract (write-temp + fsync + rename): a crash mid-export
  /// leaves the previous snapshot intact, never a torn one.
  void write_snapshot(util::Store& store, const std::string& path,
                      const TraceRecorder* trace = nullptr) const;

  /// Timing histogram bounds (seconds) used when observe() gets no bounds.
  static const std::vector<double>& kDefaultSecondsBounds();

 private:
  struct Counter {
    std::uint64_t value = 0;
    MetricKind kind = MetricKind::kDeterministic;
  };

  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, double, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

/// Adds each counter in S's field list under its metric name and kind.
template <class S>
void add_counters(MetricsRegistry& metrics, const S& counters) {
  for (const auto& field : S::kCounterFields) {
    metrics.add(field.name, counters.*field.member, field.kind);
  }
}

/// Registers S's deterministic counters at zero, so a snapshot carries them
/// even when a count stays zero. Telemetry counters appear when first added.
template <class S>
void preregister(MetricsRegistry& metrics) {
  for (const auto& field : S::kCounterFields) {
    if (field.kind == MetricKind::kDeterministic) metrics.add(field.name, 0);
  }
}

}  // namespace hbmrd::obs
