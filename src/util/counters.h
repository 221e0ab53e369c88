// Counter structs (dram::BankCounters, serve::ServeCounters, ...) are
// aggregates of std::uint64_t counts. Each declares next to its members one
// field list, `static constexpr util::CounterField<S> kCounterFields[]`,
// giving every counter's metric name, member and kind. That list is the
// only place a counter is named: the helpers below sum and subtract structs
// through it, and obs::add_counters / obs::preregister put it into a
// MetricsRegistry. Adding a counter is one member plus one list line.
#pragma once

#include <cstdint>

namespace hbmrd::util {

/// A counter's determinism contract (docs/OBSERVABILITY.md).
enum class MetricKind {
  kDeterministic,  // must match across --jobs N; part of the fingerprint
  kTelemetry,      // host-side observation; excluded from the fingerprint
};

/// One counter of struct S.
template <class S>
struct CounterField {
  const char* name;  // metric name, such as device.acts
  std::uint64_t S::*member;
  MetricKind kind = MetricKind::kDeterministic;
};

/// Adds every listed counter of `from` into `into`.
template <class S>
void fold_counters(S& into, const S& from) {
  for (const auto& field : S::kCounterFields) {
    into.*field.member += from.*field.member;
  }
}

/// The listed counters of `now` minus those of `before`. Members outside
/// the list keep their default values.
template <class S>
[[nodiscard]] S counter_delta(const S& now, const S& before) {
  S delta{};
  for (const auto& field : S::kCounterFields) {
    delta.*field.member = now.*field.member - before.*field.member;
  }
  return delta;
}

}  // namespace hbmrd::util
