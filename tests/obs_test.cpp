// Units for the observability layer: metrics registry, trace spans,
// progress reporter (with an injected clock), and the instrumented store
// decorator. The campaign-level determinism contract is covered by
// obs_campaign_test.cpp.
#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string>

#include "obs/instrumented_store.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "scratch.h"
#include "util/store.h"

namespace hbmrd::obs {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

TEST(MetricsRegistry, CountersAccumulateAndReadBack) {
  MetricsRegistry metrics;
  EXPECT_FALSE(metrics.has_counter("a"));
  EXPECT_EQ(metrics.counter("a"), 0u);
  metrics.add("a", 2);
  metrics.add("a", 3);
  EXPECT_TRUE(metrics.has_counter("a"));
  EXPECT_EQ(metrics.counter("a"), 5u);
}

TEST(MetricsRegistry, KindIsFixedByFirstRegistration) {
  MetricsRegistry metrics;
  metrics.add("det", 1, MetricKind::kDeterministic);
  metrics.add("tel", 1, MetricKind::kTelemetry);
  metrics.add("det", 1, MetricKind::kDeterministic);  // same kind: fine
  EXPECT_THROW(metrics.add("det", 1, MetricKind::kTelemetry),
               std::logic_error);
  EXPECT_THROW(metrics.add("tel", 1, MetricKind::kDeterministic),
               std::logic_error);
}

TEST(MetricsRegistry, FingerprintIsSortedAndDeterministicOnly) {
  MetricsRegistry metrics;
  metrics.add("z.last", 1);
  metrics.add("a.first", 2);
  metrics.add("m.telemetry", 99, MetricKind::kTelemetry);
  metrics.set_gauge("gauge", 1.5);
  metrics.observe("hist", 0.5);
  EXPECT_EQ(metrics.deterministic_fingerprint(), "a.first=2\nz.last=1\n");
}

TEST(MetricsRegistry, JsonSnapshotHasTheContractedSections) {
  MetricsRegistry metrics;
  metrics.add("campaign.trials", 7);
  metrics.add("cache.hits", 3, MetricKind::kTelemetry);
  metrics.set_gauge("campaign.wall_s", 1.25);
  metrics.observe("trial.wall_s", 0.002);
  TraceRecorder trace;
  trace.record("campaign", 2.0);
  const auto json = metrics.to_json(&trace);
  for (const char* key :
       {"\"deterministic\"", "\"telemetry\"", "\"counters\"", "\"gauges\"",
        "\"histograms\"", "\"spans\"", "\"campaign.trials\": 7",
        "\"cache.hits\": 3", "\"campaign.wall_s\"", "\"trial.wall_s\"",
        "\"campaign\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " in " << json;
  }
  // Without a trace the spans section is omitted.
  EXPECT_EQ(metrics.to_json(nullptr).find("\"spans\""), std::string::npos);
}

TEST(MetricsRegistry, EqualRegistriesSerializeToEqualBytes) {
  MetricsRegistry a, b;
  // Different insertion order, same contents.
  a.add("x", 1);
  a.add("y", 2);
  b.add("y", 2);
  b.add("x", 1);
  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_EQ(a.deterministic_fingerprint(), b.deterministic_fingerprint());
}

TEST(MetricsRegistry, WriteSnapshotAtomicallyReplaces) {
  const auto path = scratch_path("snapshot.json");
  auto store = util::default_store();
  store->atomic_replace(path, "previous contents");
  MetricsRegistry metrics;
  metrics.add("k", 42);
  metrics.write_snapshot(*store, path);
  const auto contents = slurp(path);
  EXPECT_NE(contents.find("\"k\": 42"), std::string::npos) << contents;
  EXPECT_EQ(contents.find("previous"), std::string::npos);
}

TEST(Histogram, BucketsObservationsByBound) {
  Histogram h;
  h.bounds = {1.0, 10.0};
  h.counts.assign(3, 0);
  h.observe(0.5);   // <= 1
  h.observe(1.0);   // <= 1 (inclusive upper bound)
  h.observe(5.0);   // <= 10
  h.observe(100.0);  // +inf bucket
  EXPECT_EQ(h.counts[0], 2u);
  EXPECT_EQ(h.counts[1], 1u);
  EXPECT_EQ(h.counts[2], 1u);
  EXPECT_EQ(h.total, 4u);
  EXPECT_DOUBLE_EQ(h.sum, 106.5);
}

TEST(TraceRecorder, AggregatesByPath) {
  TraceRecorder trace;
  trace.record("campaign/trial", 2.0);
  trace.record("campaign/trial", 4.0);
  trace.record("campaign", 10.0);
  const auto trial = trace.span("campaign/trial");
  EXPECT_EQ(trial.count, 2u);
  EXPECT_DOUBLE_EQ(trial.total_s, 6.0);
  EXPECT_DOUBLE_EQ(trial.min_s, 2.0);
  EXPECT_DOUBLE_EQ(trial.max_s, 4.0);
  EXPECT_EQ(trace.span("campaign").count, 1u);
  EXPECT_EQ(trace.span("missing").count, 0u);
  EXPECT_EQ(trace.spans().size(), 2u);
}

TEST(SpanTimer, RecordsOnceAndNullRecorderIsANoOp) {
  TraceRecorder trace;
  {
    SpanTimer timer(&trace, "scope");
    timer.stop();
    timer.stop();  // idempotent
  }                // destructor after stop(): still one record
  EXPECT_EQ(trace.span("scope").count, 1u);
  {
    SpanTimer null_timer(nullptr, "scope");
  }  // must not crash or record
  EXPECT_EQ(trace.span("scope").count, 1u);
}

ProgressReporter::Options test_options(std::ostringstream* out,
                                       double* now) {
  ProgressReporter::Options options;
  options.min_interval_s = 1.0;
  options.out = out;
  options.clock = [now] { return *now; };
  return options;
}

TEST(ProgressReporter, RateLimitsUpdatesAndAlwaysEmitsFinish) {
  std::ostringstream out;
  double now = 100.0;
  ProgressReporter progress(test_options(&out, &now));
  progress.set_total(10);

  progress.update(1, 5, 0);  // first update emits immediately
  EXPECT_EQ(progress.lines_emitted(), 1u);
  now += 0.2;
  progress.update(2, 6, 1);  // inside the interval: suppressed
  EXPECT_EQ(progress.lines_emitted(), 1u);
  now += 1.0;
  progress.update(3, 7, 1);  // interval elapsed: emits
  EXPECT_EQ(progress.lines_emitted(), 2u);

  progress.finish();  // unconditional
  progress.finish();  // idempotent
  EXPECT_EQ(progress.lines_emitted(), 3u);

  const auto text = out.str();
  EXPECT_NE(text.find("progress:"), std::string::npos) << text;
  EXPECT_NE(text.find("3/10 trials"), std::string::npos) << text;
  EXPECT_NE(text.find("flips 7"), std::string::npos) << text;
  EXPECT_NE(text.find("retries 1"), std::string::npos) << text;
}

TEST(ProgressReporter, UnknownTotalOmitsPercentAndEta) {
  std::ostringstream out;
  double now = 0.0;
  ProgressReporter progress(test_options(&out, &now));
  progress.update(4, 0, 0);
  const auto text = out.str();
  EXPECT_NE(text.find("4 trials"), std::string::npos) << text;
  EXPECT_EQ(text.find('%'), std::string::npos) << text;
  EXPECT_EQ(text.find("eta"), std::string::npos) << text;
}

TEST(ProgressReporter, FormatDuration) {
  EXPECT_EQ(format_duration_s(3.2), "3.2s");
  EXPECT_EQ(format_duration_s(72.0), "1m12s");
  EXPECT_EQ(format_duration_s(2 * 3600 + 5 * 60), "2h05m");
}

TEST(InstrumentedStore, CountsEveryOperation) {
  MetricsRegistry metrics;
  InstrumentedStore store(util::default_store(), &metrics);
  const auto path = scratch_path("instrumented.txt");

  auto file = store.open(path, /*truncate=*/true);
  file->append("hello ");
  file->append("world");
  file->sync();
  file.reset();
  EXPECT_TRUE(store.read(path).has_value());
  EXPECT_FALSE(store.read(scratch_path("missing.txt")).has_value());
  store.atomic_replace(path, "replaced");
  store.truncate(path, 4);
  EXPECT_TRUE(store.remove(path));

  EXPECT_EQ(metrics.counter("store.opens"), 1u);
  EXPECT_EQ(metrics.counter("store.appends"), 2u);
  EXPECT_EQ(metrics.counter("store.append_bytes"), 11u);
  EXPECT_EQ(metrics.counter("store.fsyncs"), 1u);
  EXPECT_EQ(metrics.counter("store.reads"), 2u);  // missing reads count too
  EXPECT_EQ(metrics.counter("store.replaces"), 1u);
  EXPECT_EQ(metrics.counter("store.truncates"), 1u);
  EXPECT_EQ(metrics.counter("store.removes"), 1u);
}

TEST(InstrumentedStore, RejectsNullArguments) {
  MetricsRegistry metrics;
  EXPECT_THROW(InstrumentedStore(nullptr, &metrics), std::invalid_argument);
  EXPECT_THROW(InstrumentedStore(util::default_store(), nullptr),
               std::invalid_argument);
}

}  // namespace
}  // namespace hbmrd::obs
