// Continuous telemetry: Recorder delta encoding, FixedHistogram interval
// deltas, the declarative SLO engine (parse + evaluate), and the harness
// wiring. The observation-only contract — recording and wall profiling must
// not perturb digests — is enforced here for the legacy kernel and in
// tests/test_sharded.cpp (suite ShardedTelemetry) for the parallel driver,
// whose multi-worker runs also ride the TSan CI pre-step.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/histogram.hpp"
#include "common/json.hpp"
#include "harness/testbed.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/slo.hpp"
#include "sim/sharded.hpp"

namespace focus {
namespace {

// ---------------------------------------------------------------------------
// FixedHistogram::delta_since: the per-interval distribution the Recorder
// summarizes is the bucket-wise difference of two cumulative snapshots.

TEST(HistogramDelta, DeltaSinceEmptyPrevIsTheCumulativeHistogram) {
  FixedHistogram h({10.0, 100.0});
  h.observe(5.0);
  h.observe(50.0);
  const FixedHistogram delta = h.delta_since(FixedHistogram({10.0, 100.0}));
  EXPECT_EQ(delta.count(), 2u);
  EXPECT_DOUBLE_EQ(delta.sum(), 55.0);
  EXPECT_DOUBLE_EQ(delta.min(), 5.0);
  EXPECT_DOUBLE_EQ(delta.max(), 50.0);
}

TEST(HistogramDelta, DeltaSinceSubtractsBucketCounts) {
  FixedHistogram h({10.0, 100.0});
  h.observe(5.0);
  h.observe(50.0);
  const FixedHistogram prev = h;  // snapshot at the interval boundary
  h.observe(50.0);
  h.observe(500.0);  // overflow
  const FixedHistogram delta = h.delta_since(prev);
  EXPECT_EQ(delta.count(), 2u);
  EXPECT_DOUBLE_EQ(delta.sum(), 550.0);
  EXPECT_EQ(delta.bucket_count(0), 0u);
  EXPECT_EQ(delta.bucket_count(1), 1u);
  EXPECT_EQ(delta.overflow_count(), 1u);
  // Interval extremes are estimated from the populated delta buckets: the
  // first populated bucket's lower edge, the overflow bucket's cumulative
  // max.
  EXPECT_DOUBLE_EQ(delta.min(), 10.0);
  EXPECT_DOUBLE_EQ(delta.max(), 500.0);
}

TEST(HistogramDelta, DeltaSinceOfAnIdleIntervalIsEmpty) {
  FixedHistogram h({10.0});
  h.observe(3.0);
  const FixedHistogram prev = h;
  const FixedHistogram delta = h.delta_since(prev);
  EXPECT_EQ(delta.count(), 0u);
  EXPECT_DOUBLE_EQ(delta.sum(), 0.0);
}

TEST(HistogramDelta, DeltaQuantilesInterpolateWithinTheInterval) {
  // First interval observes (0, 50], second observes (50, 100]: the delta's
  // quantiles must describe only the second interval's samples.
  FixedHistogram h({10, 20, 30, 40, 50, 60, 70, 80, 90, 100});
  for (int i = 1; i <= 50; ++i) h.observe(static_cast<double>(i));
  const FixedHistogram prev = h;
  for (int i = 51; i <= 100; ++i) h.observe(static_cast<double>(i));
  const FixedHistogram delta = h.delta_since(prev);
  EXPECT_EQ(delta.count(), 50u);
  EXPECT_NEAR(delta.quantile(0.50), 75.0, 5.0);
  EXPECT_NEAR(delta.quantile(0.99), 100.0, 5.0);
  EXPECT_GE(delta.quantile(0.01), 50.0);
}

// ---------------------------------------------------------------------------
// Recorder: delta-encoded per-interval series over aggregated snapshots.
// Tests use private MetricSets and unique spellings so the process-wide
// registry never aliases other suites' metrics.

TEST(Recorder, CounterTracksDeltaEncode) {
  obs::Recorder rec(100 * kMillisecond);
  EXPECT_EQ(rec.next_due(), 100 * kMillisecond);
  const obs::MetricId c = obs::MetricId::counter("telemetry.test.rec.count");
  obs::MetricSet snap;
  snap.add(c, 5);
  rec.sample(snap, 100 * kMillisecond);
  snap.add(c, 3);
  rec.sample(snap, 200 * kMillisecond);
  ASSERT_EQ(rec.num_intervals(), 2u);
  EXPECT_EQ(rec.interval_width(0), 100 * kMillisecond);
  EXPECT_EQ(rec.next_due(), 300 * kMillisecond);

  ASSERT_EQ(rec.scalars().size(), 1u);
  const obs::Recorder::ScalarTrack& track = rec.scalars()[0];
  EXPECT_TRUE(track.id == c);
  EXPECT_FALSE(track.gauge);
  EXPECT_EQ(track.first, 0u);
  ASSERT_EQ(track.points.size(), 2u);
  EXPECT_DOUBLE_EQ(track.points[0], 5.0);  // deltas, not cumulative values
  EXPECT_DOUBLE_EQ(track.points[1], 3.0);
  EXPECT_DOUBLE_EQ(track.last, 8.0);
}

TEST(Recorder, GaugeTracksRecordLastValue) {
  obs::Recorder rec(100 * kMillisecond);
  const obs::MetricId g = obs::MetricId::gauge("telemetry.test.rec.gauge");
  obs::MetricSet snap;
  snap.set(g, 7);
  rec.sample(snap, 100 * kMillisecond);
  snap.set(g, 3);  // gauges may go down; no delta encoding
  rec.sample(snap, 200 * kMillisecond);
  ASSERT_EQ(rec.scalars().size(), 1u);
  const obs::Recorder::ScalarTrack& track = rec.scalars()[0];
  EXPECT_TRUE(track.gauge);
  ASSERT_EQ(track.points.size(), 2u);
  EXPECT_DOUBLE_EQ(track.points[0], 7.0);
  EXPECT_DOUBLE_EQ(track.points[1], 3.0);
}

TEST(Recorder, LateMetricsStartAtTheirFirstInterval) {
  obs::Recorder rec(100 * kMillisecond);
  const obs::MetricId c0 = obs::MetricId::counter("telemetry.test.rec.early");
  const obs::MetricId c1 = obs::MetricId::counter("telemetry.test.rec.late");
  obs::MetricSet snap;
  snap.add(c0, 1);
  rec.sample(snap, 100 * kMillisecond);
  snap.add(c1, 4);  // first touched during the second interval
  rec.sample(snap, 200 * kMillisecond);
  ASSERT_EQ(rec.scalars().size(), 2u);
  const obs::Recorder::ScalarTrack* late = nullptr;
  for (const auto& track : rec.scalars()) {
    if (track.id == c1) late = &track;
  }
  ASSERT_NE(late, nullptr);
  EXPECT_EQ(late->first, 1u);
  ASSERT_EQ(late->points.size(), 1u);
  EXPECT_DOUBLE_EQ(late->points[0], 4.0);
  // Before the track existed the series is implicitly zero.
  EXPECT_DOUBLE_EQ(rec.scalar_point(*late, 0), 0.0);
  EXPECT_DOUBLE_EQ(rec.scalar_point(*late, 1), 4.0);
}

TEST(Recorder, NonUniformSampleTimesKeepActualWidths) {
  // Sharded barriers quantize the cadence to window edges, so interval ends
  // are whatever the barrier gave us; widths must reflect the actual gap.
  obs::Recorder rec(100 * kMillisecond);
  const obs::MetricId c = obs::MetricId::counter("telemetry.test.rec.wide");
  obs::MetricSet snap;
  snap.add(c, 10);
  rec.sample(snap, 130 * kMillisecond);
  snap.add(c, 10);
  rec.sample(snap, 380 * kMillisecond);
  EXPECT_EQ(rec.interval_width(0), 130 * kMillisecond);
  EXPECT_EQ(rec.interval_width(1), 250 * kMillisecond);
  // next_due is one cadence past the last actual end, not 3 * interval.
  EXPECT_EQ(rec.next_due(), 480 * kMillisecond);
}

TEST(Recorder, HistogramTracksSummarizeEachInterval) {
  obs::Recorder rec(100 * kMillisecond);
  const obs::MetricId h =
      obs::MetricId::histogram("telemetry.test.rec.histo", {10.0, 100.0});
  obs::MetricSet snap;
  snap.observe(h, 5.0);
  snap.observe(h, 5.0);
  snap.observe(h, 5.0);
  rec.sample(snap, 100 * kMillisecond);
  snap.observe(h, 50.0);
  rec.sample(snap, 200 * kMillisecond);

  ASSERT_EQ(rec.histograms().size(), 1u);
  const obs::Recorder::HistoTrack& track = rec.histograms()[0];
  ASSERT_EQ(track.points.size(), 2u);
  const obs::Recorder::HistoPoint& first = track.points[0];
  EXPECT_EQ(first.count, 3u);
  EXPECT_DOUBLE_EQ(first.sum, 15.0);
  EXPECT_DOUBLE_EQ(first.max, 5.0);
  EXPECT_DOUBLE_EQ(first.p50, 5.0);  // constant samples clamp exactly
  const obs::Recorder::HistoPoint& second = track.points[1];
  EXPECT_EQ(second.count, 1u);
  EXPECT_DOUBLE_EQ(second.sum, 50.0);
  EXPECT_DOUBLE_EQ(second.max, 50.0);
  EXPECT_GE(second.p50, 10.0);  // bucket-interpolated within (10, 50]
  EXPECT_LE(second.p50, 50.0);
  // Cumulative snapshot retained for run-scope consumers.
  EXPECT_EQ(track.last.count(), 4u);
}

TEST(Recorder, TimeseriesJsonExportsTracks) {
  obs::Recorder rec(100 * kMillisecond);
  const obs::MetricId c = obs::MetricId::counter("telemetry.test.ts.count");
  const obs::MetricId h =
      obs::MetricId::histogram("telemetry.test.ts.histo", {10.0, 100.0});
  obs::MetricSet snap;
  snap.add(c, 50);
  snap.observe(h, 42.0);
  rec.sample(snap, 100 * kMillisecond);
  const Json doc = obs::timeseries_json(rec);
  EXPECT_EQ(doc["interval_us"].as_int(), 100 * kMillisecond);
  const Json& counter = doc["counters"]["telemetry.test.ts.count"];
  EXPECT_EQ(counter["first"].as_int(), 0);
  EXPECT_DOUBLE_EQ(counter["delta"].as_array()[0].as_number(), 50.0);
  // 50 events in a 0.1 s interval = 500 / s.
  EXPECT_DOUBLE_EQ(counter["rate_per_s"].as_array()[0].as_number(), 500.0);
  const Json& histo = doc["histograms"]["telemetry.test.ts.histo"];
  EXPECT_EQ(histo["count"].as_array()[0].as_int(), 1);
  EXPECT_DOUBLE_EQ(histo["max"].as_array()[0].as_number(), 42.0);
}

// ---------------------------------------------------------------------------
// SLO spec parsing: a gate must fail on a typo, not silently skip the
// assertion — every malformed shape is a hard parse error.

Result<std::vector<obs::slo::Spec>> parse(const std::string& text) {
  auto doc = Json::parse(text);
  EXPECT_TRUE(doc.ok()) << text;
  return obs::slo::parse_specs(doc.value());
}

TEST(SloParse, ParsesBoundsAspectsAndScopes) {
  const auto specs = parse(R"({"slos": [
    {"name": "p99", "metric": "a.lat", "quantile": 0.99, "max": 100},
    {"metric": "a.count", "min": 1, "max": 50},
    {"metric": "a.bytes", "aspect": "rate_per_s", "scope": "interval",
     "max": 1000},
    {"name": "fanout", "metric": "a.builds", "denominator": "a.msgs",
     "max": 0.5}
  ]})");
  ASSERT_TRUE(specs.ok()) << specs.error().message;
  ASSERT_EQ(specs.value().size(), 4u);
  const auto& v = specs.value();
  EXPECT_EQ(v[0].aspect, obs::slo::Aspect::Quantile);  // implied by quantile
  EXPECT_DOUBLE_EQ(v[0].quantile, 0.99);
  EXPECT_EQ(v[0].name, "p99");
  EXPECT_EQ(v[1].name, "a.count");  // label defaults to the metric
  EXPECT_TRUE(v[1].has_min);
  EXPECT_TRUE(v[1].has_max);
  EXPECT_EQ(v[2].aspect, obs::slo::Aspect::Rate);
  EXPECT_EQ(v[2].scope, obs::slo::Scope::Interval);
  EXPECT_EQ(v[3].aspect, obs::slo::Aspect::Ratio);  // implied by denominator
  EXPECT_EQ(v[3].denominator, "a.msgs");
  EXPECT_EQ(v[0].bound_string(), "<= 100");
  EXPECT_EQ(v[1].bound_string(), "in [1, 50]");
}

TEST(SloParse, TopLevelCommentIsTolerated) {
  const auto specs = parse(R"({"_comment": ["calibration"], "slos": []})");
  ASSERT_TRUE(specs.ok());
  EXPECT_TRUE(specs.value().empty());
}

TEST(SloParse, UnknownKeyIsAHardError) {
  const auto specs =
      parse(R"({"slos": [{"metric": "a", "max": 1, "metrik": "b"}]})");
  ASSERT_FALSE(specs.ok());
  EXPECT_NE(specs.error().message.find("unknown key"), std::string::npos);
}

TEST(SloParse, MissingBoundIsAHardError) {
  const auto specs = parse(R"({"slos": [{"metric": "a"}]})");
  ASSERT_FALSE(specs.ok());
  EXPECT_NE(specs.error().message.find("bound"), std::string::npos);
}

TEST(SloParse, UnknownAspectIsAHardError) {
  const auto specs =
      parse(R"({"slos": [{"metric": "a", "aspect": "median", "max": 1}]})");
  ASSERT_FALSE(specs.ok());
  EXPECT_NE(specs.error().message.find("unknown aspect"), std::string::npos);
}

TEST(SloParse, QuantileOutOfRangeIsAHardError) {
  const auto specs =
      parse(R"({"slos": [{"metric": "a", "quantile": 1.5, "max": 1}]})");
  ASSERT_FALSE(specs.ok());
}

TEST(SloParse, RatioAspectNeedsADenominator) {
  const auto specs =
      parse(R"({"slos": [{"metric": "a", "aspect": "ratio", "max": 1}]})");
  ASSERT_FALSE(specs.ok());
  EXPECT_NE(specs.error().message.find("denominator"), std::string::npos);
}

// ---------------------------------------------------------------------------
// SLO evaluation against a final snapshot and a Recorder.

TEST(SloEvaluate, PassingSpecsReportOk) {
  const obs::MetricId c = obs::MetricId::counter("telemetry.test.slo.pass");
  obs::MetricSet set;
  set.add(c, 5);
  const auto specs =
      parse(R"({"slos": [{"metric": "telemetry.test.slo.pass", "max": 10}]})");
  ASSERT_TRUE(specs.ok());
  const obs::slo::Report report =
      obs::slo::evaluate(specs.value(), set, nullptr, kSecond);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.checked, 1u);
  EXPECT_NE(report.to_string().find("pass"), std::string::npos);
}

TEST(SloEvaluate, ViolationNamesMetricBoundAndObserved) {
  const obs::MetricId c = obs::MetricId::counter("telemetry.test.slo.hot");
  obs::MetricSet set;
  set.add(c, 5);
  const auto specs = parse(
      R"({"slos": [{"name": "hot", "metric": "telemetry.test.slo.hot",
                    "max": 3}]})");
  ASSERT_TRUE(specs.ok());
  const obs::slo::Report report =
      obs::slo::evaluate(specs.value(), set, nullptr, kSecond);
  EXPECT_FALSE(report.ok());
  ASSERT_EQ(report.violations.size(), 1u);
  const obs::slo::Violation& v = report.violations[0];
  EXPECT_EQ(v.slo, "hot");
  EXPECT_EQ(v.metric, "telemetry.test.slo.hot");
  EXPECT_EQ(v.bound, "<= 3");
  EXPECT_DOUBLE_EQ(v.observed, 5.0);
  EXPECT_EQ(v.interval, -1);  // whole-run check
  EXPECT_NE(report.to_string().find("VIOLATION"), std::string::npos);
  // The machine-readable form carries the same fields.
  const Json doc = report.to_json();
  EXPECT_DOUBLE_EQ(doc["violations"].as_array()[0]["observed"].as_number(),
                   5.0);
  EXPECT_FALSE(doc["pass"].as_bool());
}

TEST(SloEvaluate, RateDividesByElapsedSimSeconds) {
  const obs::MetricId c = obs::MetricId::counter("telemetry.test.slo.rate");
  obs::MetricSet set;
  set.add(c, 100);
  const auto specs = parse(
      R"({"slos": [{"metric": "telemetry.test.slo.rate",
                    "aspect": "rate_per_s", "max": 40}]})");
  ASSERT_TRUE(specs.ok());
  const obs::slo::Report report =
      obs::slo::evaluate(specs.value(), set, nullptr, 2 * kSecond);
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_DOUBLE_EQ(report.violations[0].observed, 50.0);  // 100 over 2 s
}

TEST(SloEvaluate, RatioDividesCounters) {
  const obs::MetricId num = obs::MetricId::counter("telemetry.test.slo.num");
  const obs::MetricId den = obs::MetricId::counter("telemetry.test.slo.den");
  obs::MetricSet set;
  set.add(num, 1);
  set.add(den, 4);
  const auto specs = parse(
      R"({"slos": [{"metric": "telemetry.test.slo.num",
                    "denominator": "telemetry.test.slo.den", "min": 0.3}]})");
  ASSERT_TRUE(specs.ok());
  const obs::slo::Report report =
      obs::slo::evaluate(specs.value(), set, nullptr, kSecond);
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_DOUBLE_EQ(report.violations[0].observed, 0.25);
  EXPECT_EQ(report.violations[0].bound, ">= 0.3");
}

TEST(SloEvaluate, UnknownMetricIsAnEvaluationError) {
  obs::MetricSet set;
  const auto specs =
      parse(R"({"slos": [{"metric": "telemetry.test.slo.never-minted",
                          "max": 1}]})");
  ASSERT_TRUE(specs.ok());
  const obs::slo::Report report =
      obs::slo::evaluate(specs.value(), set, nullptr, kSecond);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.checked, 0u);
  ASSERT_EQ(report.errors.size(), 1u);
  EXPECT_NE(report.errors[0].find("never registered"), std::string::npos);
}

TEST(SloEvaluate, QuantileAspectRequiresAHistogram) {
  const obs::MetricId c = obs::MetricId::counter("telemetry.test.slo.notah");
  obs::MetricSet set;
  set.add(c, 1);
  const auto specs = parse(
      R"({"slos": [{"metric": "telemetry.test.slo.notah", "quantile": 0.5,
                    "max": 1}]})");
  ASSERT_TRUE(specs.ok());
  const obs::slo::Report report =
      obs::slo::evaluate(specs.value(), set, nullptr, kSecond);
  EXPECT_FALSE(report.ok());
  ASSERT_EQ(report.errors.size(), 1u);
  EXPECT_NE(report.errors[0].find("not a histogram"), std::string::npos);
}

TEST(SloEvaluate, IntervalScopeNeedsARecorder) {
  const obs::MetricId c = obs::MetricId::counter("telemetry.test.slo.noint");
  obs::MetricSet set;
  set.add(c, 1);
  const auto specs = parse(
      R"({"slos": [{"metric": "telemetry.test.slo.noint",
                    "scope": "interval", "max": 10}]})");
  ASSERT_TRUE(specs.ok());
  const obs::slo::Report report =
      obs::slo::evaluate(specs.value(), set, /*recorder=*/nullptr, kSecond);
  EXPECT_FALSE(report.ok());
  ASSERT_EQ(report.errors.size(), 1u);
  EXPECT_NE(report.errors[0].find("recording"), std::string::npos);
}

TEST(SloEvaluate, IntervalScopeFlagsTheFirstViolatingInterval) {
  const obs::MetricId c = obs::MetricId::counter("telemetry.test.slo.burst");
  obs::MetricSet snap;
  obs::Recorder rec(100 * kMillisecond);
  snap.add(c, 5);  // interval 0: delta 5, under the bound
  rec.sample(snap, 100 * kMillisecond);
  snap.add(c, 50);  // interval 1: delta 50, the burst
  rec.sample(snap, 200 * kMillisecond);
  snap.add(c, 60);  // interval 2 violates too, but only the first is named
  rec.sample(snap, 300 * kMillisecond);
  const auto specs = parse(
      R"({"slos": [{"name": "burst", "metric": "telemetry.test.slo.burst",
                    "scope": "interval", "max": 10}]})");
  ASSERT_TRUE(specs.ok());
  const obs::slo::Report report =
      obs::slo::evaluate(specs.value(), snap, &rec, 300 * kMillisecond);
  ASSERT_EQ(report.violations.size(), 1u);
  const obs::slo::Violation& v = report.violations[0];
  EXPECT_DOUBLE_EQ(v.observed, 50.0);
  EXPECT_EQ(v.interval, 1);
  EXPECT_EQ(v.interval_end, 200 * kMillisecond);
  EXPECT_NE(report.to_string().find("interval 1"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Harness wiring: recording must be digest-neutral on the legacy kernel, and
// check_slos() must evaluate the configured spec against live telemetry.

struct LegacyRun {
  std::uint64_t digest = 0;
  std::size_t intervals = 0;
};

LegacyRun run_legacy_scenario(Duration record_interval) {
  harness::TestbedConfig config;
  config.num_nodes = 25;
  config.seed = 42;
  config.record_interval = record_interval;
  config.agent.dynamics.volatility = 0.02;
  harness::Testbed bed(config);
  bed.start();
  EXPECT_TRUE(bed.settle());
  core::Query query;
  query.terms.push_back(core::QueryTerm{"ram_mb", 0, 1e9});
  query.limit = 10;
  EXPECT_TRUE(bed.query_and_wait(query).ok());
  bed.run_for(10 * kSecond);
  LegacyRun out;
  out.digest = bed.simulator().digest();
  out.intervals =
      bed.recorder() != nullptr ? bed.recorder()->num_intervals() : 0;
  return out;
}

TEST(HarnessTelemetry, LegacyRecordingIsDigestNeutral) {
  const LegacyRun off = run_legacy_scenario(0);
  const LegacyRun on = run_legacy_scenario(100 * kMillisecond);
  EXPECT_EQ(off.digest, on.digest);
  EXPECT_EQ(off.intervals, 0u);
  EXPECT_GE(on.intervals, 100u);  // ~11 s of sim time at 100 ms cadence
}

class TempSpecFile {
 public:
  explicit TempSpecFile(const std::string& text)
      : path_(::testing::TempDir() + "focus_slo_spec.json") {
    write(text);
  }
  ~TempSpecFile() { std::remove(path_.c_str()); }
  void write(const std::string& text) const {
    std::ofstream out(path_, std::ios::trunc);
    out << text;
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(HarnessTelemetry, CheckSlosEvaluatesTheConfiguredSpec) {
  TempSpecFile spec(
      R"({"slos": [{"metric": "focus.query.count", "min": 1}]})");
  harness::TestbedConfig config;
  config.num_nodes = 25;
  config.seed = 42;
  config.slo_path = spec.path();
  harness::Testbed bed(config);
  bed.start();
  ASSERT_TRUE(bed.settle());
  core::Query query;
  query.terms.push_back(core::QueryTerm{"ram_mb", 0, 1e9});
  query.limit = 10;
  ASSERT_TRUE(bed.query_and_wait(query).ok());

  // The pinned-style spec passes: at least one query was served.
  const obs::slo::Report pass = bed.check_slos();
  EXPECT_TRUE(pass.ok()) << pass.to_string();
  EXPECT_EQ(pass.checked, 1u);

  // A tightened twin fails with the observed value in the report.
  spec.write(R"({"slos": [{"metric": "focus.query.count", "max": 0}]})");
  const obs::slo::Report fail = bed.check_slos();
  EXPECT_FALSE(fail.ok());
  ASSERT_EQ(fail.violations.size(), 1u);
  EXPECT_GE(fail.violations[0].observed, 1.0);

  // A malformed spec is a gate error, never a silent skip.
  spec.write(R"({"slos": [{"metrik": "focus.query.count", "max": 0}]})");
  const obs::slo::Report malformed = bed.check_slos();
  EXPECT_FALSE(malformed.ok());
  EXPECT_FALSE(malformed.errors.empty());
}

// ---------------------------------------------------------------------------
// Sharded scheduler profiling (suite name matches the TSan CI pre-step's
// -R 'Sharded' filter, so the wall-clock hand-off runs under TSan at
// multiple worker counts).

TEST(ShardedTelemetry, BusyStallIdleSumsToWallPerShard) {
  for (unsigned threads : {1u, 2u, 4u}) {
    harness::TestbedConfig config;
    config.num_nodes = 25;
    config.seed = 42;
    config.shards = threads;
    config.data_sub_shards = 2;
    config.edge_sub_shards = 2;
    config.wall_profiling = true;
    harness::Testbed bed(config);
    bed.start();
    ASSERT_TRUE(bed.settle());
    bed.run_for(5 * kSecond);
    ASSERT_NE(bed.sharded(), nullptr);
    const auto& profiles = bed.sharded()->shard_profiles();
    ASSERT_FALSE(profiles.empty());
    for (const auto& p : profiles) {
      // Exact accounting: every shard runs every lock-step window, so each
      // round's wall time splits into busy and stall and the parts always
      // reassemble the whole.
      EXPECT_EQ(p.busy_ns + p.stall_ns + p.idle_ns, p.wall_ns);
      EXPECT_GT(p.wall_ns, 0);
      EXPECT_GE(p.busy_ns, 0);
      EXPECT_GE(p.stall_ns, 0);
      EXPECT_EQ(p.idle_ns, 0);
    }
  }
}

TEST(ShardedTelemetry, ProfilingOffLeavesProfilesZero) {
  harness::TestbedConfig config;
  config.num_nodes = 25;
  config.seed = 42;
  config.shards = 2;
  harness::Testbed bed(config);
  bed.start();
  ASSERT_TRUE(bed.settle());
  ASSERT_NE(bed.sharded(), nullptr);
  for (const auto& p : bed.sharded()->shard_profiles()) {
    EXPECT_EQ(p.wall_ns, 0);
    EXPECT_EQ(p.busy_ns, 0);
  }
}

}  // namespace
}  // namespace focus
