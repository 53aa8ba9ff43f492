// Unit suite for the continuous-telemetry layer (src/common/telemetry):
// ring-buffer time series, multi-window SLO burn rates, the EWMA + z-score
// anomaly detector, the per-cycle pipeline + JSONL journal schema, the
// OpenMetrics and Chrome trace-event exporters. The schema tests read the
// writers' output back through the strict JSON reader (tested on its own in
// json_test).

#include <cmath>
#include <string>
#include <vector>

#include "common/durable_io.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/strings.h"
#include "common/telemetry.h"
#include "gtest/gtest.h"

namespace rasa {
namespace {

// --- TimeSeries ------------------------------------------------------------

TEST(TimeSeriesTest, EmptySeriesIsNaN) {
  TimeSeries series(4);
  EXPECT_EQ(series.size(), 0);
  EXPECT_TRUE(std::isnan(series.Latest()));
  EXPECT_TRUE(std::isnan(series.WindowMean(3)));
}

TEST(TimeSeriesTest, RingKeepsTheNewestCapacityPoints) {
  TimeSeries series(3);
  for (int i = 1; i <= 5; ++i) series.Append(i);
  EXPECT_EQ(series.size(), 3);
  EXPECT_EQ(series.capacity(), 3);
  EXPECT_EQ(series.total_appended(), 5);
  // Oldest-first: 3, 4, 5 (1 and 2 fell off the front).
  EXPECT_EQ(series.At(0), 3.0);
  EXPECT_EQ(series.At(1), 4.0);
  EXPECT_EQ(series.At(2), 5.0);
  EXPECT_EQ(series.Latest(), 5.0);
  EXPECT_EQ(series.Values(), (std::vector<double>{3.0, 4.0, 5.0}));
}

TEST(TimeSeriesTest, WindowMeanUsesTheNewestPoints) {
  TimeSeries series(8);
  for (double v : {1.0, 2.0, 3.0, 4.0}) series.Append(v);
  EXPECT_DOUBLE_EQ(series.WindowMean(2), 3.5);
  // Window larger than the retained data falls back to the full series.
  EXPECT_DOUBLE_EQ(series.WindowMean(100), 2.5);
}

TEST(TimeSeriesStoreTest, GetOrCreateAndSortedNames) {
  TimeSeriesStore store(16);
  store.Append("zeta", 1.0);
  store.Append("alpha", 2.0);
  store.Append("zeta", 3.0);
  EXPECT_EQ(store.Names(), (std::vector<std::string>{"alpha", "zeta"}));
  ASSERT_NE(store.Find("zeta"), nullptr);
  EXPECT_EQ(store.Find("zeta")->size(), 2);
  EXPECT_EQ(store.Find("missing"), nullptr);
}

// --- SLO burn rates --------------------------------------------------------

SloObjective TestObjective() {
  SloObjective o;
  o.name = "lat";
  o.series = "lat";
  o.comparison = SloComparison::kLessThan;
  o.threshold = 1.0;
  o.budget_fraction = 0.5;  // half the cycles may violate sustainably
  o.fast_window = 2;
  o.slow_window = 6;
  o.fast_burn_threshold = 1.5;
  o.slow_burn_threshold = 1.2;
  return o;
}

TEST(SloTrackerTest, HealthySeriesStaysOk) {
  TimeSeriesStore store(16);
  SloTracker tracker({TestObjective()});
  for (int i = 0; i < 6; ++i) {
    store.Append("lat", 0.5);
    const std::vector<SloStatus> statuses = tracker.Evaluate(store);
    ASSERT_EQ(statuses.size(), 1u);
    EXPECT_TRUE(statuses[0].has_value);
    EXPECT_FALSE(statuses[0].violated);
    EXPECT_EQ(statuses[0].alert, SloAlertState::kOk);
    EXPECT_EQ(statuses[0].fast_burn_rate, 0.0);
  }
}

TEST(SloTrackerTest, BurnLadderFastThenPage) {
  TimeSeriesStore store(16);
  SloTracker tracker({TestObjective()});
  // Six healthy cycles fill the slow window with zeros.
  for (int i = 0; i < 6; ++i) {
    store.Append("lat", 0.5);
    tracker.Evaluate(store);
  }
  // Two violating cycles: fast window burns at 1/0.5 = 2.0 (> 1.5) but the
  // slow window is still 2/6 / 0.5 = 0.67 (< 1.2) -> fast-burn only.
  store.Append("lat", 2.0);
  std::vector<SloStatus> statuses = tracker.Evaluate(store);
  EXPECT_TRUE(statuses[0].violated);
  store.Append("lat", 2.0);
  statuses = tracker.Evaluate(store);
  EXPECT_EQ(statuses[0].alert, SloAlertState::kFastBurn);
  EXPECT_DOUBLE_EQ(statuses[0].fast_burn_rate, 2.0);
  // Keep violating until the slow window crosses too: page (both hot).
  for (int i = 0; i < 4; ++i) {
    store.Append("lat", 2.0);
    statuses = tracker.Evaluate(store);
  }
  EXPECT_EQ(statuses[0].alert, SloAlertState::kPage);
  EXPECT_DOUBLE_EQ(statuses[0].slow_burn_rate, 2.0);
}

TEST(SloTrackerTest, RecoveryDrainsTheFastWindowFirst) {
  TimeSeriesStore store(16);
  SloTracker tracker({TestObjective()});
  std::vector<SloStatus> statuses;
  for (int i = 0; i < 6; ++i) {
    store.Append("lat", 2.0);
    statuses = tracker.Evaluate(store);
  }
  EXPECT_EQ(statuses[0].alert, SloAlertState::kPage);
  // Two healthy cycles empty the 2-cycle fast window; the slow window is
  // still 4/6 / 0.5 = 1.33 (> 1.2) -> slow-burn, the "budget already
  // spent" tail of an incident.
  for (int i = 0; i < 2; ++i) {
    store.Append("lat", 0.5);
    statuses = tracker.Evaluate(store);
  }
  EXPECT_EQ(statuses[0].alert, SloAlertState::kSlowBurn);
  EXPECT_EQ(statuses[0].fast_burn_rate, 0.0);
}

TEST(SloTrackerTest, MissingSeriesNeverCountsAsViolation) {
  TimeSeriesStore store(16);
  SloTracker tracker({TestObjective()});
  const std::vector<SloStatus> statuses = tracker.Evaluate(store);
  ASSERT_EQ(statuses.size(), 1u);
  EXPECT_FALSE(statuses[0].has_value);
  EXPECT_TRUE(std::isnan(statuses[0].value));
  EXPECT_FALSE(statuses[0].violated);
  EXPECT_EQ(statuses[0].alert, SloAlertState::kOk);
}

TEST(SloTrackerTest, GreaterThanComparison) {
  SloObjective o = TestObjective();
  o.comparison = SloComparison::kGreaterThan;  // e.g. "affinity must stay up"
  TimeSeriesStore store(16);
  SloTracker tracker({o});
  store.Append("lat", 0.5);  // below the 1.0 floor: violated
  std::vector<SloStatus> statuses = tracker.Evaluate(store);
  EXPECT_TRUE(statuses[0].violated);
  store.Append("lat", 2.0);
  statuses = tracker.Evaluate(store);
  EXPECT_FALSE(statuses[0].violated);
}

// --- Anomaly detection -----------------------------------------------------

TEST(AnomalyDetectorTest, WarmupNeverFlags) {
  AnomalyDetectorOptions options;
  options.warmup = 5;
  EwmaAnomalyDetector detector(options);
  // Wild swings inside the warmup window stay unflagged: the baseline is
  // still forming.
  for (double v : {1.0, 100.0, -50.0, 1.0, 80.0}) {
    EXPECT_FALSE(detector.Update(v).anomalous) << v;
  }
}

TEST(AnomalyDetectorTest, SpikeAfterStableBaselineFlags) {
  EwmaAnomalyDetector detector;
  for (int i = 0; i < 20; ++i) {
    const AnomalyStatus status = detector.Update(10.0 + 0.01 * (i % 3));
    EXPECT_FALSE(status.anomalous) << "point " << i;
  }
  const AnomalyStatus spike = detector.Update(25.0);
  EXPECT_TRUE(spike.anomalous);
  EXPECT_GT(spike.zscore, 3.5);
  EXPECT_NEAR(spike.ewma, 10.0, 0.1);  // verdict uses the pre-spike mean
}

TEST(AnomalyDetectorTest, ClampedFoldInKeepsDetectingRepeatSpikes) {
  EwmaAnomalyDetector detector;
  for (int i = 0; i < 20; ++i) detector.Update(10.0);
  EXPECT_TRUE(detector.Update(25.0).anomalous);
  // A second identical spike right after must still flag: the first one
  // was folded in with its deviation clamped, not at full magnitude.
  EXPECT_TRUE(detector.Update(25.0).anomalous);
}

TEST(AnomalyDetectorTest, ConstantSeriesToleratesTinyWiggle) {
  EwmaAnomalyDetector detector;
  for (int i = 0; i < 20; ++i) detector.Update(1.0);
  // Without the min_std floor the variance would be exactly 0 and this
  // 1-ulp wiggle would divide by zero / flag.
  const AnomalyStatus status =
      detector.Update(1.0 + 1e-15);
  EXPECT_FALSE(status.anomalous);
}

// --- Pipeline + journal schema ---------------------------------------------

CycleSample MakeSample(int cycle) {
  CycleSample s;
  s.cycle = cycle;
  s.seconds = 2.0;
  s.affinity_before = 0.3;
  s.gained_affinity = 0.7;
  s.optimality_gap = 0.05;
  s.lp_pivots = 100.0;
  s.refactorizations = 4.0;
  s.latency_p50 = 0.2;
  s.latency_p95 = 0.9;
  s.latency_p99 = 1.0;
  s.error_rate = 0.004;
  s.executed = true;
  return s;
}

TEST(TelemetryPipelineTest, RecordCycleFeedsEverySeries) {
  TelemetryOptions options;
  options.enabled = true;
  TelemetryPipeline pipeline(options);
  const CycleTelemetry derived = pipeline.RecordCycle(MakeSample(0));
  EXPECT_TRUE(derived.populated);
  ASSERT_EQ(derived.slo.size(), DefaultSloObjectives().size());
  for (const char* name : kTelemetrySeriesNames) {
    const TimeSeries* series = pipeline.store().Find(name);
    ASSERT_NE(series, nullptr) << name;
    EXPECT_EQ(series->size(), 1) << name;
  }
}

TEST(TelemetryPipelineTest, DefaultObjectivesTrackPlacementQuality) {
  TelemetryOptions options;
  options.enabled = true;
  TelemetryPipeline pipeline(options);
  // A well-localized placement (p50 at ipc latency, low modeled error)
  // meets both stock objectives ...
  CycleTelemetry derived = pipeline.RecordCycle(MakeSample(0));
  for (const SloStatus& status : derived.slo) {
    EXPECT_FALSE(status.violated) << status.name;
  }
  // ... and a fully remote one violates both.
  CycleSample bad = MakeSample(1);
  bad.latency_p50 = 1.0;
  bad.error_rate = 0.010;
  derived = pipeline.RecordCycle(bad);
  for (const SloStatus& status : derived.slo) {
    EXPECT_TRUE(status.violated) << status.name;
  }
}

TEST(TelemetryPipelineTest, JournalLineRoundTripsThroughTheStrictReader) {
  TelemetryOptions options;
  options.enabled = true;
  TelemetryPipeline pipeline(options);
  const CycleSample sample = MakeSample(3);
  const CycleTelemetry derived = pipeline.RecordCycle(sample);
  const std::string line = TelemetryPipeline::JournalLine(sample, derived);
  EXPECT_EQ(line.find('\n'), std::string::npos);  // one record per line

  StatusOr<JsonValue> parsed = ParseJson(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->kind, JsonValue::Kind::kObject);
  ASSERT_NE(parsed->Get("v"), nullptr);
  EXPECT_EQ(parsed->Get("v")->number, 1.0);  // schema version
  EXPECT_EQ(parsed->Get("cycle")->number, 3.0);
  EXPECT_EQ(parsed->Get("gained_affinity")->number, 0.7);
  EXPECT_TRUE(parsed->Get("executed")->boolean);
  const JsonValue* slo = parsed->Get("slo");
  ASSERT_NE(slo, nullptr);
  ASSERT_EQ(slo->kind, JsonValue::Kind::kArray);
  ASSERT_EQ(slo->array.size(), DefaultSloObjectives().size());
  for (const JsonValue& status : slo->array) {
    EXPECT_NE(status.Get("name"), nullptr);
    EXPECT_NE(status.Get("alert"), nullptr);
    EXPECT_NE(status.Get("fast_burn"), nullptr);
    EXPECT_NE(status.Get("slow_burn"), nullptr);
  }
  for (const char* key : {"cost_anomaly", "gap_anomaly"}) {
    const JsonValue* anomaly = parsed->Get(key);
    ASSERT_NE(anomaly, nullptr) << key;
    EXPECT_NE(anomaly->Get("anomalous"), nullptr) << key;
    EXPECT_NE(anomaly->Get("zscore"), nullptr) << key;
  }
}

// --- OpenMetrics exposition ------------------------------------------------

TEST(OpenMetricsTest, NameSanitization) {
  EXPECT_EQ(OpenMetricsName("rasa.runs"), "rasa_runs");
  EXPECT_EQ(OpenMetricsName("solver.lp_pivots"), "solver_lp_pivots");
  EXPECT_EQ(OpenMetricsName("weird-name!"), "weird_name_");
  EXPECT_EQ(OpenMetricsName("9starts_with_digit"), "_9starts_with_digit");
}

TEST(OpenMetricsTest, ExpositionFormatRoundTrip) {
  Histogram histogram;
  histogram.Observe(0.5);
  histogram.Observe(2.0);
  histogram.Observe(2.0);
  MetricsSnapshot snapshot;
  snapshot.counters = {{"rasa.runs", 7}};
  snapshot.gauges = {{"rasa.certificate_gap", 0.125}};
  snapshot.histograms = {{"solve.seconds", histogram.Scrape()}};

  const std::string text = OpenMetricsText(snapshot);
  // The mandatory terminator.
  ASSERT_GE(text.size(), 6u);
  EXPECT_EQ(text.substr(text.size() - 6), "# EOF\n");
  // Counter: TYPE line + `_total` sample.
  EXPECT_NE(text.find("# TYPE rasa_runs counter"), std::string::npos);
  EXPECT_NE(text.find("rasa_runs_total 7"), std::string::npos);
  // Gauge: plain sample, round-trip precision.
  EXPECT_NE(text.find("# TYPE rasa_certificate_gap gauge"),
            std::string::npos);
  EXPECT_NE(text.find("rasa_certificate_gap 0.125"), std::string::npos);
  // Histogram: cumulative buckets ending at +Inf, then _sum and _count.
  EXPECT_NE(text.find("# TYPE solve_seconds histogram"), std::string::npos);
  EXPECT_NE(text.find("solve_seconds_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("solve_seconds_sum 4.5"), std::string::npos);
  EXPECT_NE(text.find("solve_seconds_count 3"), std::string::npos);

  // Round-trip: the cumulative bucket counts must be monotone and the
  // +Inf bucket must equal _count — the invariants a Prometheus scraper
  // checks on ingest.
  uint64_t previous = 0;
  size_t buckets_seen = 0;
  size_t pos = 0;
  while ((pos = text.find("solve_seconds_bucket{le=\"", pos)) !=
         std::string::npos) {
    const size_t value_at = text.find("} ", pos);
    ASSERT_NE(value_at, std::string::npos);
    const uint64_t cumulative =
        std::strtoull(text.c_str() + value_at + 2, nullptr, 10);
    EXPECT_GE(cumulative, previous);
    previous = cumulative;
    ++buckets_seen;
    pos = value_at;
  }
  EXPECT_GT(buckets_seen, 0u);
  EXPECT_EQ(previous, 3u);
}

// --- Chrome trace-event export ---------------------------------------------

TEST(ChromeTraceTest, SchemaHasTheRequiredKeys) {
  std::vector<TraceEvent> events;
  TraceEvent root;
  root.id = 0;
  root.parent = -1;
  root.tid = 0;
  root.name = "optimize";
  root.start_seconds = 1.0;
  root.duration_seconds = 0.5;
  TraceEvent child;
  child.id = 1;
  child.parent = 0;
  child.tid = 3;
  child.name = "partition";
  child.start_seconds = 1.1;
  child.duration_seconds = 0.2;
  TraceEvent open;  // never ended: must be skipped
  open.id = 2;
  open.name = "still_open";
  open.start_seconds = 1.2;
  open.duration_seconds = -1.0;
  events = {root, child, open};

  const std::string json = ChromeTraceJson(events);
  StatusOr<JsonValue> parsed = ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue* trace_events = parsed->Get("traceEvents");
  ASSERT_NE(trace_events, nullptr);
  ASSERT_EQ(trace_events->kind, JsonValue::Kind::kArray);
  ASSERT_EQ(trace_events->array.size(), 2u);  // the open span is dropped

  for (const JsonValue& event : trace_events->array) {
    // The complete-event schema chrome://tracing and Perfetto load.
    for (const char* key : {"ph", "ts", "dur", "pid", "tid", "name"}) {
      ASSERT_NE(event.Get(key), nullptr) << key;
    }
    EXPECT_EQ(event.Get("ph")->string, "X");
    EXPECT_EQ(event.Get("pid")->number, 1.0);
  }
  const JsonValue& first = trace_events->array[0];
  EXPECT_EQ(first.Get("name")->string, "optimize");
  EXPECT_EQ(first.Get("ts")->number, 1.0e6);   // microseconds
  EXPECT_EQ(first.Get("dur")->number, 0.5e6);
  const JsonValue& second = trace_events->array[1];
  EXPECT_EQ(second.Get("tid")->number, 3.0);
  ASSERT_NE(second.Get("args"), nullptr);
  EXPECT_EQ(second.Get("args")->Get("parent")->number, 0.0);
}

// --- JSONL sink (the journal's writer + the log mirror) ---------------------

TEST(JsonlWriterTest, AppendsWholeLinesAndSurvivesReopen) {
  const std::string path = ::testing::TempDir() + "/jsonl_writer_test.jsonl";
  std::remove(path.c_str());
  {
    JsonlWriter writer;
    ASSERT_TRUE(writer.Open(path));
    EXPECT_TRUE(writer.Append("{\"a\": 1}"));
  }
  {
    JsonlWriter writer;  // "ab": a reopen appends, never truncates
    ASSERT_TRUE(writer.Open(path));
    EXPECT_TRUE(writer.Append("{\"a\": 2}"));
  }
  StatusOr<std::string> content = ReadFileToString(path);
  ASSERT_TRUE(content.ok()) << content.status().ToString();
  EXPECT_EQ(*content, "{\"a\": 1}\n{\"a\": 2}\n");
  std::remove(path.c_str());
}

TEST(JsonlWriterTest, AppendWithoutOpenFails) {
  JsonlWriter writer;
  EXPECT_FALSE(writer.is_open());
  EXPECT_FALSE(writer.Append("{}"));
}

TEST(LogJsonlSinkTest, MirrorsRecordsThatPassTheSeverityFilter) {
  const std::string path = ::testing::TempDir() + "/log_sink_test.jsonl";
  std::remove(path.c_str());
  const LogLevel saved = GetLogLevel();
  SetLogLevel(LogLevel::kWarning);
  SetLogJsonlPath(path);
  RASA_LOG(Warning) << "telemetry sink probe";
  RASA_LOG(Debug) << "filtered out";  // below the threshold: not mirrored
  SetLogJsonlPath("");                // detach before reading
  SetLogLevel(saved);

  StatusOr<std::string> content = ReadFileToString(path);
  ASSERT_TRUE(content.ok()) << content.status().ToString();
  StatusOr<JsonValue> record =
      ParseJson(content->substr(0, content->find('\n')));
  ASSERT_TRUE(record.ok()) << record.status().ToString();
  EXPECT_EQ(record->Get("severity")->string, "warning");
  EXPECT_EQ(record->Get("message")->string, "telemetry sink probe");
  EXPECT_NE(record->Get("subsystem"), nullptr);
  EXPECT_GT(record->Get("ts")->number, 0.0);
  EXPECT_EQ(content->find("filtered out"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rasa
