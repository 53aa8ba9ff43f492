#ifndef RASA_COMMON_TELEMETRY_H_
#define RASA_COMMON_TELEMETRY_H_

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/metrics.h"
#include "common/statusor.h"

namespace rasa {

/// Continuous-operation telemetry (DESIGN.md "Continuous telemetry").
///
/// The metrics registry (common/metrics) answers "what happened since the
/// process started"; this layer answers "what is happening cycle over
/// cycle". A control loop feeds it once per cycle with *deltas* of the
/// registry scrape plus the cycle's own report fields; it maintains bounded
/// ring-buffer time series, evaluates declarative SLOs with multi-window
/// burn rates, and flags regressions with an EWMA + z-score detector.
///
/// Everything here is strictly observation-only, like the metrics layer
/// beneath it: nothing reads a series back into an algorithm, so placements
/// and reports are bit-identical with telemetry on or off at every thread
/// count (asserted by telemetry_determinism_test). The detectors are pure
/// functions of the series contents — two runs that produced the same
/// series produce the same alerts.

// ---------------------------------------------------------------------------
// Ring-buffer time series
// ---------------------------------------------------------------------------

/// Fixed-capacity series of doubles: appends are O(1), the newest
/// `capacity` points are retained, older points fall off the front.
class TimeSeries {
 public:
  explicit TimeSeries(int capacity);

  void Append(double value);

  /// Points currently retained (<= capacity).
  int size() const { return static_cast<int>(size_); }
  int capacity() const { return static_cast<int>(buffer_.size()); }
  /// Points ever appended (>= size once the ring wrapped).
  int64_t total_appended() const { return total_; }

  /// i in [0, size): 0 is the oldest retained point, size()-1 the newest.
  double At(int i) const;
  /// NaN when empty.
  double Latest() const;
  /// Oldest-first copy of the retained window.
  std::vector<double> Values() const;

  /// Mean over the newest min(window, size) points; NaN when empty.
  double WindowMean(int window) const;

 private:
  std::vector<double> buffer_;
  size_t head_ = 0;  // index the next append lands in
  size_t size_ = 0;
  int64_t total_ = 0;
};

/// Name -> TimeSeries map with one shared capacity. Get-or-create on
/// append; iteration order is sorted by name so exports are deterministic.
class TimeSeriesStore {
 public:
  explicit TimeSeriesStore(int capacity_per_series = 1024);

  void Append(const std::string& name, double value);
  /// nullptr when the series does not exist.
  const TimeSeries* Find(const std::string& name) const;
  std::vector<std::string> Names() const;  // sorted
  int capacity_per_series() const { return capacity_; }

 private:
  int capacity_;
  std::map<std::string, std::unique_ptr<TimeSeries>> series_;
};

// ---------------------------------------------------------------------------
// SLO objectives with multi-window burn-rate alerting
// ---------------------------------------------------------------------------

enum class SloComparison { kLessThan, kGreaterThan };

/// One declarative objective over a named series, e.g.
///   {name: "latency_p99", series: "latency_p99", kLessThan, 0.95}.
/// A cycle violates the objective when its series value fails the
/// comparison. The violation history drives two burn-rate windows (the SRE
/// fast/slow pattern): burn = (violating share of the window) /
/// budget_fraction, so burn 1.0 consumes the error budget exactly at the
/// sustainable rate and burn >= 1/budget_fraction means every cycle burns.
struct SloObjective {
  std::string name;    // objective label (shown in alerts and the journal)
  std::string series;  // series the per-cycle value is read from
  SloComparison comparison = SloComparison::kLessThan;
  double threshold = 0.0;
  /// Error budget: tolerated violating-cycle fraction over the long run.
  double budget_fraction = 0.01;
  int fast_window = 6;    // cycles (e.g. the last 3 hours at 30 min/cycle)
  int slow_window = 36;   // cycles (e.g. the last 18 hours)
  /// Alert thresholds on the burn rates (SRE handbook defaults: the fast
  /// window pages on a 14.4x burn — budget gone in ~2 days at 1% — and the
  /// slow window confirms a sustained 6x burn).
  double fast_burn_threshold = 14.4;
  double slow_burn_threshold = 6.0;
};

/// Alert ladder: kPage requires BOTH windows to burn above their
/// thresholds (the multi-window AND that keeps one-cycle blips from
/// paging); a single hot window reports which one.
enum class SloAlertState { kOk, kFastBurn, kSlowBurn, kPage };

const char* SloAlertStateName(SloAlertState state);

/// Per-cycle evaluation result of one objective.
struct SloStatus {
  std::string name;
  /// The series value this cycle; NaN (and has_value false) when the
  /// series is missing or empty — a missing signal never counts as a
  /// violation, it is surfaced as has_value == false instead.
  double value = std::numeric_limits<double>::quiet_NaN();
  bool has_value = false;
  bool violated = false;  // this cycle
  double fast_burn_rate = 0.0;
  double slow_burn_rate = 0.0;
  SloAlertState alert = SloAlertState::kOk;
};

/// Evaluates a fixed set of objectives once per cycle against a
/// TimeSeriesStore, carrying each objective's violation history in its own
/// ring buffer (sized to the slow window).
class SloTracker {
 public:
  explicit SloTracker(std::vector<SloObjective> objectives);

  /// Call exactly once per cycle, after the cycle's series points were
  /// appended. Statuses come back in objective order.
  std::vector<SloStatus> Evaluate(const TimeSeriesStore& store);

  const std::vector<SloObjective>& objectives() const { return objectives_; }

 private:
  std::vector<SloObjective> objectives_;
  std::vector<TimeSeries> violations_;  // 1.0 = violated, aligned by index
};

// ---------------------------------------------------------------------------
// EWMA + z-score anomaly detection
// ---------------------------------------------------------------------------

struct AnomalyDetectorOptions {
  /// EWMA smoothing factor for the running mean and variance.
  double alpha = 0.25;
  /// |x - ewma| / std above this flags the point.
  double z_threshold = 3.5;
  /// Points consumed before any flagging (the baseline warm-up).
  int warmup = 5;
  /// Variance floor: series that sit at an exact constant would otherwise
  /// flag the first 1-ulp wiggle.
  double min_std = 1e-9;
};

struct AnomalyStatus {
  bool anomalous = false;
  double zscore = 0.0;
  double ewma = 0.0;  // mean *before* folding the current point in
  double ewm_std = 0.0;
};

/// Streaming detector: Update(x) returns the verdict for x and then folds
/// x into the running mean/variance (anomalous points are still folded in,
/// with their deviation clamped to the threshold so one spike does not
/// blind the detector to the next). Deterministic: the verdict sequence is
/// a pure function of the input sequence.
class EwmaAnomalyDetector {
 public:
  explicit EwmaAnomalyDetector(AnomalyDetectorOptions options = {});

  AnomalyStatus Update(double x);
  int points_seen() const { return points_; }

 private:
  AnomalyDetectorOptions options_;
  double mean_ = 0.0;
  double variance_ = 0.0;
  int points_ = 0;
};

// ---------------------------------------------------------------------------
// Per-cycle pipeline: series feed + SLO + anomaly + journal record
// ---------------------------------------------------------------------------

/// Flat per-cycle sample the control loop hands to the pipeline (the
/// workflow builds it from CycleReport + the registry delta; keeping it
/// flat here keeps common/ free of sim/ types).
struct CycleSample {
  int cycle = 0;
  double seconds = 0.0;
  double affinity_before = 0.0;
  double gained_affinity = 0.0;
  double optimality_gap = 0.0;
  double migration_truncation = 0.0;
  int dirty_subproblems = 0;
  int reused_subproblems = 0;
  /// Per-cycle registry deltas (not cumulative totals).
  double lp_pivots = 0.0;
  double refactorizations = 0.0;
  /// Deterministic request-latency model quantiles of the live placement
  /// (normalized units; see EstimateTrafficQuantiles in sim/workflow.h).
  double latency_p50 = 0.0;
  double latency_p95 = 0.0;
  double latency_p99 = 0.0;
  double error_rate = 0.0;
  bool executed = false;
  bool rolled_back = false;
  bool solver_failed = false;
};

/// What the pipeline derived for one cycle; attached to CycleReport so
/// report consumers see alert states without re-deriving them.
struct CycleTelemetry {
  bool populated = false;
  std::vector<SloStatus> slo;
  /// Anomaly verdicts on the cycle-cost (seconds) and optimality-gap
  /// series. Cost z-scores depend on wall-clock timings; determinism
  /// comparisons must strip them like any other timing field.
  AnomalyStatus cost;
  AnomalyStatus gap;
};

struct TelemetryOptions {
  bool enabled = false;
  int series_capacity = 1024;
  /// Objectives evaluated per cycle; empty selects DefaultSloObjectives().
  std::vector<SloObjective> objectives;
  AnomalyDetectorOptions anomaly;
};

/// The stock objectives: median request latency and modeled error rate of
/// the placement latency model, thresholds sized to the production
/// simulator's normalized units (rpc latency 1.0, rpc error 1%).
std::vector<SloObjective> DefaultSloObjectives();

/// Series names the pipeline maintains (one journal column each).
inline constexpr const char* kTelemetrySeriesNames[] = {
    "cycle_seconds",      "gained_affinity",    "optimality_gap",
    "migration_truncation", "dirty_subproblems", "reused_subproblems",
    "lp_pivots",          "refactorizations",   "latency_p50",
    "latency_p95",        "latency_p99",        "error_rate",
};

class TelemetryPipeline {
 public:
  explicit TelemetryPipeline(const TelemetryOptions& options);

  /// Feeds one completed cycle: appends every series point, evaluates the
  /// SLOs, updates the anomaly detectors, and returns the derived verdicts.
  CycleTelemetry RecordCycle(const CycleSample& sample);

  /// One JSONL journal line (no trailing newline) for the cycle: the
  /// sample, the SLO statuses, and the anomaly verdicts, schema-versioned
  /// ("v": 1). Stable key order.
  static std::string JournalLine(const CycleSample& sample,
                                 const CycleTelemetry& derived);

  const TimeSeriesStore& store() const { return store_; }

 private:
  TelemetryOptions options_;
  TimeSeriesStore store_;
  SloTracker slo_;
  EwmaAnomalyDetector cost_detector_;
  EwmaAnomalyDetector gap_detector_;
};

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

/// OpenMetrics text exposition of a registry scrape. Metric names are
/// sanitized to [a-zA-Z0-9_:] (dots become underscores); counters get the
/// `_total` suffix and `# TYPE ... counter`, gauges `gauge`, histograms the
/// cumulative `_bucket{le="..."}` / `_sum` / `_count` triplet. Ends with
/// the mandatory `# EOF` line.
std::string OpenMetricsText(const MetricsSnapshot& snapshot);

/// Sanitized OpenMetrics metric name (exposed for the round-trip test).
std::string OpenMetricsName(const std::string& name);

/// Chrome trace-event JSON (the object form: {"traceEvents": [...]},
/// loadable by Perfetto / chrome://tracing). Each completed span becomes a
/// complete event: {"ph": "X", "ts": <µs>, "dur": <µs>, "pid": 1,
/// "tid": <recording thread>, "name": ...,
/// "args": {"id": ..., "parent": ...}}. Open spans are skipped.
std::string ChromeTraceJson(const std::vector<TraceEvent>& events);

}  // namespace rasa

#endif  // RASA_COMMON_TELEMETRY_H_
