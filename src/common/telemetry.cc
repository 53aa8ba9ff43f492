#include "common/telemetry.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/json_writer.h"
#include "common/strings.h"

namespace rasa {

// ---------------------------------------------------------------------------
// TimeSeries / TimeSeriesStore
// ---------------------------------------------------------------------------

TimeSeries::TimeSeries(int capacity)
    : buffer_(static_cast<size_t>(std::max(1, capacity))) {}

void TimeSeries::Append(double value) {
  buffer_[head_] = value;
  head_ = (head_ + 1) % buffer_.size();
  if (size_ < buffer_.size()) ++size_;
  ++total_;
}

double TimeSeries::At(int i) const {
  if (i < 0 || i >= static_cast<int>(size_)) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  // Oldest retained point sits at head_ once the ring wrapped, at 0 before.
  const size_t oldest = size_ == buffer_.size() ? head_ : 0;
  return buffer_[(oldest + static_cast<size_t>(i)) % buffer_.size()];
}

double TimeSeries::Latest() const {
  if (size_ == 0) return std::numeric_limits<double>::quiet_NaN();
  return buffer_[(head_ + buffer_.size() - 1) % buffer_.size()];
}

std::vector<double> TimeSeries::Values() const {
  std::vector<double> out;
  out.reserve(size_);
  for (int i = 0; i < static_cast<int>(size_); ++i) out.push_back(At(i));
  return out;
}

double TimeSeries::WindowMean(int window) const {
  if (size_ == 0 || window <= 0) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  const int n = std::min(window, static_cast<int>(size_));
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += At(static_cast<int>(size_) - 1 - i);
  return sum / static_cast<double>(n);
}

TimeSeriesStore::TimeSeriesStore(int capacity_per_series)
    : capacity_(std::max(1, capacity_per_series)) {}

void TimeSeriesStore::Append(const std::string& name, double value) {
  auto& slot = series_[name];
  if (!slot) slot = std::make_unique<TimeSeries>(capacity_);
  slot->Append(value);
}

const TimeSeries* TimeSeriesStore::Find(const std::string& name) const {
  const auto it = series_.find(name);
  return it != series_.end() ? it->second.get() : nullptr;
}

std::vector<std::string> TimeSeriesStore::Names() const {
  std::vector<std::string> out;
  out.reserve(series_.size());
  for (const auto& [name, series] : series_) out.push_back(name);
  return out;  // std::map iterates sorted
}

// ---------------------------------------------------------------------------
// SloTracker
// ---------------------------------------------------------------------------

const char* SloAlertStateName(SloAlertState state) {
  switch (state) {
    case SloAlertState::kOk:
      return "ok";
    case SloAlertState::kFastBurn:
      return "fast-burn";
    case SloAlertState::kSlowBurn:
      return "slow-burn";
    case SloAlertState::kPage:
      return "page";
  }
  return "?";
}

SloTracker::SloTracker(std::vector<SloObjective> objectives)
    : objectives_(std::move(objectives)) {
  violations_.reserve(objectives_.size());
  for (const SloObjective& objective : objectives_) {
    violations_.emplace_back(std::max(1, objective.slow_window));
  }
}

std::vector<SloStatus> SloTracker::Evaluate(const TimeSeriesStore& store) {
  std::vector<SloStatus> out;
  out.reserve(objectives_.size());
  for (size_t i = 0; i < objectives_.size(); ++i) {
    const SloObjective& objective = objectives_[i];
    SloStatus status;
    status.name = objective.name;
    const TimeSeries* series = store.Find(objective.series);
    if (series != nullptr && series->size() > 0) {
      status.value = series->Latest();
      status.has_value = std::isfinite(status.value);
    }
    if (status.has_value) {
      status.violated = objective.comparison == SloComparison::kLessThan
                            ? !(status.value < objective.threshold)
                            : !(status.value > objective.threshold);
    }
    // A cycle with no signal burns nothing: record a non-violation so the
    // windows keep sliding instead of freezing on the last known state.
    violations_[i].Append(status.violated ? 1.0 : 0.0);

    const double budget = std::max(1e-12, objective.budget_fraction);
    const double fast_share =
        violations_[i].WindowMean(std::max(1, objective.fast_window));
    const double slow_share =
        violations_[i].WindowMean(std::max(1, objective.slow_window));
    status.fast_burn_rate = std::isnan(fast_share) ? 0.0 : fast_share / budget;
    status.slow_burn_rate = std::isnan(slow_share) ? 0.0 : slow_share / budget;

    const bool fast_hot =
        status.fast_burn_rate >= objective.fast_burn_threshold;
    const bool slow_hot =
        status.slow_burn_rate >= objective.slow_burn_threshold;
    status.alert = fast_hot && slow_hot ? SloAlertState::kPage
                   : fast_hot           ? SloAlertState::kFastBurn
                   : slow_hot           ? SloAlertState::kSlowBurn
                                        : SloAlertState::kOk;
    out.push_back(std::move(status));
  }
  return out;
}

// ---------------------------------------------------------------------------
// EwmaAnomalyDetector
// ---------------------------------------------------------------------------

EwmaAnomalyDetector::EwmaAnomalyDetector(AnomalyDetectorOptions options)
    : options_(options) {
  options_.alpha = std::min(1.0, std::max(1e-6, options_.alpha));
  options_.warmup = std::max(1, options_.warmup);
}

AnomalyStatus EwmaAnomalyDetector::Update(double x) {
  AnomalyStatus status;
  if (!std::isfinite(x)) return status;  // never folded in, never flagged
  if (points_ == 0) {
    mean_ = x;
    variance_ = 0.0;
    ++points_;
    return status;
  }
  const double std_dev =
      std::max(options_.min_std, std::sqrt(std::max(0.0, variance_)));
  status.ewma = mean_;
  status.ewm_std = std_dev;
  status.zscore = (x - mean_) / std_dev;
  status.anomalous = points_ >= options_.warmup &&
                     std::abs(status.zscore) > options_.z_threshold;

  // Fold in, clamping an anomalous deviation to the threshold so a single
  // spike shifts the baseline no more than a just-below-threshold point
  // would (otherwise the spike itself would mask a following regression).
  double folded = x;
  if (status.anomalous) {
    const double limit = options_.z_threshold * std_dev;
    folded = mean_ + (status.zscore > 0.0 ? limit : -limit);
  }
  const double a = options_.alpha;
  const double delta = folded - mean_;
  mean_ += a * delta;
  variance_ = (1.0 - a) * (variance_ + a * delta * delta);
  ++points_;
  return status;
}

// ---------------------------------------------------------------------------
// TelemetryPipeline
// ---------------------------------------------------------------------------

std::vector<SloObjective> DefaultSloObjectives() {
  // Thresholds in the production model's normalized units: rpc latency 1.0
  // / ipc 0.12, rpc error 1% / ipc 0.08%. The latency objective is on the
  // *median*: p99 is pinned at the rpc latency whenever even 1% of traffic
  // crosses machines, so it cannot distinguish placements, while p50 < 0.5
  // holds exactly when most traffic is localized. A placement that
  // localizes the heavy pairs meets both objectives; a drifted or
  // rolled-back cluster violates them.
  SloObjective latency;
  latency.name = "latency_p50";
  latency.series = "latency_p50";
  latency.comparison = SloComparison::kLessThan;
  latency.threshold = 0.5;
  SloObjective errors;
  errors.name = "error_rate";
  errors.series = "error_rate";
  errors.comparison = SloComparison::kLessThan;
  errors.threshold = 0.0095;
  return {latency, errors};
}

TelemetryPipeline::TelemetryPipeline(const TelemetryOptions& options)
    : options_(options),
      store_(options.series_capacity),
      slo_(options.objectives.empty() ? DefaultSloObjectives()
                                      : options.objectives),
      cost_detector_(options.anomaly),
      gap_detector_(options.anomaly) {}

CycleTelemetry TelemetryPipeline::RecordCycle(const CycleSample& sample) {
  store_.Append("cycle_seconds", sample.seconds);
  store_.Append("gained_affinity", sample.gained_affinity);
  store_.Append("optimality_gap", sample.optimality_gap);
  store_.Append("migration_truncation", sample.migration_truncation);
  store_.Append("dirty_subproblems",
                static_cast<double>(sample.dirty_subproblems));
  store_.Append("reused_subproblems",
                static_cast<double>(sample.reused_subproblems));
  store_.Append("lp_pivots", sample.lp_pivots);
  store_.Append("refactorizations", sample.refactorizations);
  store_.Append("latency_p50", sample.latency_p50);
  store_.Append("latency_p95", sample.latency_p95);
  store_.Append("latency_p99", sample.latency_p99);
  store_.Append("error_rate", sample.error_rate);

  CycleTelemetry derived;
  derived.populated = true;
  derived.slo = slo_.Evaluate(store_);
  derived.cost = cost_detector_.Update(sample.seconds);
  derived.gap = gap_detector_.Update(sample.optimality_gap);
  return derived;
}

namespace {

void AppendAnomalyJson(JsonWriter& w, const AnomalyStatus& status) {
  w.BeginObject();
  w.Key("anomalous").Value(status.anomalous);
  w.Key("zscore").Value(status.zscore);
  w.Key("ewma").Value(status.ewma);
  w.EndObject();
}

}  // namespace

std::string TelemetryPipeline::JournalLine(const CycleSample& sample,
                                           const CycleTelemetry& derived) {
  JsonWriter w;
  w.BeginObject();
  w.Key("v").Value(1);
  w.Key("cycle").Value(sample.cycle);
  w.Key("seconds").Value(sample.seconds);
  w.Key("affinity_before").Value(sample.affinity_before);
  w.Key("gained_affinity").Value(sample.gained_affinity);
  w.Key("optimality_gap").Value(sample.optimality_gap);
  w.Key("migration_truncation").Value(sample.migration_truncation);
  w.Key("dirty_subproblems").Value(sample.dirty_subproblems);
  w.Key("reused_subproblems").Value(sample.reused_subproblems);
  w.Key("lp_pivots").Value(sample.lp_pivots);
  w.Key("refactorizations").Value(sample.refactorizations);
  w.Key("latency_p50").Value(sample.latency_p50);
  w.Key("latency_p95").Value(sample.latency_p95);
  w.Key("latency_p99").Value(sample.latency_p99);
  w.Key("error_rate").Value(sample.error_rate);
  w.Key("executed").Value(sample.executed);
  w.Key("rolled_back").Value(sample.rolled_back);
  w.Key("solver_failed").Value(sample.solver_failed);
  w.Key("slo").BeginArray();
  for (const SloStatus& status : derived.slo) {
    w.BeginObject();
    w.Key("name").Value(status.name);
    if (status.has_value) w.Key("value").Value(status.value);
    w.Key("violated").Value(status.violated);
    w.Key("fast_burn").Value(status.fast_burn_rate);
    w.Key("slow_burn").Value(status.slow_burn_rate);
    w.Key("alert").Value(SloAlertStateName(status.alert));
    w.EndObject();
  }
  w.EndArray();
  w.Key("cost_anomaly");
  AppendAnomalyJson(w, derived.cost);
  w.Key("gap_anomaly");
  AppendAnomalyJson(w, derived.gap);
  w.EndObject();
  return w.str();
}

// ---------------------------------------------------------------------------
// OpenMetrics exposition
// ---------------------------------------------------------------------------

std::string OpenMetricsName(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  if (out.empty() || (out[0] >= '0' && out[0] <= '9')) out.insert(0, "_");
  return out;
}

namespace {

// OpenMetrics floats: full round-trip precision, +Inf spelled the
// OpenMetrics way.
std::string OmDouble(double v) {
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  if (std::isnan(v)) return "NaN";
  return StrFormat("%.17g", v);
}

}  // namespace

std::string OpenMetricsText(const MetricsSnapshot& snapshot) {
  std::string out;
  for (const auto& [name, value] : snapshot.counters) {
    const std::string om = OpenMetricsName(name);
    out += "# TYPE " + om + " counter\n";
    out += om + "_total " + StrFormat("%llu", (unsigned long long)value) + "\n";
  }
  for (const auto& [name, value] : snapshot.gauges) {
    const std::string om = OpenMetricsName(name);
    out += "# TYPE " + om + " gauge\n";
    out += om + " " + OmDouble(value) + "\n";
  }
  for (const auto& [name, h] : snapshot.histograms) {
    const std::string om = OpenMetricsName(name);
    out += "# TYPE " + om + " histogram\n";
    // Cumulative buckets, as the exposition format requires; the registry
    // keeps per-bucket counts, so accumulate while emitting. Empty buckets
    // are skipped except the mandatory +Inf bucket.
    uint64_t cumulative = 0;
    for (int b = 0; b < Histogram::kNumBuckets; ++b) {
      cumulative += h.buckets[b];
      const bool last = b == Histogram::kNumBuckets - 1;
      if (h.buckets[b] == 0 && !last) continue;
      out += om + "_bucket{le=\"" + OmDouble(Histogram::BucketUpperBound(b)) +
             "\"} " + StrFormat("%llu", (unsigned long long)cumulative) + "\n";
    }
    out += om + "_sum " + OmDouble(h.sum) + "\n";
    out += om + "_count " + StrFormat("%llu", (unsigned long long)h.count) +
           "\n";
  }
  out += "# EOF\n";
  return out;
}

// ---------------------------------------------------------------------------
// Chrome trace-event export
// ---------------------------------------------------------------------------

std::string ChromeTraceJson(const std::vector<TraceEvent>& events) {
  JsonWriter w;
  w.BeginObject();
  w.Key("traceEvents").BeginArray();
  for (const TraceEvent& e : events) {
    if (e.duration_seconds < 0.0) continue;  // still open
    w.BeginObject();
    w.Key("ph").Value("X");
    w.Key("ts").Value(1e6 * e.start_seconds);
    w.Key("dur").Value(1e6 * e.duration_seconds);
    w.Key("pid").Value(1);
    w.Key("tid").Value(e.tid);
    w.Key("name").Value(e.name);
    w.Key("args").BeginObject();
    w.Key("id").Value(static_cast<long>(e.id));
    w.Key("parent").Value(static_cast<long>(e.parent));
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.Key("displayTimeUnit").Value("ms");
  w.EndObject();
  return w.str();
}

}  // namespace rasa
