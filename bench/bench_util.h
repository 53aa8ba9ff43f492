#ifndef RASA_BENCH_BENCH_UTIL_H_
#define RASA_BENCH_BENCH_UTIL_H_

// Shared helpers for the table/figure reproduction benches. Every bench is
// a standalone binary that prints the paper-style rows. Environment knobs:
//   RASA_BENCH_SCALE    cluster downscale divisor (default 16; 1 = paper
//                       size — only sensible on a large machine)
//   RASA_BENCH_TIMEOUT  solver time-out in seconds (default 2; stands in
//                       for the paper's one-minute SLO)
//   RASA_BENCH_JSON_DIR directory for machine-readable BENCH_<name>.json
//                       result files (default: current directory)

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "cluster/generator.h"
#include "common/durable_io.h"
#include "common/json_writer.h"
#include "common/logging.h"
#include "common/strings.h"
#include "core/selector_trainer.h"

namespace rasa::bench {

inline double BenchScale() {
  const char* env = std::getenv("RASA_BENCH_SCALE");
  const double v = env != nullptr ? std::atof(env) : 0.0;
  return v > 0.0 ? v : 16.0;
}

inline double BenchTimeout() {
  const char* env = std::getenv("RASA_BENCH_TIMEOUT");
  const double v = env != nullptr ? std::atof(env) : 0.0;
  return v > 0.0 ? v : 2.0;
}

/// Generates the four Table II clusters at the bench scale. Aborts the
/// bench on generation failure (cannot happen with default settings).
inline std::vector<ClusterSnapshot> BenchClusters() {
  std::vector<ClusterSnapshot> out;
  for (const ClusterSpec& spec : TableTwoSpecs(BenchScale())) {
    StatusOr<ClusterSnapshot> snapshot = GenerateCluster(spec);
    RASA_CHECK(snapshot.ok()) << snapshot.status().ToString();
    out.push_back(std::move(snapshot).value());
  }
  return out;
}

/// The selector used by the "full RASA" benches (Figs. 6, 7, 9, 10): the
/// trained GCN, cached at the resolved selector-cache prefix (see
/// ResolveSelectorCachePrefix: RASA_SELECTOR_CACHE env or
/// .rasa_cache/ under the working directory) so the labeling + training
/// pass runs once across all bench binaries without littering the source
/// tree with model artifacts.
inline AlgorithmSelector BenchSelector() {
  SelectorTrainingOptions train;
  train.num_samples = 120;
  train.label_timeout_seconds = std::max(0.2, BenchTimeout() / 3.0);
  train.cluster_scale = 1.5 * BenchScale();
  std::fprintf(stderr, "loading/training the GCN selector...\n");
  StatusOr<TrainedSelectors> selectors =
      GetOrTrainSelectors(ResolveSelectorCachePrefix(), train);
  RASA_CHECK(selectors.ok()) << selectors.status().ToString();
  return AlgorithmSelector(std::move(selectors->gcn));
}

inline void PrintHeader(const std::string& title, const std::string& what) {
  std::printf("==================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("%s\n", what.c_str());
  std::printf("scale=1/%.0f  timeout=%.2fs  (paper: full scale, 60s)\n",
              BenchScale(), BenchTimeout());
  std::printf("==================================================================\n");
}

inline void PrintRule() {
  std::printf("------------------------------------------------------------------\n");
}

/// Machine-readable bench results: accumulates flat rows of key -> value and
/// writes them as a JSON array of objects to BENCH_<name>.json (in
/// RASA_BENCH_JSON_DIR, default the working directory). Numbers are emitted
/// unquoted with full round-trip precision so downstream tooling can diff
/// runs bit-exactly.
class BenchJsonWriter {
 public:
  explicit BenchJsonWriter(std::string name) : name_(std::move(name)) {}
  ~BenchJsonWriter() { Flush(); }

  BenchJsonWriter& BeginRow() {
    rows_.emplace_back();
    return *this;
  }
  BenchJsonWriter& Field(const std::string& key, const std::string& value) {
    rows_.back().emplace_back(key, "\"" + Escaped(value) + "\"");
    return *this;
  }
  BenchJsonWriter& Field(const std::string& key, const char* value) {
    return Field(key, std::string(value));
  }
  BenchJsonWriter& Field(const std::string& key, double value) {
    // JSON has no NaN/Inf: non-finite values degrade to null, as in
    // JsonWriter, so the strict reader accepts every file this writes.
    rows_.back().emplace_back(
        key, std::isfinite(value) ? StrFormat("%.17g", value) : "null");
    return *this;
  }
  BenchJsonWriter& Field(const std::string& key, int value) {
    rows_.back().emplace_back(key, StrFormat("%d", value));
    return *this;
  }
  BenchJsonWriter& Field(const std::string& key, bool value) {
    rows_.back().emplace_back(key, value ? "true" : "false");
    return *this;
  }

  /// Writes the file; called automatically on destruction (idempotent).
  /// Crash-atomic (tmp + fsync + rename): a result file downstream tooling
  /// sees is always complete, never a torn prefix.
  void Flush() {
    if (flushed_) return;
    flushed_ = true;
    const std::string path = Path();
    std::string body = "[\n";
    for (size_t r = 0; r < rows_.size(); ++r) {
      body += "  {";
      for (size_t f = 0; f < rows_[r].size(); ++f) {
        if (f > 0) body += ", ";
        body += "\"" + Escaped(rows_[r][f].first) +
                "\": " + rows_[r][f].second;
      }
      body += "}";
      if (r + 1 < rows_.size()) body += ",";
      body += "\n";
    }
    body += "]\n";
    const Status written = AtomicWriteFile(path, body);
    if (!written.ok()) {
      std::fprintf(stderr, "bench: cannot write %s: %s\n", path.c_str(),
                   written.ToString().c_str());
      return;
    }
    std::fprintf(stderr, "bench: wrote %s (%zu rows)\n", path.c_str(),
                 rows_.size());
  }

  std::string Path() const {
    const char* dir = std::getenv("RASA_BENCH_JSON_DIR");
    const std::string prefix =
        dir != nullptr && dir[0] != '\0' ? std::string(dir) + "/" : "";
    return prefix + "BENCH_" + name_ + ".json";
  }

 private:
  // Shared JSON plumbing (also used by the metrics exporter).
  static std::string Escaped(const std::string& s) {
    return JsonWriter::Escaped(s);
  }

  std::string name_;
  std::vector<std::vector<std::pair<std::string, std::string>>> rows_;
  bool flushed_ = false;
};

}  // namespace rasa::bench

#endif  // RASA_BENCH_BENCH_UTIL_H_
