// The determinism contract of the explain layer: the optimizer's placement
// AND its explain report are bit-identical at every thread count. The
// report is rendered without wall-clock fields (AppendExplainJson
// include_timings=false) and compared as a string — one differing byte
// anywhere (a record out of canonical order, an attempt outcome that
// depends on worker scheduling, a float that drifted) fails the test.

#include <string>

#include "cluster/generator.h"
#include "common/json_writer.h"
#include "common/logging.h"
#include "core/explain.h"
#include "core/rasa.h"
#include "gtest/gtest.h"

namespace rasa {
namespace {

ClusterSnapshot MakeCluster(uint64_t seed) {
  ClusterSpec spec = M1Spec(48.0);
  spec.seed = seed;
  StatusOr<ClusterSnapshot> snapshot = GenerateCluster(spec);
  RASA_CHECK(snapshot.ok()) << snapshot.status().ToString();
  return std::move(snapshot).value();
}

RasaResult RunOptimize(const ClusterSnapshot& snapshot, int threads) {
  RasaOptions options;
  // Generous budget + small subproblems: no solve is ever cut off
  // mid-flight, so the comparison never races the wall clock (same regime
  // as core_rasa_determinism_test / metrics_determinism_test).
  options.timeout_seconds = 30.0;
  options.seed = 1234;
  options.num_threads = threads;
  options.partitioning.max_subproblem_services = 12;
  RasaOptimizer optimizer(options,
                          AlgorithmSelector(SelectorPolicy::kHeuristic));
  StatusOr<RasaResult> result =
      optimizer.Optimize(*snapshot.cluster, snapshot.original_placement);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

std::string RenderWithoutTimings(const RasaResult& result) {
  JsonWriter writer;
  AppendExplainJson(writer, result.report, /*include_timings=*/false);
  return writer.str();
}

TEST(ExplainDeterminismTest, BitIdenticalAcrossThreadCounts) {
  const ClusterSnapshot snapshot = MakeCluster(17);

  // The 1-thread run is the reference everything must match.
  const RasaResult reference = RunOptimize(snapshot, 1);
  const std::string reference_report = RenderWithoutTimings(reference);
  ASSERT_TRUE(reference.report.populated);
  ASSERT_GT(reference.report.records.size(), 1u);

  for (int threads : {1, 4, 8}) {
    SCOPED_TRACE(::testing::Message() << threads << " threads");
    const RasaResult result = RunOptimize(snapshot, threads);
    EXPECT_EQ(result.new_placement.DiffCount(reference.new_placement), 0);
    EXPECT_EQ(reference.new_placement.DiffCount(result.new_placement), 0);
    EXPECT_EQ(result.new_gained_affinity, reference.new_gained_affinity);
    EXPECT_EQ(RenderWithoutTimings(result), reference_report);
  }
}

}  // namespace
}  // namespace rasa
