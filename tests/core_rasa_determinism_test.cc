// Determinism suite for the parallel subproblem phase: Optimize (and the
// full workflow, including under injected chaos) must produce bit-identical
// placements, reports, and degradation-ladder counters at every thread
// count. `SubproblemReport.seconds` is wall-clock and is deliberately
// excluded from the comparisons.
//
// The solver budgets here are either generous (every subproblem completes
// well inside its reserved slice, so Deadline::Expired() never fires
// mid-solve) or zero (the ladder collapses straight to the greedy). Both
// regimes are scheduling-independent; see DESIGN.md "Threading model".

#include <vector>

#include "cluster/generator.h"
#include "common/logging.h"
#include "core/mip_algorithm.h"
#include "core/objective.h"
#include "core/partitioning.h"
#include "core/rasa.h"
#include "gtest/gtest.h"
#include "sim/workflow.h"

namespace rasa {
namespace {

ClusterSnapshot MakeCluster(uint64_t seed) {
  ClusterSpec spec = M1Spec(48.0);
  spec.seed = seed;
  StatusOr<ClusterSnapshot> snapshot = GenerateCluster(spec);
  RASA_CHECK(snapshot.ok()) << snapshot.status().ToString();
  return std::move(snapshot).value();
}

RasaResult RunOptimize(const ClusterSnapshot& snapshot, RasaOptions options,
                       int threads) {
  options.num_threads = threads;
  // Small subproblems keep the exact solvers' worst case well under the
  // generous deadline on every seed (bounded, scheduling-independent work).
  options.partitioning.max_subproblem_services = 12;
  RasaOptimizer optimizer(options,
                          AlgorithmSelector(SelectorPolicy::kHeuristic));
  StatusOr<RasaResult> result =
      optimizer.Optimize(*snapshot.cluster, snapshot.original_placement);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

// Bit-exact equality of everything except wall-clock timings.
void ExpectIdenticalResults(const RasaResult& seq, const RasaResult& par) {
  EXPECT_EQ(seq.new_placement.DiffCount(par.new_placement), 0);
  EXPECT_EQ(par.new_placement.DiffCount(seq.new_placement), 0);
  EXPECT_EQ(seq.new_gained_affinity, par.new_gained_affinity);
  EXPECT_EQ(seq.original_gained_affinity, par.original_gained_affinity);
  EXPECT_EQ(seq.should_execute, par.should_execute);
  EXPECT_EQ(seq.moved_containers, par.moved_containers);
  EXPECT_EQ(seq.lost_containers, par.lost_containers);
  EXPECT_EQ(seq.solver_failures, par.solver_failures);
  EXPECT_EQ(seq.secondary_successes, par.secondary_successes);
  EXPECT_EQ(seq.greedy_fallbacks, par.greedy_fallbacks);
  EXPECT_EQ(seq.breaker_skips, par.breaker_skips);
  EXPECT_EQ(seq.migration.batches.size(), par.migration.batches.size());
  ASSERT_EQ(seq.subproblems.size(), par.subproblems.size());
  for (size_t i = 0; i < seq.subproblems.size(); ++i) {
    const SubproblemReport& a = seq.subproblems[i];
    const SubproblemReport& b = par.subproblems[i];
    EXPECT_EQ(a.num_services, b.num_services) << "subproblem " << i;
    EXPECT_EQ(a.num_machines, b.num_machines) << "subproblem " << i;
    EXPECT_EQ(a.internal_affinity, b.internal_affinity) << "subproblem " << i;
    EXPECT_EQ(a.algorithm, b.algorithm) << "subproblem " << i;
    EXPECT_EQ(a.gained_affinity, b.gained_affinity) << "subproblem " << i;
    EXPECT_EQ(a.unplaced_containers, b.unplaced_containers)
        << "subproblem " << i;
    EXPECT_EQ(a.failed, b.failed) << "subproblem " << i;
    EXPECT_EQ(a.used_secondary, b.used_secondary) << "subproblem " << i;
    // a.seconds / b.seconds intentionally not compared.
  }
}

TEST(RasaDeterminismTest, ParallelMatchesSequentialAcrossSeeds) {
  const uint64_t seeds[] = {1, 2, 3, 5, 8, 13, 21, 34};
  for (uint64_t seed : seeds) {
    SCOPED_TRACE(::testing::Message() << "cluster seed " << seed);
    const ClusterSnapshot snapshot = MakeCluster(seed);
    RasaOptions options;
    // Generous budget: no solve may be cut off mid-flight, otherwise the
    // comparison would be racing the wall clock instead of the merge.
    options.timeout_seconds = 30.0;
    options.seed = seed * 31 + 7;
    const RasaResult seq = RunOptimize(snapshot, options, 1);
    const RasaResult par = RunOptimize(snapshot, options, 4);
    EXPECT_EQ(seq.num_threads_used, 1);
    EXPECT_EQ(par.num_threads_used, 4);
    ExpectIdenticalResults(seq, par);
  }
}

TEST(RasaDeterminismTest, ParallelMatchesSequentialWithLocalSearch) {
  const ClusterSnapshot snapshot = MakeCluster(77);
  RasaOptions options;
  options.timeout_seconds = 30.0;
  options.refine_with_local_search = true;
  const RasaResult seq = RunOptimize(snapshot, options, 1);
  const RasaResult par = RunOptimize(snapshot, options, 4);
  ExpectIdenticalResults(seq, par);
}

// Exhausted budget: every rung of the ladder is skipped as expired and all
// subproblems fall to the greedy — the all-expired path must also be
// scheduling-independent.
TEST(RasaDeterminismTest, ParallelMatchesSequentialUnderExhaustedBudget) {
  const uint64_t seeds[] = {4, 9, 16, 25};
  for (uint64_t seed : seeds) {
    SCOPED_TRACE(::testing::Message() << "cluster seed " << seed);
    const ClusterSnapshot snapshot = MakeCluster(seed);
    RasaOptions options;
    options.timeout_seconds = 0.0;
    const RasaResult seq = RunOptimize(snapshot, options, 1);
    const RasaResult par = RunOptimize(snapshot, options, 4);
    ExpectIdenticalResults(seq, par);
    EXPECT_EQ(par.greedy_fallbacks,
              static_cast<int>(par.subproblems.size()));
  }
}

// The full periodic workflow under chaos (command failures, stale
// snapshots, solver-budget exhaustion) consumes its RNG streams identically
// at every thread count, so every cycle — and the final placement — must
// replay bit-for-bit.
TEST(RasaDeterminismTest, ChaosWorkflowMatchesAcrossThreadCounts) {
  const ClusterSnapshot snapshot = MakeCluster(6);
  WorkflowOptions options;
  options.cycles = 3;
  options.rasa.timeout_seconds = 10.0;
  options.inject_faults = true;
  options.faults.command_failure_probability = 0.15;
  options.faults.solver_exhaustion_probability = 0.4;
  options.faults.stale_snapshot_drift = 0.02;
  options.seed = 2024;

  WorkflowOptions seq_options = options;
  seq_options.rasa.num_threads = 1;
  WorkflowOptions par_options = options;
  par_options.rasa.num_threads = 4;
  const AlgorithmSelector selector(SelectorPolicy::kHeuristic);
  StatusOr<WorkflowReport> seq =
      RunWorkflow(*snapshot.cluster, snapshot.original_placement, selector,
                  seq_options);
  StatusOr<WorkflowReport> par =
      RunWorkflow(*snapshot.cluster, snapshot.original_placement, selector,
                  par_options);
  ASSERT_TRUE(seq.ok()) << seq.status().ToString();
  ASSERT_TRUE(par.ok()) << par.status().ToString();

  EXPECT_EQ(seq->final_placement.DiffCount(par->final_placement), 0);
  EXPECT_EQ(par->final_placement.DiffCount(seq->final_placement), 0);
  EXPECT_EQ(GainedAffinity(*snapshot.cluster, seq->final_placement),
            GainedAffinity(*snapshot.cluster, par->final_placement));
  EXPECT_EQ(seq->executions, par->executions);
  EXPECT_EQ(seq->dry_runs, par->dry_runs);
  EXPECT_EQ(seq->rollbacks, par->rollbacks);
  EXPECT_EQ(seq->solver_failures, par->solver_failures);
  EXPECT_EQ(seq->commands_failed, par->commands_failed);
  EXPECT_EQ(seq->command_retries, par->command_retries);
  EXPECT_EQ(seq->replans, par->replans);
  EXPECT_EQ(seq->faults_injected, par->faults_injected);
  EXPECT_EQ(seq->sla_violations, 0);
  EXPECT_EQ(par->sla_violations, 0);
  ASSERT_EQ(seq->cycles.size(), par->cycles.size());
  for (size_t c = 0; c < seq->cycles.size(); ++c) {
    EXPECT_EQ(seq->cycles[c].affinity_after, par->cycles[c].affinity_after)
        << "cycle " << c;
    EXPECT_EQ(seq->cycles[c].moved_containers,
              par->cycles[c].moved_containers)
        << "cycle " << c;
  }
}

// Thread-count sweep on one seed: every parallel width maps to the same
// merged output.
TEST(RasaDeterminismTest, AllThreadCountsAgree) {
  const ClusterSnapshot snapshot = MakeCluster(11);
  RasaOptions options;
  options.timeout_seconds = 30.0;
  const RasaResult seq = RunOptimize(snapshot, options, 1);
  for (int threads : {2, 3, 8}) {
    SCOPED_TRACE(::testing::Message() << threads << " threads");
    ExpectIdenticalResults(seq, RunOptimize(snapshot, options, threads));
  }
}

// The circuit breaker, with every subproblem labelled MIP. M2 at scale 8 is
// the smallest generated cluster with more than three subproblems over
// MIP's row cap whose first three canonical positions are all over it (M2
// at scale 16 has four, but one that fits comes before the third, and its
// branch-and-bound runs to its budget share). So the first three MIP
// primaries fail, the breaker opens, every later one is pruned, and CG
// solves them all on rung 1; records and placement must not depend on the
// thread count.
TEST(RasaDeterminismTest, CircuitBreakerPrunesMipAfterThreeRowCapMisses) {
  StatusOr<ClusterSnapshot> snapshot = GenerateCluster(M2Spec(8.0));
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  const Cluster& cluster = *snapshot->cluster;
  RasaOptions options;
  // The CG secondary on the largest subproblem gets half that subproblem's
  // share of the budget and takes about 15 s under ThreadSanitizer: 30 s
  // would cut it off mid-solve, where results depend on timing.
  options.timeout_seconds = 300.0;
  options.compute_migration = false;
  auto run = [&](int threads) {
    RasaOptions opts = options;
    opts.num_threads = threads;
    RasaOptimizer optimizer(opts,
                            AlgorithmSelector(SelectorPolicy::kAlwaysMip));
    StatusOr<RasaResult> result =
        optimizer.Optimize(cluster, snapshot->original_placement);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return std::move(result).value();
  };
  const PartitionResult partition = PartitionServices(
      cluster, snapshot->original_placement, options.partitioning);

  const RasaResult seq = run(1);
  int misses = 0;
  int pruned = 0;
  for (const LedgerRecord& rec : seq.report.records) {
    SCOPED_TRACE(::testing::Message() << "position " << rec.position);
    ASSERT_EQ(rec.selected, PoolAlgorithm::kMip);
    if (misses < 3) {
      ASSERT_FALSE(MipModelFits(cluster, partition.subproblems[rec.subproblem]))
          << "a MIP that fits runs before the breaker opens";
      EXPECT_EQ(rec.primary.outcome, AttemptOutcome::kFailed);
      ++misses;
    } else {
      EXPECT_EQ(rec.primary.outcome, AttemptOutcome::kPruned);
      ++pruned;
    }
    EXPECT_EQ(rec.secondary.algorithm, PoolAlgorithm::kCg);
    EXPECT_EQ(rec.secondary.outcome, AttemptOutcome::kOk);
    EXPECT_EQ(rec.ladder_rung, 1);
  }
  EXPECT_EQ(misses, 3);
  EXPECT_GE(pruned, 1);
  EXPECT_EQ(seq.breaker_skips, pruned);
  EXPECT_EQ(seq.solver_failures, 3);
  EXPECT_EQ(seq.secondary_successes, misses + pruned);
  EXPECT_EQ(seq.greedy_fallbacks, 0);

  for (int threads : {4, 8}) {
    SCOPED_TRACE(::testing::Message() << threads << " threads");
    const RasaResult par = run(threads);
    ExpectIdenticalResults(seq, par);
    ASSERT_EQ(seq.report.records.size(), par.report.records.size());
    for (size_t i = 0; i < seq.report.records.size(); ++i) {
      const LedgerRecord& a = seq.report.records[i];
      const LedgerRecord& b = par.report.records[i];
      EXPECT_EQ(a.subproblem, b.subproblem) << "record " << i;
      EXPECT_EQ(a.primary.outcome, b.primary.outcome) << "record " << i;
      EXPECT_EQ(a.secondary.algorithm, b.secondary.algorithm) << "record " << i;
      EXPECT_EQ(a.secondary.outcome, b.secondary.outcome) << "record " << i;
      EXPECT_EQ(a.ladder_rung, b.ladder_rung) << "record " << i;
      EXPECT_EQ(a.realized_affinity, b.realized_affinity) << "record " << i;
      EXPECT_EQ(a.certificate_bound, b.certificate_bound) << "record " << i;
    }
  }
}

}  // namespace
}  // namespace rasa
