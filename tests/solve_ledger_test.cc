// The solve ledger: a process-wide, thread-safe flight recorder for
// per-subproblem solves. Covers the container semantics (append / snapshot
// / reset), the global enable switch, concurrent appends from a worker
// pool, and the integration contract: an Optimize run appends exactly its
// report's records when enabled and nothing when disabled.

#include <thread>
#include <vector>

#include "cluster/generator.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "core/rasa.h"
#include "core/solve_ledger.h"
#include "gtest/gtest.h"

namespace rasa {
namespace {

LedgerRecord MakeRecord(int subproblem, double realized) {
  LedgerRecord r;
  r.subproblem = subproblem;
  r.position = subproblem;
  r.realized_affinity = realized;
  r.primary.outcome = AttemptOutcome::kOk;
  return r;
}

TEST(SolveLedgerTest, AppendSnapshotReset) {
  SolveLedger ledger;
  EXPECT_EQ(ledger.size(), 0u);
  EXPECT_TRUE(ledger.Records().empty());

  ledger.Append(MakeRecord(0, 0.25));
  ledger.Append(MakeRecord(1, 0.5));
  EXPECT_EQ(ledger.size(), 2u);

  const std::vector<LedgerRecord> snapshot = ledger.Records();
  ASSERT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot[0].subproblem, 0);
  EXPECT_EQ(snapshot[1].subproblem, 1);
  EXPECT_DOUBLE_EQ(snapshot[1].realized_affinity, 0.5);
  EXPECT_EQ(snapshot[0].primary.outcome, AttemptOutcome::kOk);

  // The snapshot is a copy: appending after it does not grow it.
  ledger.AppendAll({MakeRecord(2, 0.75), MakeRecord(3, 1.0)});
  EXPECT_EQ(ledger.size(), 4u);
  EXPECT_EQ(snapshot.size(), 2u);

  ledger.Reset();
  EXPECT_EQ(ledger.size(), 0u);
}

TEST(SolveLedgerTest, OutcomeNames) {
  EXPECT_STREQ(AttemptOutcomeToString(AttemptOutcome::kNotRun), "not_run");
  EXPECT_STREQ(AttemptOutcomeToString(AttemptOutcome::kOk), "ok");
  EXPECT_STREQ(AttemptOutcomeToString(AttemptOutcome::kFailed), "failed");
  EXPECT_STREQ(AttemptOutcomeToString(AttemptOutcome::kExpired), "expired");
  EXPECT_STREQ(AttemptOutcomeToString(AttemptOutcome::kPruned), "pruned");
}

// A fixed-capacity ring: appends past kCapacity overwrite the oldest
// records, the snapshot stays oldest-first, and size() stops growing. The
// ledger.records counter still counts every append.
TEST(SolveLedgerTest, RingKeepsNewestRecordsInOrder) {
  constexpr int kCapacity = static_cast<int>(SolveLedger::kCapacity);
  constexpr int kExtra = 37;
  Counter& appended = MetricRegistry::Default().GetCounter("ledger.records");
  const uint64_t before = appended.Value();
  SolveLedger ledger;
  for (int i = 0; i < kCapacity + kExtra - 3; ++i) {
    ledger.Append(MakeRecord(i, 0.0));
  }
  ledger.AppendAll({MakeRecord(kCapacity + kExtra - 3, 0.0),
                    MakeRecord(kCapacity + kExtra - 2, 0.0),
                    MakeRecord(kCapacity + kExtra - 1, 0.0)});
  EXPECT_EQ(ledger.size(), SolveLedger::kCapacity);
  EXPECT_EQ(appended.Value() - before,
            static_cast<uint64_t>(kCapacity + kExtra));
  const std::vector<LedgerRecord> records = ledger.Records();
  ASSERT_EQ(records.size(), SolveLedger::kCapacity);
  for (int i = 0; i < kCapacity; ++i) {
    ASSERT_EQ(records[i].subproblem, kExtra + i) << "slot " << i;
  }

  ledger.Reset();
  EXPECT_EQ(ledger.size(), 0u);
  ledger.Append(MakeRecord(7, 0.0));
  ASSERT_EQ(ledger.Records().size(), 1u);
  EXPECT_EQ(ledger.Records()[0].subproblem, 7);
}

// 8 threads append concurrently, first filling the ring exactly (every
// record must arrive exactly once), then overrunning it 15x (every append
// is counted, and what stays is the newest kCapacity: per thread, a run of
// its last appends in append order).
TEST(SolveLedgerTest, ConcurrentAppendsLoseNothing) {
  constexpr int kThreads = 8;
  auto append_concurrently = [](SolveLedger& ledger, int per_thread) {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&ledger, t, per_thread] {
        for (int i = 0; i < per_thread; ++i) {
          ledger.Append(MakeRecord(t * per_thread + i, 0.0));
        }
      });
    }
    for (std::thread& t : threads) t.join();
  };

  constexpr int kFill = static_cast<int>(SolveLedger::kCapacity) / kThreads;
  SolveLedger filled;
  append_concurrently(filled, kFill);
  EXPECT_EQ(filled.size(), static_cast<size_t>(kThreads * kFill));
  std::vector<int> seen(kThreads * kFill, 0);
  for (const LedgerRecord& r : filled.Records()) ++seen[r.subproblem];
  for (int count : seen) EXPECT_EQ(count, 1);

  constexpr int kPerThread = 500;
  Counter& appended = MetricRegistry::Default().GetCounter("ledger.records");
  const uint64_t before = appended.Value();
  SolveLedger overrun;
  append_concurrently(overrun, kPerThread);
  EXPECT_EQ(appended.Value() - before,
            static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(overrun.size(), SolveLedger::kCapacity);
  std::vector<std::vector<int>> kept(kThreads);
  for (const LedgerRecord& r : overrun.Records()) {
    kept[r.subproblem / kPerThread].push_back(r.subproblem % kPerThread);
  }
  for (int t = 0; t < kThreads; ++t) {
    for (size_t k = 0; k < kept[t].size(); ++k) {
      EXPECT_EQ(kept[t][k],
                kPerThread - static_cast<int>(kept[t].size() - k))
          << "thread " << t;
    }
  }
}

TEST(SolveLedgerTest, EnableSwitchGatesOptimizerAppends) {
  ClusterSpec spec = M1Spec(64.0);
  spec.seed = 5;
  StatusOr<ClusterSnapshot> snapshot = GenerateCluster(spec);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();

  RasaOptions options;
  options.timeout_seconds = 10.0;
  options.seed = 77;
  options.compute_migration = false;
  RasaOptimizer optimizer(options,
                          AlgorithmSelector(SelectorPolicy::kHeuristic));

  SolveLedger& ledger = SolveLedger::Default();
  ledger.Reset();
  ASSERT_TRUE(SolveLedgerEnabled());  // default-on

  StatusOr<RasaResult> with = optimizer.Optimize(
      *snapshot->cluster, snapshot->original_placement);
  ASSERT_TRUE(with.ok()) << with.status().ToString();
  EXPECT_GT(with->report.records.size(), 0u);
  EXPECT_EQ(ledger.size(), with->report.records.size());

  ledger.Reset();
  SetSolveLedgerEnabled(false);
  StatusOr<RasaResult> without = optimizer.Optimize(
      *snapshot->cluster, snapshot->original_placement);
  SetSolveLedgerEnabled(true);
  ASSERT_TRUE(without.ok()) << without.status().ToString();
  // The result's report is part of the result, not the recorder: populated
  // either way. Only the global ledger stays silent.
  EXPECT_EQ(without->report.records.size(), with->report.records.size());
  EXPECT_EQ(ledger.size(), 0u);
}

}  // namespace
}  // namespace rasa
