#include "core/migration.h"

#include <algorithm>

#include "cluster/first_fit.h"
#include "cluster/generator.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/rasa.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace rasa {
namespace {

using ::rasa::testing::ClusterBuilder;

TEST(MigrationTest, IdentityMappingNeedsNoCommands) {
  auto cluster = ClusterBuilder().AddService(2, {1.0}).AddMachine({4.0})
                     .Build();
  Placement p(*cluster);
  p.Add(0, 0, 2);
  StatusOr<MigrationPlan> plan = ComputeMigrationPath(*cluster, p, p);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->batches.empty());
  EXPECT_EQ(plan->total_deletes, 0);
  EXPECT_TRUE(ValidateMigrationPlan(*cluster, p, p, *plan).ok());
}

TEST(MigrationTest, SimpleSwapAcrossMachines) {
  auto cluster = ClusterBuilder()
                     .AddService(4, {1.0})
                     .AddMachine({4.0})
                     .AddMachine({4.0})
                     .Build();
  Placement from(*cluster);
  from.Add(0, 0, 4);
  Placement to(*cluster);
  to.Add(0, 0, 2);
  to.Add(1, 0, 2);
  StatusOr<MigrationPlan> plan = ComputeMigrationPath(*cluster, from, to);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->total_deletes, 2);
  EXPECT_EQ(plan->total_creates, 2);
  EXPECT_EQ(plan->stranded_deletes, 0);
  EXPECT_TRUE(ValidateMigrationPlan(*cluster, from, to, *plan).ok());
}

TEST(MigrationTest, TightCapacityForcesDeleteBeforeCreate) {
  // Both machines are full; the move is only possible by deleting first.
  auto cluster = ClusterBuilder()
                     .AddService(2, {2.0})
                     .AddService(2, {2.0})
                     .AddMachine({4.0})
                     .AddMachine({4.0})
                     .Build();
  Placement from(*cluster);
  from.Add(0, 0, 2);
  from.Add(1, 1, 2);
  Placement to(*cluster);  // swap the services
  to.Add(0, 1, 2);
  to.Add(1, 0, 2);
  StatusOr<MigrationPlan> plan = ComputeMigrationPath(*cluster, from, to);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(ValidateMigrationPlan(*cluster, from, to, *plan).ok());
  // First batch must be deletes.
  ASSERT_FALSE(plan->batches.empty());
  EXPECT_EQ(plan->batches.front().front().type,
            MigrationCommandType::kDelete);
}

TEST(MigrationTest, SlaFloorLimitsParallelDeletes) {
  // d = 8 with 75% floor: at most 2 containers offline at any time.
  auto cluster = ClusterBuilder()
                     .AddService(8, {1.0})
                     .AddMachine({8.0})
                     .AddMachine({8.0})
                     .Build();
  Placement from(*cluster);
  from.Add(0, 0, 8);
  Placement to(*cluster);
  to.Add(0, 0, 2);
  to.Add(1, 0, 6);
  StatusOr<MigrationPlan> plan = ComputeMigrationPath(*cluster, from, to);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(ValidateMigrationPlan(*cluster, from, to, *plan).ok());
  // Replay and measure the worst-case offline count.
  Placement current = from;
  int worst_offline = 0;
  for (const auto& batch : plan->batches) {
    for (const MigrationCommand& cmd : batch) {
      if (cmd.type == MigrationCommandType::kDelete) {
        ASSERT_TRUE(current.Remove(cmd.machine, cmd.service).ok());
      } else {
        current.Add(cmd.machine, cmd.service);
      }
    }
    worst_offline = std::max(worst_offline, 8 - current.TotalOf(0));
  }
  EXPECT_LE(worst_offline, 2);
}

TEST(MigrationTest, StrandedDeletesGoLast) {
  // Target deploys fewer containers than the original.
  auto cluster = ClusterBuilder()
                     .AddService(3, {1.0})
                     .AddMachine({4.0})
                     .Build();
  Placement from(*cluster);
  from.Add(0, 0, 3);
  Placement to(*cluster);
  to.Add(0, 0, 2);
  StatusOr<MigrationPlan> plan = ComputeMigrationPath(*cluster, from, to);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->stranded_deletes, 1);
  EXPECT_TRUE(ValidateMigrationPlan(*cluster, from, to, *plan).ok());
}

TEST(MigrationTest, SummaryMentionsCounts) {
  MigrationPlan plan;
  plan.total_deletes = 3;
  plan.total_creates = 2;
  plan.batches.resize(2);
  const std::string s = plan.Summary();
  EXPECT_NE(s.find("2 batches"), std::string::npos);
  EXPECT_NE(s.find("3 deletes"), std::string::npos);
}

TEST(MigrationTest, ValidateCatchesCorruptPlan) {
  auto cluster = ClusterBuilder()
                     .AddService(2, {1.0})
                     .AddMachine({4.0})
                     .AddMachine({4.0})
                     .Build();
  Placement from(*cluster);
  from.Add(0, 0, 2);
  Placement to(*cluster);
  to.Add(1, 0, 2);
  MigrationPlan bogus;
  // Creating before deleting violates the final-state equality.
  bogus.batches.push_back(
      {{MigrationCommandType::kCreate, 0, 1}});
  EXPECT_FALSE(ValidateMigrationPlan(*cluster, from, to, bogus).ok());
}

TEST(MigrationTest, BatchesAreOneCommandPerMachine) {
  auto cluster = ClusterBuilder()
                     .AddService(6, {1.0})
                     .AddService(6, {1.0})
                     .AddMachine({12.0})
                     .AddMachine({12.0})
                     .Build();
  Placement from(*cluster);
  from.Add(0, 0, 6);
  from.Add(1, 1, 6);
  Placement to(*cluster);
  to.Add(0, 0, 3);
  to.Add(1, 0, 3);
  to.Add(0, 1, 3);
  to.Add(1, 1, 3);
  StatusOr<MigrationPlan> plan = ComputeMigrationPath(*cluster, from, to);
  ASSERT_TRUE(plan.ok());
  for (const auto& batch : plan->batches) {
    std::set<int> machines;
    for (const MigrationCommand& cmd : batch) {
      EXPECT_TRUE(machines.insert(cmd.machine).second)
          << "two commands on machine " << cmd.machine << " in one batch";
    }
  }
}

// Property: migration between ORIGINAL and RASA-optimized placements on
// generated clusters always validates.
class MigrationPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(MigrationPropertyTest, RandomReshuffleValidates) {
  ClusterSpec spec = M3Spec(16.0);
  spec.seed = 900 + GetParam();
  StatusOr<ClusterSnapshot> snapshot = GenerateCluster(spec);
  ASSERT_TRUE(snapshot.ok());
  // A second first-fit with a different seed as the "target" placement.
  Rng rng(GetParam() + 1);
  StatusOr<Placement> target = FirstFitPlace(*snapshot->cluster, rng);
  ASSERT_TRUE(target.ok());
  StatusOr<MigrationPlan> plan = ComputeMigrationPath(
      *snapshot->cluster, snapshot->original_placement, *target);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_TRUE(ValidateMigrationPlan(*snapshot->cluster,
                                    snapshot->original_placement, *target,
                                    *plan)
                  .ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, MigrationPropertyTest, ::testing::Range(0, 8));

// ------------------------------------------------------ MinAliveFloor ----

// The shared SLA floor: ceil(fraction * demand) with the guaranteed-
// progress carve-out (at most demand - 1, never negative) that keeps small
// services migratable — the naive ceil equals d for every d <= 4 at the
// paper's 0.75.
TEST(MinAliveFloorTest, ExplicitValuesForSmallDemands) {
  EXPECT_EQ(MinAliveFloor(0, 0.75), 0);

  EXPECT_EQ(MinAliveFloor(1, 0.5), 0);
  EXPECT_EQ(MinAliveFloor(1, 0.75), 0);
  EXPECT_EQ(MinAliveFloor(1, 1.0), 0);

  EXPECT_EQ(MinAliveFloor(2, 0.5), 1);
  EXPECT_EQ(MinAliveFloor(2, 0.75), 1);  // ceil(1.5) = 2, capped to d-1
  EXPECT_EQ(MinAliveFloor(2, 1.0), 1);

  EXPECT_EQ(MinAliveFloor(3, 0.5), 2);   // ceil(1.5) = 2
  EXPECT_EQ(MinAliveFloor(3, 0.75), 2);  // ceil(2.25) = 3, capped
  EXPECT_EQ(MinAliveFloor(3, 1.0), 2);

  EXPECT_EQ(MinAliveFloor(4, 0.5), 2);
  EXPECT_EQ(MinAliveFloor(4, 0.75), 3);
  EXPECT_EQ(MinAliveFloor(4, 1.0), 3);

  // Large demands: the cap no longer binds.
  EXPECT_EQ(MinAliveFloor(8, 0.75), 6);
  EXPECT_EQ(MinAliveFloor(100, 0.75), 75);
}

// Full d x fraction matrix: a small service moving across machines always
// gets a plan (the carve-out guarantees progress), and replaying it batch
// by batch never dips below the floor — including mid-batch, after the
// deletes and before the creates.
TEST(MinAliveFloorTest, EmittedBatchesRespectTheFloor) {
  for (int d : {1, 2, 3, 4}) {
    for (double fraction : {0.5, 0.75, 1.0}) {
      SCOPED_TRACE(::testing::Message()
                   << "demand " << d << ", fraction " << fraction);
      auto cluster = ClusterBuilder()
                         .AddService(d, {1.0})
                         .AddMachine({static_cast<double>(d)})
                         .AddMachine({static_cast<double>(d)})
                         .Build();
      Placement from(*cluster);
      from.Add(0, 0, d);
      Placement to(*cluster);
      to.Add(1, 0, d);

      MigrationOptions options;
      options.min_alive_fraction = fraction;
      StatusOr<MigrationPlan> plan =
          ComputeMigrationPath(*cluster, from, to, options);
      ASSERT_TRUE(plan.ok()) << plan.status();
      EXPECT_TRUE(
          ValidateMigrationPlan(*cluster, from, to, *plan, fraction).ok());

      const int floor_alive = MinAliveFloor(d, fraction);
      int alive = d;
      for (size_t b = 0; b < plan->batches.size(); ++b) {
        int deletes = 0;
        int creates = 0;
        for (const MigrationCommand& cmd : plan->batches[b]) {
          (cmd.type == MigrationCommandType::kDelete ? deletes : creates)++;
        }
        // Worst point of the batch: deletes applied, creates not yet.
        EXPECT_GE(alive - deletes, floor_alive) << "mid-batch " << b;
        alive += creates - deletes;
        EXPECT_GE(alive, floor_alive) << "after batch " << b;
      }
      EXPECT_EQ(alive, d);  // the full deployment arrives
    }
  }
}

// ------------------------------------------- batch-scoped validation ----

// A pre-existing violation that batch 0 repairs: batch 0's full audit
// passes, so the plan is accepted, as with a full audit after every batch.
TEST(MigrationScopingTest, PlanRepairingPreexistingViolationInBatchZero) {
  auto cluster = ClusterBuilder()
                     .AddService(2, {1.0})
                     .AddMachine({4.0})
                     .AddMachine({4.0})
                     .AddRule({0}, 1)
                     .Build();
  Placement from(*cluster);
  from.Add(0, 0, 2);  // 2 > 1 on machine 0
  Placement to(*cluster);
  to.Add(0, 0, 1);
  to.Add(1, 0, 1);
  StatusOr<MigrationPlan> plan = ComputeMigrationPath(*cluster, from, to);
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ(plan->batches.size(), 2u);
  EXPECT_EQ(plan->batches[0].front().type, MigrationCommandType::kDelete);
  EXPECT_TRUE(ValidateMigrationPlan(*cluster, from, to, *plan).ok());
}

// A pre-existing violation batch 0 leaves alone is reported by batch 0's
// full audit, with the audit's own message.
TEST(MigrationScopingTest, PreexistingViolationOutsideBatchZeroIsRejected) {
  auto cluster = ClusterBuilder()
                     .AddService(2, {1.0})
                     .AddService(2, {1.0})
                     .AddMachine({4.0})
                     .AddMachine({4.0})
                     .AddMachine({4.0})
                     .AddRule({1}, 1)
                     .Build();
  Placement from(*cluster);
  from.Add(0, 0, 2);
  from.Add(2, 1, 2);  // untouched by the plan, 2 > 1
  Placement to(*cluster);
  to.Add(0, 0, 1);
  to.Add(1, 0, 1);
  to.Add(2, 1, 2);
  StatusOr<MigrationPlan> plan = ComputeMigrationPath(*cluster, from, to);
  ASSERT_TRUE(plan.ok()) << plan.status();
  const Status status = ValidateMigrationPlan(*cluster, from, to, *plan);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(status.message(),
            "machine 2 violates anti-affinity rule 0 (2 > 1)");
}

// A violation first introduced in batch 1 is rejected with the exact
// message a full audit after every batch produced.
TEST(MigrationScopingTest, ViolationIntroducedInLaterBatchIsRejected) {
  auto cluster = ClusterBuilder()
                     .AddService(2, {1.0})
                     .AddMachine({4.0})
                     .AddMachine({4.0})
                     .AddRule({0}, 1)
                     .Build();
  Placement from(*cluster);
  from.Add(0, 0, 1);
  from.Add(1, 0, 1);
  Placement to(*cluster);
  to.Add(1, 0, 2);
  MigrationPlan plan;
  plan.batches.push_back({{MigrationCommandType::kDelete, 0, 0}});
  plan.batches.push_back({{MigrationCommandType::kCreate, 0, 1}});
  const Status status = ValidateMigrationPlan(*cluster, from, to, plan);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(status.message(),
            "batch 1: create of service 0 on machine 1 infeasible");
}

// The validator as it ran before batch scoping: a full-cluster audit after
// every batch and an N x M final comparison. Kept here as the oracle.
Status ReferenceValidate(const Cluster& cluster, const Placement& original,
                         const Placement& target, const MigrationPlan& plan,
                         double min_alive_fraction) {
  Placement current = original;
  size_t batch_index = 0;
  for (const std::vector<MigrationCommand>& batch : plan.batches) {
    for (const MigrationCommand& cmd : batch) {
      if (cmd.type == MigrationCommandType::kDelete) {
        RASA_RETURN_IF_ERROR(current.Remove(cmd.machine, cmd.service));
      } else {
        if (!current.CanPlace(cmd.machine, cmd.service)) {
          return FailedPreconditionError(StrFormat(
              "batch %zu: create of service %d on machine %d infeasible",
              batch_index, cmd.service, cmd.machine));
        }
        current.Add(cmd.machine, cmd.service);
      }
    }
    RASA_RETURN_IF_ERROR(current.CheckFeasible(/*check_sla=*/false));
    const bool last = batch_index + 1 == plan.batches.size();
    if (!last || plan.stranded_deletes == 0) {
      for (int s = 0; s < cluster.num_services(); ++s) {
        const int floor_alive =
            MinAliveFloor(cluster.service(s).demand, min_alive_fraction);
        if (current.TotalOf(s) < floor_alive) {
          return FailedPreconditionError(StrFormat(
              "batch %zu: service %d down to %d/%d alive", batch_index, s,
              current.TotalOf(s), cluster.service(s).demand));
        }
      }
    }
    ++batch_index;
  }
  for (int m = 0; m < cluster.num_machines(); ++m) {
    for (int s = 0; s < cluster.num_services(); ++s) {
      if (current.CountOn(m, s) != target.CountOn(m, s)) {
        return FailedPreconditionError(StrFormat(
            "final state mismatch at machine %d service %d: %d != %d", m, s,
            current.CountOn(m, s), target.CountOn(m, s)));
      }
    }
  }
  return Status::OK();
}

// Planned paths between generated placements, then the same paths with
// seeded corruptions (dropped, duplicated, retargeted and reordered
// commands): the batch-scoped validator returns exactly the reference's
// status, and the planner's totals equal the N x M surplus/deficit sums.
TEST(MigrationScopingTest, ValidatorMatchesFullAuditReference) {
  int rejected = 0;
  for (int seed = 0; seed < 4; ++seed) {
    ClusterSpec spec = M3Spec(16.0);
    spec.seed = 1300 + seed;
    StatusOr<ClusterSnapshot> snapshot = GenerateCluster(spec);
    ASSERT_TRUE(snapshot.ok());
    const Cluster& cluster = *snapshot->cluster;
    const Placement& from = snapshot->original_placement;
    Rng rng(seed + 40);
    StatusOr<Placement> to = FirstFitPlace(cluster, rng);
    ASSERT_TRUE(to.ok());
    StatusOr<MigrationPlan> plan = ComputeMigrationPath(cluster, from, *to);
    ASSERT_TRUE(plan.ok()) << plan.status();
    int surplus = 0;
    int deficit = 0;
    for (int m = 0; m < cluster.num_machines(); ++m) {
      for (int s = 0; s < cluster.num_services(); ++s) {
        surplus += std::max(0, from.CountOn(m, s) - to->CountOn(m, s));
        deficit += std::max(0, to->CountOn(m, s) - from.CountOn(m, s));
      }
    }
    EXPECT_EQ(plan->total_deletes, surplus);
    EXPECT_EQ(plan->total_creates, deficit);
    ASSERT_GE(plan->batches.size(), 3u);
    for (int trial = 0; trial < 40; ++trial) {
      MigrationPlan corrupt = *plan;
      const int edits = trial == 0 ? 0 : static_cast<int>(rng.NextInt(1, 3));
      for (int e = 0; e < edits; ++e) {
        auto& batch = corrupt.batches[rng.NextUint64(corrupt.batches.size())];
        if (batch.empty()) continue;
        const size_t i = rng.NextUint64(batch.size());
        switch (rng.NextInt(0, 3)) {
          case 0:
            batch.erase(batch.begin() + i);
            break;
          case 1:
            batch.push_back(batch[i]);
            break;
          case 2:
            batch[i].machine = static_cast<int>(
                rng.NextUint64(cluster.num_machines()));
            break;
          default:
            std::swap(corrupt.batches[0],
                      corrupt.batches[rng.NextUint64(corrupt.batches.size())]);
            break;
        }
      }
      const Status expected = ReferenceValidate(cluster, from, *to, corrupt,
                                                0.75);
      const Status actual = ValidateMigrationPlan(cluster, from, *to, corrupt);
      EXPECT_EQ(actual.code(), expected.code()) << seed << "/" << trial;
      EXPECT_EQ(actual.message(), expected.message()) << seed << "/" << trial;
      if (trial == 0) {
        EXPECT_TRUE(actual.ok()) << actual;
      }
      if (!expected.ok()) ++rejected;
    }
  }
  EXPECT_GT(rejected, 0);
}

}  // namespace
}  // namespace rasa
