#ifndef RASA_CORE_MIGRATION_H_
#define RASA_CORE_MIGRATION_H_

#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/placement.h"
#include "common/status.h"
#include "common/statusor.h"

namespace rasa {

enum class MigrationCommandType { kDelete, kCreate };

/// One command of a migration path, e.g. (delete, svc-3, m-12).
struct MigrationCommand {
  MigrationCommandType type;
  int service = 0;
  int machine = 0;
};

/// An executable migration path (§IV-E): an ordered list of command sets.
/// Commands inside one set run in parallel on different machines; set i
/// only starts after set i-1 completed.
struct MigrationPlan {
  std::vector<std::vector<MigrationCommand>> batches;
  int total_deletes = 0;
  int total_creates = 0;
  /// Containers the target placement drops entirely (target deploys fewer
  /// than the original); they are deleted in the final batch.
  int stranded_deletes = 0;

  std::string Summary() const;
};

struct MigrationOptions {
  /// SLA floor: every service keeps at least this fraction of its demand
  /// alive after every batch (the paper relaxes SLA to 75%).
  double min_alive_fraction = 0.75;
};

/// The SLA floor enforced between migration batches: the minimum number of
/// containers of a service with `demand` replicas that must stay alive
/// while migrating under `min_alive_fraction`.
///
/// The naive floor ceil(fraction * demand) forbids any migration for small
/// services — ceil(0.75 * d) == d for every d <= 4 — so the floor carries
/// an explicit guaranteed-progress carve-out: like a rolling update, at
/// least one container may always be offline (floor <= demand - 1; never
/// negative). Planner, validator, and executor all share this single
/// definition.
int MinAliveFloor(int demand, double min_alive_fraction);

/// Machines named by `batch`'s commands, ascending and without repeats: the
/// only placement rows applying the batch can change.
std::vector<int> TouchedMachines(const std::vector<MigrationCommand>& batch);

/// Computes a migration path from `original` to `target` with Algorithm 2:
/// per iteration, each machine deletes the to-be-migrated container whose
/// service has the lowest offline ratio (if SLA allows), then each machine
/// creates the fitting container whose service has the highest offline
/// ratio. Fails with kInternal if the reallocation deadlocks.
StatusOr<MigrationPlan> ComputeMigrationPath(
    const Cluster& cluster, const Placement& original, const Placement& target,
    const MigrationOptions& options = {});

/// Replays `plan` from `original`, verifying after every batch that
/// resources/anti-affinity/schedulability hold and that every service keeps
/// `min_alive_fraction` of its demand alive; verifies the final state
/// equals `target`. Used by tests and the CronJob executor. Batch 0 gets a
/// full-cluster audit; every later batch audits only its TouchedMachines,
/// which reports the same first violation because all other machines
/// passed before and their rows did not change.
Status ValidateMigrationPlan(const Cluster& cluster, const Placement& original,
                             const Placement& target,
                             const MigrationPlan& plan,
                             double min_alive_fraction = 0.75);

}  // namespace rasa

#endif  // RASA_CORE_MIGRATION_H_
