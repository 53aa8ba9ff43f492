#ifndef RASA_CORE_ALGORITHM_POOL_H_
#define RASA_CORE_ALGORITHM_POOL_H_

#include "cluster/cluster.h"
#include "cluster/placement.h"
#include "common/statusor.h"
#include "common/timer.h"
#include "core/cg.h"
#include "core/mip_algorithm.h"
#include "core/subproblem.h"

namespace rasa {

/// The scheduling algorithm pool (§IV-C): column generation and MIP.
enum class PoolAlgorithm { kCg = 0, kMip = 1 };

const char* PoolAlgorithmToString(PoolAlgorithm algorithm);

/// Outcome of one rung of the degradation ladder for a subproblem.
enum class AttemptOutcome {
  kNotRun,   // the ladder never reached this rung
  kOk,       // solver returned a solution
  kFailed,   // solver ran and failed (OOT / infeasible model / error)
  kExpired,  // global budget was gone before the attempt
  kPruned,   // skipped by the circuit breaker
};

const char* AttemptOutcomeToString(AttemptOutcome outcome);

/// One solver attempt as recorded by the flight recorder: which algorithm
/// ran on which rung, how it ended, and its full introspection
/// (observation-only; nothing here ever feeds back into the solve).
struct SolveAttempt {
  PoolAlgorithm algorithm = PoolAlgorithm::kCg;
  AttemptOutcome outcome = AttemptOutcome::kNotRun;
  double seconds = 0.0;
  /// At most one of the two is populated, matching `algorithm`, and only
  /// when the solver actually ran.
  bool has_cg = false;
  CgStats cg;
  bool has_mip = false;
  SubproblemMipStats mip;
};

/// Runs one pool algorithm on a subproblem. `base` holds the trivial
/// residents (defines residual capacities); `original` is the pre-RASA
/// placement (CG seeds patterns from it). Neither is modified. `attempt`,
/// when non-null, receives the attempt's algorithm, outcome (kOk or
/// kFailed), time and solver introspection.
/// `mip_incumbent`, when non-null, offers an extra feasible placement (the
/// incremental path's prior incumbent) as the MIP warm start — see
/// MipAlgorithmOptions::incumbent_hint; the CG branch ignores it (CG warm
/// starts from `original`).
StatusOr<SubproblemSolution> RunPoolAlgorithm(
    PoolAlgorithm algorithm, const Cluster& cluster,
    const Subproblem& subproblem, const Placement& base,
    const Placement& original, const Deadline& deadline, uint64_t seed = 29,
    SolveAttempt* attempt = nullptr,
    const Placement* mip_incumbent = nullptr);

}  // namespace rasa

#endif  // RASA_CORE_ALGORITHM_POOL_H_
