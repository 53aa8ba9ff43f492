#ifndef RASA_CORE_SOLVE_LEDGER_H_
#define RASA_CORE_SOLVE_LEDGER_H_

#include "core/algorithm_pool.h"
#include "core/selector.h"

namespace rasa {

/// Flight-recorder entry for one per-subproblem solve: everything needed to
/// reconstruct why the ladder ended where it did and what quality bound the
/// solvers proved. Folded into the result in canonical solve order, so the
/// sequence is bit-identical at every thread count.
struct LedgerRecord {
  int subproblem = 0;  // global subproblem index
  int position = 0;    // canonical solve position (0 = highest affinity)
  int num_services = 0;
  int num_machines = 0;
  double internal_affinity = 0.0;

  /// Why the primary algorithm was chosen.
  SelectorPolicy selector_policy = SelectorPolicy::kHeuristic;
  PoolAlgorithm selected = PoolAlgorithm::kCg;

  /// Ladder rungs in order, as the subproblem's worker ran them. The
  /// circuit breaker is decided before the fan-out, so a kPruned rung is a
  /// function of the canonical order and the labels, never of scheduling.
  SolveAttempt primary;
  SolveAttempt secondary;

  /// Final rung the subproblem landed on: 0 = primary, 1 = secondary,
  /// 2 = greedy fallback.
  int ladder_rung = 0;
  bool used_secondary = false;
  bool fell_to_greedy = false;
  /// Incremental path only: no solver ran this run — the previous cycle's
  /// solution was re-applied verbatim (ladder fields echo that solve; both
  /// attempts read kNotRun).
  bool reused = false;

  double budget_seconds = 0.0;  // primary's reserved budget share
  double seconds = 0.0;         // wall-clock of the whole ladder

  /// What the winning rung realized inside the subproblem.
  double realized_affinity = 0.0;
  int unplaced_containers = 0;

  /// This subproblem's term in the cluster optimality-gap certificate:
  /// min(internal_affinity, proven solver bound) — see explain.h for when
  /// tightening below internal_affinity is sound.
  double certificate_bound = 0.0;
  bool bound_tightened = false;
};

}  // namespace rasa

#endif  // RASA_CORE_SOLVE_LEDGER_H_
