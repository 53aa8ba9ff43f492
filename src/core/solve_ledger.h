#ifndef RASA_CORE_SOLVE_LEDGER_H_
#define RASA_CORE_SOLVE_LEDGER_H_

#include <mutex>
#include <vector>

#include "core/algorithm_pool.h"
#include "core/selector.h"

namespace rasa {

/// Outcome of one rung of the degradation ladder for a subproblem.
enum class AttemptOutcome {
  kNotRun,   // the ladder never reached this rung
  kOk,       // solver returned a solution
  kFailed,   // solver ran and failed (OOT / infeasible model / error)
  kExpired,  // global budget was gone before the attempt
  kPruned,   // skipped by an open circuit breaker
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

/// Flight-recorder entry for one per-subproblem solve: everything needed to
/// reconstruct why the ladder ended where it did and what quality bound the
/// solvers proved. Assembled by the merge phase in canonical solve order,
/// so the sequence is bit-identical at every thread count.
struct LedgerRecord {
  int subproblem = 0;  // global subproblem index
  int position = 0;    // canonical solve position (0 = highest affinity)
  int num_services = 0;
  int num_machines = 0;
  double internal_affinity = 0.0;

  /// Why the primary algorithm was chosen.
  SelectorPolicy selector_policy = SelectorPolicy::kHeuristic;
  PoolAlgorithm selected = PoolAlgorithm::kCg;

  /// Ladder rungs in order, as the canonical replay decided them (a rung
  /// the replayed breaker skipped records kPruned even if a worker ran it
  /// speculatively, so the sequence is scheduling-independent). The rare
  /// merge-phase secondary re-solve (advisory breaker diverged from the
  /// replayed one) lands in `secondary` like any other secondary attempt.
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
  double seconds = 0.0;         // wall-clock of the speculative solve

  /// What the winning rung realized inside the subproblem.
  double realized_affinity = 0.0;
  int unplaced_containers = 0;

  /// This subproblem's term in the cluster optimality-gap certificate:
  /// min(internal_affinity, proven solver bound) — see explain.h for when
  /// tightening below internal_affinity is sound.
  double certificate_bound = 0.0;
  bool bound_tightened = false;
};

/// Process-wide, thread-safe flight recorder for per-subproblem solves.
/// Appending is cheap (one mutex, records are moved in); readers snapshot.
/// Strictly observation-only: with the ledger disabled the optimizer's
/// placements and reports are bit-identical (enforced by
/// explain_determinism_test).
///
/// A fixed-capacity ring: it keeps the newest kCapacity records (about 15
/// cycles of a Table II M1 control loop), so a long-running loop holds
/// bounded memory. Every run's own records also travel in
/// RasaResult::report.records, and the `ledger.records` counter counts
/// every append, including overwritten ones.
class SolveLedger {
 public:
  static constexpr size_t kCapacity = 256;

  static SolveLedger& Default();

  void Append(LedgerRecord record);
  void AppendAll(const std::vector<LedgerRecord>& records);

  /// Snapshot of the retained records, oldest first (copy; safe to hold).
  std::vector<LedgerRecord> Records() const;
  /// Retained records: min(appends since Reset, kCapacity).
  size_t size() const;
  void Reset();

 private:
  void AppendLocked(LedgerRecord record);

  mutable std::mutex mu_;
  std::vector<LedgerRecord> records_;
  // Once records_ is full: the slot holding the oldest record, which the
  // next append overwrites.
  size_t oldest_ = 0;
};

/// Global enable switch (default on). Disabling stops the optimizer from
/// appending to SolveLedger::Default(); RasaResult::report is populated
/// either way — it is part of the result, not the recorder.
void SetSolveLedgerEnabled(bool enabled);
bool SolveLedgerEnabled();

}  // namespace rasa

#endif  // RASA_CORE_SOLVE_LEDGER_H_
