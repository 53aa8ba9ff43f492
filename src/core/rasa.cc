#include "core/rasa.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/greedy.h"
#include "core/local_search.h"
#include "core/mip_algorithm.h"
#include "core/objective.h"

namespace rasa {
namespace {

// Adds `count` containers of `service` to `machine` when they fit together,
// else as many as fit one at a time; returns how many landed.
int PlaceUpTo(Placement& placement, int machine, int service, int count) {
  if (placement.CanPlace(machine, service, count)) {
    placement.Add(machine, service, count);
    return count;
  }
  int fit = 0;
  while (fit < count && placement.CanPlace(machine, service)) {
    placement.Add(machine, service);
    ++fit;
  }
  return fit;
}

// Salt mixed into each subproblem's RNG stream id: every stream depends
// only on (options.seed, subproblem id), never on scheduling order, so a
// parallel run draws exactly the seeds a sequential run draws.
constexpr uint64_t kStreamSalt = 0x9e3779b97f4a7c15ULL;

// Thread-safe affinity-weighted split of the remaining global budget (the
// deadline ledger). Every reservation reads the *shared* global deadline —
// never a per-thread elapsed clock — so concurrent workers can neither hand
// out negative shares nor double-spend the budget.
class DeadlineLedger {
 public:
  DeadlineLedger(const Deadline& global, double total_affinity, int count)
      : global_(global),
        remaining_affinity_(total_affinity),
        remaining_count_(count) {}

  // Reserves the calling subproblem's share of whatever global budget is
  // left: affinity-weighted, floored so zero-affinity subproblems get a
  // sliver, and capped so one solve cannot starve the queue behind it.
  Deadline Reserve(double affinity, double* budget_seconds) {
    std::lock_guard<std::mutex> lock(mu_);
    const double remaining_time = std::max(0.0, global_.RemainingSeconds());
    const int left = std::max(1, remaining_count_);
    const double share = remaining_affinity_ > 1e-12
                             ? affinity / remaining_affinity_
                             : 1.0 / left;
    const double reserve = 0.02 * static_cast<double>(left - 1);
    const double budget = std::max(
        0.02, std::min(remaining_time - reserve, remaining_time * share));
    remaining_affinity_ = std::max(0.0, remaining_affinity_ - affinity);
    --remaining_count_;
    *budget_seconds = budget;
    return std::isfinite(budget) ? global_.ClampedToSeconds(budget) : global_;
  }

 private:
  std::mutex mu_;
  const Deadline global_;
  double remaining_affinity_;
  int remaining_count_;
};

// The circuit breaker opens once this many MIP-selected subproblems, in
// canonical order, have a model over MIP's row cap.
constexpr int kCircuitBreakerFailures = 3;

// A worker's whole ladder for one subproblem, folded into the result in
// canonical order: the ledger record with its ladder fields filled, and the
// winning rung's solution (none when the ladder fell through to the greedy).
struct SolveRecord {
  LedgerRecord ledger;
  std::optional<SubproblemSolution> solution;
};

// Applies each assignment to `working` as far as it still fits and returns
// what landed.
std::vector<SubproblemSolution::Assignment> ApplyAssignments(
    Placement& working,
    const std::vector<SubproblemSolution::Assignment>& assignments) {
  std::vector<SubproblemSolution::Assignment> applied;
  for (const SubproblemSolution::Assignment& a : assignments) {
    const int fit = PlaceUpTo(working, a.machine, a.service, a.count);
    if (fit > 0) applied.push_back({a.service, a.machine, fit});
  }
  return applied;
}

// Gained affinity of `assignments` over the subproblem's internal edges.
double RealizedAffinity(
    const Cluster& cluster, const Subproblem& sp,
    const std::vector<SubproblemSolution::Assignment>& assignments) {
  std::vector<int> local_service(cluster.num_services(), -1);
  for (size_t i = 0; i < sp.services.size(); ++i) {
    local_service[sp.services[i]] = static_cast<int>(i);
  }
  std::vector<int> local_machine(cluster.num_machines(), -1);
  for (size_t j = 0; j < sp.machines.size(); ++j) {
    local_machine[sp.machines[j]] = static_cast<int>(j);
  }
  std::vector<std::vector<int>> counts(
      sp.services.size(), std::vector<int>(sp.machines.size(), 0));
  for (const SubproblemSolution::Assignment& a : assignments) {
    counts[local_service[a.service]][local_machine[a.machine]] += a.count;
  }
  return SubproblemGainedAffinity(cluster, sp, counts);
}

// One subproblem's certificate term: min(internal, proven solver bound),
// tightened below the trivial bound only when the winning attempt proved a
// bound AND the merge placed every container inside the subproblem's own
// machines (`merge_unplaced == 0`) — otherwise the fallback may localize
// internal edges on machines the solver never modeled (see explain.h).
CertificateTerm MakeCertificateTerm(int subproblem_idx,
                                    double internal_affinity, double realized,
                                    int merge_unplaced,
                                    const SolveAttempt* winner) {
  CertificateTerm term;
  term.subproblem = subproblem_idx;
  term.internal_affinity = internal_affinity;
  term.realized = realized;
  term.bound = internal_affinity;
  if (winner == nullptr || merge_unplaced != 0) return term;
  double candidate = internal_affinity;
  if (winner->has_mip && winner->mip.solved && winner->mip.bound_proven) {
    // A proven B&B dual bound; max with the realized value is a no-op for
    // a correct solver but keeps the term sound defensively.
    candidate = std::max(winner->mip.best_bound, realized);
    term.source = "mip";
  } else if (winner->has_cg && winner->cg.has_lp_bound) {
    // The restricted master LP bounds any integral selection of generated
    // patterns, but greedy completion may round above it — the realized
    // value caps it back to soundness.
    candidate = std::max(winner->cg.lp_objective, realized);
    term.source = "cg-lp";
  } else {
    return term;
  }
  if (candidate < internal_affinity) {
    term.bound = candidate;
    term.tightened = true;
  }
  return term;
}

// A reused subproblem's term from its cached bound, kept only while that
// bound is still sound for this snapshot: the original tightening held,
// every cached container fits again, no machine regained capacity since the
// solve, and the weight ratio inflates away any tolerated edge growth (see
// DESIGN.md "Incremental re-optimization").
CertificateTerm ReusedCertificateTerm(int subproblem_idx,
                                      double internal_affinity,
                                      double realized, int merge_unplaced,
                                      const SubproblemCache& cache,
                                      bool residual_increased,
                                      double weight_ratio) {
  CertificateTerm term;
  term.subproblem = subproblem_idx;
  term.internal_affinity = internal_affinity;
  term.realized = realized;
  term.bound = internal_affinity;
  if (cache.tightened && merge_unplaced == 0 && !residual_increased) {
    const double candidate = std::max(weight_ratio * cache.bound, realized);
    if (candidate < internal_affinity) {
      term.bound = candidate;
      term.tightened = true;
      term.source = cache.bound_source;
    }
  }
  return term;
}

}  // namespace

StatusOr<RasaResult> RasaOptimizer::Optimize(const Cluster& cluster,
                                             const Placement& current,
                                             const OptimizeContext& ctx) const {
  if (ctx.incremental == nullptr) {
    return OptimizeWithPlan(cluster, current, ctx.pool, nullptr, nullptr);
  }
  ThreadPool* pool = ctx.pool;
  IncrementalState* state = ctx.incremental;
  Stopwatch diff_timer;
  SnapshotDelta delta = DiffSnapshot(cluster, current, *state, options_.delta);

  // Capture into a scratch state and swap on success, so `state` (which the
  // plan below aliases as its cache) is never mutated mid-run and stays
  // untouched on error.
  IncrementalState fresh;
  if (delta.full_resolve) {
    StatusOr<RasaResult> result =
        OptimizeWithPlan(cluster, current, pool, nullptr, &fresh);
    if (result.ok()) {
      result->incremental_reason = delta.reason;
      result->dirty_subproblems = static_cast<int>(result->subproblems.size());
      *state = std::move(fresh);
    }
    return result;
  }

  const int n = static_cast<int>(state->subproblems.size());
  DeltaPlan plan;
  plan.cache = state;
  plan.reuse.assign(n, 0);
  for (int i = 0; i < n; ++i) plan.reuse[i] = delta.dirty[i] ? 0 : 1;
  plan.residual_increased = std::move(delta.residual_increased);
  plan.weight_ratio = std::move(delta.weight_ratio);

  // Rebuild the PartitionResult the cached cycle produced, re-priced under
  // this snapshot's weights (DiffSnapshot already rebuilt the edges).
  PartitionResult& partition = plan.partition;
  partition.subproblems = std::move(delta.rebuilt);
  std::vector<char> crucial(cluster.num_services(), 0);
  int num_crucial = 0;
  double crucial_internal = 0.0;
  for (const Subproblem& sp : partition.subproblems) {
    crucial_internal += sp.internal_affinity;
    for (int s : sp.services) {
      crucial[s] = 1;
      ++num_crucial;
    }
  }
  for (int s = 0; s < cluster.num_services(); ++s) {
    if (!crucial[s]) partition.trivial_services.push_back(s);
  }
  partition.base_placement = Placement(cluster);
  for (int m = 0; m < cluster.num_machines(); ++m) {
    for (const auto& [s, count] : current.ServicesOn(m)) {
      if (!crucial[s]) partition.base_placement.Add(m, s, count);
    }
  }
  PartitionStats& stats = partition.stats;
  stats.num_services = cluster.num_services();
  stats.num_crucial_services = num_crucial;
  stats.num_trivial_services = cluster.num_services() - num_crucial;
  stats.num_subproblems = n;
  stats.master_ratio = state->master_ratio;
  stats.master_affinity = state->master_affinity;
  const double total_weight = cluster.affinity().TotalWeight();
  stats.crucial_internal_affinity =
      total_weight > 0.0 ? crucial_internal / total_weight : 0.0;

  // Prior incumbent: base + cached assignments, CanPlace-guarded. Warm-start
  // source for CG pattern seeding and the MIP initial solution on the dirty
  // re-solves.
  Placement hint = partition.base_placement;
  for (const SubproblemCache& cache : state->subproblems) {
    for (const SubproblemSolution::Assignment& a : cache.assignments) {
      PlaceUpTo(hint, a.machine, a.service, a.count);
    }
  }
  plan.hint = &hint;
  stats.elapsed_seconds = diff_timer.ElapsedSeconds();

  StatusOr<RasaResult> result =
      OptimizeWithPlan(cluster, current, pool, &plan, &fresh);
  if (result.ok()) *state = std::move(fresh);
  return result;
}

StatusOr<RasaResult> RasaOptimizer::OptimizeWithPlan(
    const Cluster& cluster, const Placement& current, ThreadPool* pool,
    const DeltaPlan* plan, IncrementalState* out_state) const {
  Stopwatch timer;
  const Deadline deadline = Deadline::AfterSeconds(options_.timeout_seconds);
  TraceSpan optimize_span("optimize");

  RasaResult result;
  result.original_gained_affinity = GainedAffinity(cluster, current);

  // Phase 1: service partitioning + machine assignment — or, on the
  // incremental path, the previous cycle's partitioning rebuilt by the
  // caller (re-priced under this snapshot's weights).
  PartitionResult repartition;
  if (plan == nullptr) {
    TraceSpan span("partition");
    repartition = PartitionServices(cluster, current, options_.partitioning);
  }
  const PartitionResult& partition =
      plan == nullptr ? repartition : plan->partition;
  result.partition_stats = partition.stats;
  const int num_subproblems = static_cast<int>(partition.subproblems.size());

  // Canonical solve order: highest internal affinity first so the deadline
  // starves only the tail, with an explicit index tie-break so the order —
  // and therefore the fold below — is unambiguous.
  std::vector<int> order(num_subproblems);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const double aa = partition.subproblems[a].internal_affinity;
    const double ab = partition.subproblems[b].internal_affinity;
    return aa != ab ? aa > ab : a < b;
  });

  // Budget and ledger count only the subproblems that actually solve this
  // run: reused ones consume no share of the deadline.
  double total_affinity = 0.0;
  int active_subproblems = 0;
  for (int i = 0; i < num_subproblems; ++i) {
    if (plan != nullptr && plan->reuse[i]) continue;
    total_affinity += partition.subproblems[i].internal_affinity;
    ++active_subproblems;
  }
  if (plan != nullptr) {
    result.incremental = true;
    result.dirty_subproblems = active_subproblems;
    result.reused_subproblems = num_subproblems - active_subproblems;
  }

  // Worker pool resolution: an external pool wins; otherwise spin one up
  // when the options ask for more than one thread.
  const int requested = options_.num_threads == 0
                            ? ThreadPool::DefaultNumThreads()
                            : std::max(1, options_.num_threads);
  std::unique_ptr<ThreadPool> owned_pool;
  if (pool == nullptr && requested > 1) {
    owned_pool = std::make_unique<ThreadPool>(requested);
    pool = owned_pool.get();
  }
  result.num_threads_used = pool != nullptr ? pool->num_threads() : 1;

  // Phase 2a: batch algorithm selection (parallel GCN inference; pure, so
  // scheduling cannot change the labels). On the incremental path only the
  // dirty subproblems run inference; clean ones keep the label they were
  // solved with (echoed into their reused ledger records).
  const std::vector<PoolAlgorithm> selected = [&] {
    TraceSpan span("select");
    if (plan == nullptr) {
      return selector_.SelectBatch(cluster, partition.subproblems, pool);
    }
    std::vector<PoolAlgorithm> labels(num_subproblems, PoolAlgorithm::kCg);
    std::vector<Subproblem> dirty;
    std::vector<int> dirty_idx;
    for (int i = 0; i < num_subproblems; ++i) {
      if (plan->reuse[i]) {
        labels[i] =
            static_cast<PoolAlgorithm>(plan->cache->subproblems[i].algorithm);
      } else {
        dirty.push_back(partition.subproblems[i]);
        dirty_idx.push_back(i);
      }
    }
    const std::vector<PoolAlgorithm> dirty_labels =
        selector_.SelectBatch(cluster, dirty, pool);
    for (size_t j = 0; j < dirty_idx.size(); ++j) {
      labels[dirty_idx[j]] = dirty_labels[j];
    }
    return labels;
  }();

  // Warm-start source handed to the solvers as the "original" placement:
  // the prior incumbent on the incremental path (CG seeds its patterns from
  // it, MIP takes it as the initial feasible solution), the live placement
  // otherwise.
  const Placement& warm_source = plan != nullptr ? *plan->hint : current;
  const Placement* mip_hint = plan != nullptr ? plan->hint : nullptr;

  // Circuit breaker, decided before the fan-out from the canonical order
  // and the labels alone: once kCircuitBreakerFailures MIP-selected
  // subproblems have a model over the row cap, every later MIP rung is
  // skipped (DESIGN.md "Degradation ladder").
  int breaker_position = num_subproblems;
  for (int position = 0, misses = 0; position < num_subproblems; ++position) {
    const int idx = order[position];
    if ((plan != nullptr && plan->reuse[idx]) ||
        selected[idx] != PoolAlgorithm::kMip) {
      continue;
    }
    if (!MipModelFits(cluster, partition.subproblems[idx]) &&
        ++misses == kCircuitBreakerFailures) {
      breaker_position = position + 1;
      break;
    }
  }

  // Phase 2b: per-subproblem solves fanned out across the pool. Each worker
  // runs its subproblem's whole ladder and writes only its own record; the
  // deadline ledger is the one shared state.
  DeadlineLedger ledger(deadline, total_affinity, active_subproblems);
  std::vector<SolveRecord> records(num_subproblems);

  // The solve phase is opened/closed by hand (no scope to hang the RAII
  // span on); its id is the explicit parent of every per-subproblem span,
  // because workers run on pool threads whose thread-local span stacks are
  // empty.
  const int64_t solve_parent = Tracer::Default().Begin("solve");

  // One ladder rung into `attempt`: kExpired when the global budget is
  // gone, else kPruned when the breaker skips it, else the solver's
  // outcome. Returns the solution iff the rung succeeded.
  auto run_rung = [&](const Subproblem& sp, int position,
                      PoolAlgorithm algorithm, const Deadline& rung_deadline,
                      uint64_t seed, SolveAttempt& attempt) {
    std::optional<SubproblemSolution> solution;
    attempt.algorithm = algorithm;
    if (deadline.Expired()) {
      attempt.outcome = AttemptOutcome::kExpired;
      return solution;
    }
    if (algorithm == PoolAlgorithm::kMip && position >= breaker_position) {
      attempt.outcome = AttemptOutcome::kPruned;
      return solution;
    }
    StatusOr<SubproblemSolution> result =
        RunPoolAlgorithm(algorithm, cluster, sp, partition.base_placement,
                         warm_source, rung_deadline, seed, &attempt, mip_hint);
    if (result.ok()) solution = std::move(result).value();
    return solution;
  };

  auto solve_one = [&](int position) {
    const int idx = order[position];
    // Reused subproblems skip the solvers entirely — no RNG draws, no
    // budget reservation (per-subproblem streams are independent, so the
    // dirty solves still draw exactly the seeds a full run would).
    if (plan != nullptr && plan->reuse[idx]) return;
    const Subproblem& sp = partition.subproblems[idx];
    SolveRecord& rec = records[position];
    LedgerRecord& lrec = rec.ledger;
    TraceSpan sp_span(StrFormat("subproblem_%d", idx), solve_parent);
    Stopwatch sp_timer;

    // Per-subproblem RNG stream; both attempt seeds are drawn up front so
    // they do not depend on which rungs actually run.
    Rng sp_rng(options_.seed ^
               (kStreamSalt * (static_cast<uint64_t>(idx) + 1)));
    const uint64_t primary_seed = sp_rng.Next();
    const uint64_t secondary_seed = sp_rng.Next();

    lrec.selected = selected[idx];
    const PoolAlgorithm secondary = lrec.selected == PoolAlgorithm::kCg
                                        ? PoolAlgorithm::kMip
                                        : PoolAlgorithm::kCg;
    const Deadline sp_deadline =
        ledger.Reserve(sp.internal_affinity, &lrec.budget_seconds);
    rec.solution = run_rung(sp, position, lrec.selected, sp_deadline,
                            primary_seed, lrec.primary);
    if (!rec.solution) {
      // Rung 2: the other pool algorithm on half the primary's share.
      rec.solution = run_rung(
          sp, position, secondary,
          deadline.ClampedToSeconds(std::max(0.02, 0.5 * lrec.budget_seconds)),
          secondary_seed, lrec.secondary);
      lrec.used_secondary = rec.solution.has_value();
    }
    lrec.seconds = sp_timer.ElapsedSeconds();
  };

  if (pool != nullptr) {
    pool->ParallelFor(num_subproblems, solve_one);
  } else {
    for (int position = 0; position < num_subproblems; ++position) {
      solve_one(position);
    }
  }
  Tracer::Default().End(solve_parent);
  const int64_t merge_id = Tracer::Default().Begin("merge");

  // Phase 2c: fold the records in canonical order — apply each solution
  // (or the greedy), sum the ladder counters, build the certificate term —
  // so the placement and every counter are independent of scheduling.
  Placement working = partition.base_placement;
  // Waterfall snapshot A1: affinity already delivered by the trivial
  // residents the partition kept in place.
  const double base_affinity = GainedAffinity(cluster, working);
  std::vector<int> unplaced(cluster.num_services(), 0);

  if (out_state != nullptr) {
    out_state->subproblems.assign(static_cast<size_t>(num_subproblems),
                                  SubproblemCache{});
  }

  for (int position = 0; position < num_subproblems; ++position) {
    const int idx = order[position];
    const Subproblem& sp = partition.subproblems[idx];
    SolveRecord& rec = records[position];
    LedgerRecord& lrec = rec.ledger;
    lrec.subproblem = idx;
    lrec.position = position;
    lrec.num_services = static_cast<int>(sp.services.size());
    lrec.num_machines = static_cast<int>(sp.machines.size());
    lrec.internal_affinity = sp.internal_affinity;
    lrec.selector_policy = selector_.policy();

    SubproblemReport report;
    report.num_services = lrec.num_services;
    report.num_machines = lrec.num_machines;
    report.internal_affinity = sp.internal_affinity;
    report.seconds = lrec.seconds;

    // What actually landed, captured for the next cycle's delta cache.
    std::vector<SubproblemSolution::Assignment> applied;
    const SubproblemCache* cache = nullptr;
    if (plan != nullptr && plan->reuse[idx]) {
      // Re-apply the cached assignments; the CanPlace guard absorbs any
      // residual shrinkage the differ tolerated, handing whatever no longer
      // fits to the global fallback. Ladder fields echo the cached solve.
      cache = &plan->cache->subproblems[idx];
      lrec.selected = static_cast<PoolAlgorithm>(cache->algorithm);
      lrec.reused = true;
      lrec.used_secondary = cache->used_secondary;
      lrec.fell_to_greedy = cache->fell_to_greedy;
      lrec.ladder_rung = cache->ladder_rung;
      applied = ApplyAssignments(working, cache->assignments);
      // Realized value re-priced under this snapshot's weights.
      report.gained_affinity = RealizedAffinity(cluster, sp, applied);
      report.unplaced_containers = cache->unplaced;
    } else {
      for (const SolveAttempt* attempt : {&lrec.primary, &lrec.secondary}) {
        if (attempt->outcome == AttemptOutcome::kFailed) {
          ++result.solver_failures;
        }
      }
      if (lrec.primary.outcome == AttemptOutcome::kPruned) {
        ++result.breaker_skips;
      }
      if (lrec.used_secondary) {
        RASA_LOG(Info) << "subproblem " << idx << ": "
                       << PoolAlgorithmToString(lrec.primary.algorithm)
                       << " failed, "
                       << PoolAlgorithmToString(lrec.secondary.algorithm)
                       << " rescued it";
        ++result.secondary_successes;
      }
      lrec.fell_to_greedy = !rec.solution.has_value();
      lrec.ladder_rung =
          lrec.fell_to_greedy ? 2 : (lrec.used_secondary ? 1 : 0);
      if (rec.solution) {
        applied = ApplyAssignments(working, rec.solution->assignments);
        report.gained_affinity = rec.solution->gained_affinity;
        report.unplaced_containers = rec.solution->unplaced_containers;
      } else {
        ++result.greedy_fallbacks;
        RASA_LOG(Info) << "subproblem " << idx << " ("
                       << PoolAlgorithmToString(lrec.selected)
                       << ") fell through the ladder; using affinity greedy";
        // Affinity-aware greedy fallback: far better than scattering the
        // containers through the default scheduler. It places straight
        // into `working`.
        SubproblemSolution greedy = GreedyAffinityPlace(cluster, sp, working);
        report.gained_affinity = greedy.gained_affinity;
        report.unplaced_containers = greedy.unplaced_containers;
        applied = std::move(greedy.assignments);
      }
    }
    report.algorithm = lrec.selected;
    report.used_secondary = lrec.used_secondary;
    report.failed = lrec.fell_to_greedy;

    // Containers of this subproblem's services the fold could NOT keep on
    // the subproblem's own machines (they go to the global fallback).
    std::vector<int> placed(cluster.num_services(), 0);
    for (const SubproblemSolution::Assignment& a : applied) {
      placed[a.service] += a.count;
    }
    int sp_unplaced = 0;
    for (int s : sp.services) {
      unplaced[s] += cluster.service(s).demand - placed[s];
      sp_unplaced += cluster.service(s).demand - placed[s];
    }
    lrec.realized_affinity = report.gained_affinity;
    lrec.unplaced_containers = sp_unplaced;

    const SolveAttempt* winner =
        lrec.fell_to_greedy
            ? nullptr
            : (lrec.used_secondary ? &lrec.secondary : &lrec.primary);
    const CertificateTerm term =
        cache != nullptr
            ? ReusedCertificateTerm(idx, sp.internal_affinity,
                                    report.gained_affinity, sp_unplaced,
                                    *cache, plan->residual_increased[idx],
                                    plan->weight_ratio[idx])
            : MakeCertificateTerm(idx, sp.internal_affinity,
                                  report.gained_affinity, sp_unplaced, winner);
    lrec.certificate_bound = term.bound;
    lrec.bound_tightened = term.tightened;

    if (out_state != nullptr) {
      SubproblemCache& cap = out_state->subproblems[idx];
      cap.subproblem = sp;
      cap.assignments = std::move(applied);
      cap.unplaced = sp_unplaced;
      cap.realized = report.gained_affinity;
      cap.bound = term.bound;
      cap.tightened = term.tightened;
      cap.bound_source = term.source;
      cap.algorithm = static_cast<int>(lrec.selected);
      cap.used_secondary = lrec.used_secondary;
      cap.fell_to_greedy = lrec.fell_to_greedy;
      cap.ladder_rung = lrec.ladder_rung;
    }

    result.subproblems.push_back(report);
    result.report.certificate.terms.push_back(term);
    result.report.records.push_back(std::move(lrec));
  }
  Tracer::Default().End(merge_id);

  if (out_state != nullptr) {
    // Residuals the solvers observed (base = trivial residents only),
    // diffed by the next cycle's DiffSnapshot against its fresh snapshot.
    const int num_resources = cluster.num_resources();
    for (int i = 0; i < num_subproblems; ++i) {
      const Subproblem& sp = partition.subproblems[i];
      std::vector<double>& res = out_state->subproblems[i].residuals;
      res.assign(sp.machines.size() * static_cast<size_t>(num_resources),
                 0.0);
      for (size_t j = 0; j < sp.machines.size(); ++j) {
        for (int r = 0; r < num_resources; ++r) {
          res[j * num_resources + r] =
              partition.base_placement.FreeResource(sp.machines[j], r);
        }
      }
    }
    out_state->valid = true;
    out_state->structure_signature = ClusterStructureSignature(cluster);
    out_state->num_services = cluster.num_services();
    out_state->num_machines = cluster.num_machines();
    out_state->num_resources = num_resources;
    out_state->master_ratio = partition.stats.master_ratio;
    out_state->master_affinity = partition.stats.master_affinity;
  }

  // Waterfall snapshot A2: what the subproblem solvers delivered at merge.
  const double merged_affinity = GainedAffinity(cluster, working);

  // Combine: default-scheduler fallback for unplaced crucial containers.
  {
    const TraceSpan fallback_span("fallback");
    for (int s = 0; s < cluster.num_services(); ++s) {
      for (int c = 0; c < unplaced[s]; ++c) {
        const int m = LeastAllocatedMachine(working, s);
        if (m < 0) {
          ++result.lost_containers;
        } else {
          working.Add(m, s);
        }
      }
    }
  }

  // Waterfall snapshot A3: after the default-scheduler fallback — the
  // solver-phase value the quality certificate is anchored to.
  const double fallback_affinity = GainedAffinity(cluster, working);

  // Optional extension: local-search refinement with the leftover budget.
  LocalSearchStats ls_stats;
  bool ls_ran = false;
  if (options_.refine_with_local_search && !deadline.Expired()) {
    const TraceSpan ls_span("local_search");
    LocalSearchOptions ls;
    ls.deadline = deadline;
    // Own stream, independent of how many solver seeds were drawn.
    ls.seed = Rng(options_.seed ^ kStreamSalt).Next();
    ls_stats = RefinePlacement(cluster, working, ls);
    ls_ran = true;
  }

  result.new_gained_affinity = GainedAffinity(cluster, working);
  result.moved_containers = working.DiffCount(current);

  // Explain report: attribution waterfall, optimality-gap certificate, and
  // placement diff (records and certificate terms were assembled by the
  // merge). Observation-only — nothing below touches the placement.
  {
    ExplainReport& explain = result.report;
    explain.populated = true;

    double sum_internal = 0.0;
    for (const Subproblem& sp : partition.subproblems) {
      sum_internal += sp.internal_affinity;
    }
    const double total_weight = cluster.affinity().TotalWeight();
    const double external = std::max(0.0, total_weight - sum_internal);

    AttributionWaterfall& wf = explain.waterfall;
    wf.base_retained = base_affinity;
    wf.solver_gain = merged_affinity - base_affinity;
    wf.fallback_delta = fallback_affinity - merged_affinity;
    wf.local_search_delta = result.new_gained_affinity - fallback_affinity;
    wf.total = result.new_gained_affinity;
    wf.partition_cut_affinity = external;
    wf.original_gained_affinity = result.original_gained_affinity;

    QualityCertificate& cert = explain.certificate;
    cert.achieved_solver_phase = fallback_affinity;
    cert.achieved_final = result.new_gained_affinity;
    cert.sum_internal_affinity = sum_internal;
    cert.external_affinity = external;
    double bound = external;
    for (const CertificateTerm& term : cert.terms) {
      bound += term.bound;
      if (term.tightened) ++cert.tightened_terms;
    }
    cert.bound_solver_phase = bound;
    cert.local_search_credit = std::max(0.0, wf.local_search_delta);
    cert.bound_final = cert.bound_solver_phase + cert.local_search_credit;

    explain.local_search_ran = ls_ran;
    explain.local_search = ls_stats;
    explain.diff = BuildPlacementDiff(cluster, current, working);
  }

  // Dry-run rule (§III-B): execute only on >= min_improvement relative gain.
  const double base = std::max(result.original_gained_affinity, 1e-9);
  const double improvement =
      (result.new_gained_affinity - result.original_gained_affinity) / base;
  result.should_execute = improvement >= options_.min_improvement;

  // Phase 3: migration path.
  if (options_.compute_migration && result.should_execute) {
    const TraceSpan migration_span("migration_path");
    StatusOr<MigrationPlan> plan =
        ComputeMigrationPath(cluster, current, working, options_.migration);
    if (plan.ok()) {
      result.migration = std::move(plan).value();
    } else {
      RASA_LOG(Warning) << "migration path failed: "
                        << plan.status().ToString()
                        << "; marking run as dry-run";
      result.should_execute = false;
    }
  }

  result.new_placement = std::move(working);
  result.elapsed_seconds = timer.ElapsedSeconds();

  // Observation-only run metrics mirroring the RasaResult ladder counters;
  // nothing below feeds back into the placement.
  {
    MetricRegistry& reg = MetricRegistry::Default();
    static Counter& runs = reg.GetCounter("rasa.runs");
    static Counter& dry_runs = reg.GetCounter("rasa.dry_runs");
    static Counter& solver_failures = reg.GetCounter("rasa.solver_failures");
    static Counter& secondary = reg.GetCounter("rasa.secondary_successes");
    static Counter& greedy = reg.GetCounter("rasa.greedy_fallbacks");
    static Counter& breaker = reg.GetCounter("rasa.breaker_skips");
    static Counter& lost = reg.GetCounter("rasa.lost_containers");
    static Counter& moved = reg.GetCounter("rasa.moved_containers");
    static Counter& reused_sps = reg.GetCounter("rasa.reused_subproblems");
    static Histogram& sp_seconds = reg.GetHistogram("rasa.subproblem_seconds");
    static Histogram& opt_seconds = reg.GetHistogram("rasa.optimize_seconds");
    static Gauge& improvement_gauge = reg.GetGauge("rasa.improvement");
    static Gauge& gained_gauge = reg.GetGauge("rasa.gained_affinity");
    static Gauge& gap_gauge = reg.GetGauge("rasa.certificate_gap");
    runs.Increment();
    if (!result.should_execute) dry_runs.Increment();
    solver_failures.Increment(static_cast<uint64_t>(result.solver_failures));
    secondary.Increment(static_cast<uint64_t>(result.secondary_successes));
    greedy.Increment(static_cast<uint64_t>(result.greedy_fallbacks));
    breaker.Increment(static_cast<uint64_t>(result.breaker_skips));
    lost.Increment(static_cast<uint64_t>(result.lost_containers));
    moved.Increment(static_cast<uint64_t>(result.moved_containers));
    reused_sps.Increment(static_cast<uint64_t>(result.reused_subproblems));
    for (const SubproblemReport& report : result.subproblems) {
      sp_seconds.Observe(report.seconds);
    }
    opt_seconds.Observe(result.elapsed_seconds);
    improvement_gauge.Set(improvement);
    gained_gauge.Set(result.new_gained_affinity);
    if (result.report.populated) {
      gap_gauge.Set(result.report.certificate.Gap());
    }
  }
  return result;
}

}  // namespace rasa
