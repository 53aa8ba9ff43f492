#ifndef RASA_CLUSTER_PLACEMENT_H_
#define RASA_CLUSTER_PLACEMENT_H_

#include <algorithm>
#include <map>
#include <vector>

#include "cluster/cluster.h"
#include "common/status.h"

namespace rasa {

/// Absolute slack allowed on machine resource capacities, shared by the
/// admission check (CanPlace) and the audit (CheckFeasible). A single
/// constant keeps the two consistent: anything CanPlace admits must pass
/// the audit, and the audit must reject anything CanPlace would refuse —
/// a looser audit tolerance would mask real over-commitment, a tighter one
/// would flag placements the admission path built legitimately.
inline constexpr double kCapacityTolerance = 1e-9;

/// The decision matrix x_{s,m}: how many containers of each service sit on
/// each machine. Kept sparse (most services touch few machines) with
/// deterministic iteration order, plus incremental resource accounting.
class Placement {
 public:
  Placement() = default;
  explicit Placement(const Cluster& cluster);

  /// x_{s,m}.
  int CountOn(int machine, int service) const;
  /// Total deployed containers of `service` across machines.
  int TotalOf(int service) const { return total_of_service_[service]; }
  /// Total containers on `machine`.
  int ContainersOn(int machine) const { return containers_on_machine_[machine]; }

  /// Services present on `machine` with positive count, ordered by id.
  const std::map<int, int>& ServicesOn(int machine) const {
    return by_machine_[machine];
  }
  /// Machines hosting `service` with positive count, ordered by id.
  const std::map<int, int>& MachinesOf(int service) const {
    return by_service_[service];
  }

  /// Used amount of resource `r` on `machine`.
  double UsedResource(int machine, int r) const { return used_[machine][r]; }
  /// Remaining capacity of resource `r` on `machine`.
  double FreeResource(int machine, int r) const;
  /// Free fraction of the fullest resource on `machine`: the minimum of
  /// FreeResource / capacity over resources with positive capacity (1.0
  /// when there is none). The least-allocated scheduling score.
  double MinFreeFraction(int machine) const {
    const std::vector<double>& capacity = cluster_->machine(machine).capacity;
    double min_free = 1.0;
    for (int r = 0; r < cluster_->num_resources(); ++r) {
      const double cap = capacity[r];
      if (cap <= 0.0) continue;
      min_free = std::min(min_free, (cap - used_[machine][r]) / cap);
    }
    return min_free;
  }

  /// Adds `count` containers of `service` to `machine` without checking
  /// constraints (callers needing checks use CanPlace first).
  void Add(int machine, int service, int count = 1);
  /// Removes `count` containers; returns an error if fewer are present.
  Status Remove(int machine, int service, int count = 1);

  /// True if adding `count` containers of `service` keeps resources,
  /// anti-affinity and schedulability satisfied on `machine`.
  bool CanPlace(int machine, int service, int count = 1) const;

  /// Count of containers on `machine` covered by anti-affinity rule `k`.
  int RuleCount(int machine, int rule) const;

  /// Full feasibility audit (resources, anti-affinity, schedulability).
  /// With `check_sla`, also verifies TotalOf(s) == demand for all services.
  Status CheckFeasible(bool check_sla = true) const;

  /// The same per-machine audit over only `machines` (ascending ids). A
  /// machine's audit reads nothing but its own row, so when every other
  /// machine is known feasible this returns exactly what
  /// CheckFeasible(false) would, at the cost of the machines named.
  Status CheckMachines(const std::vector<int>& machines) const;

  /// Number of containers whose (service, machine) assignment differs from
  /// `other` — the migration volume between two placements (counts moved
  /// containers once, i.e. sum of positive differences).
  int DiffCount(const Placement& other) const;
  /// DiffCount in both directions. Zero iff the two placements hold the
  /// same counts everywhere; DiffCount alone reads a strict subset (an
  /// under-deployed state) as equal.
  int SymmetricDiff(const Placement& other) const {
    return DiffCount(other) + other.DiffCount(*this);
  }

  /// The same counts re-added onto `cluster`, which must have this
  /// placement's shape (same machines and services — typically a copy with
  /// other affinity weights). Resource use is re-accumulated in canonical
  /// (machine, service) order.
  Placement Rebind(const Cluster& cluster) const;

  const Cluster* cluster() const { return cluster_; }

 private:
  // Audits machine `m`; `rules` is reused scratch.
  Status CheckMachine(int m, std::vector<int>& rules) const;

  const Cluster* cluster_ = nullptr;
  std::vector<std::map<int, int>> by_machine_;
  std::vector<std::map<int, int>> by_service_;
  std::vector<std::vector<double>> used_;
  std::vector<int> total_of_service_;
  std::vector<int> containers_on_machine_;
};

/// The filter-and-score step of least-allocated scheduling: among machines
/// passing `eligible(m)` that can take one more container of `service`,
/// the one with the highest MinFreeFraction; the lowest id wins ties.
/// Returns -1 when no machine qualifies.
template <typename Eligible>
int LeastAllocatedMachine(const Placement& placement, int service,
                          Eligible eligible) {
  int best = -1;
  double best_score = -1e300;
  const int num_machines = placement.cluster()->num_machines();
  for (int m = 0; m < num_machines; ++m) {
    if (!eligible(m) || !placement.CanPlace(m, service)) continue;
    const double score = placement.MinFreeFraction(m);
    if (score > best_score) {
      best_score = score;
      best = m;
    }
  }
  return best;
}

inline int LeastAllocatedMachine(const Placement& placement, int service) {
  return LeastAllocatedMachine(placement, service, [](int) { return true; });
}

}  // namespace rasa

#endif  // RASA_CLUSTER_PLACEMENT_H_
