#include "cluster/first_fit.h"

#include <algorithm>

#include "common/strings.h"

namespace rasa {
namespace {

// The feasible machine with the lowest MinFreeFraction (packs tightly);
// the lowest id wins ties, -1 when nothing fits.
int MostAllocatedMachine(const Placement& placement, int service) {
  int best = -1;
  double best_score = -1e300;
  for (int m = 0; m < placement.cluster()->num_machines(); ++m) {
    if (!placement.CanPlace(m, service)) continue;
    const double score = -placement.MinFreeFraction(m);
    if (score > best_score) {
      best_score = score;
      best = m;
    }
  }
  return best;
}

}  // namespace

StatusOr<Placement> FirstFitPlace(const Cluster& cluster, Rng& rng,
                                  FirstFitScore score, bool shuffle) {
  Placement placement(cluster);
  std::vector<int> order(cluster.num_services());
  for (int s = 0; s < cluster.num_services(); ++s) order[s] = s;
  if (shuffle) rng.Shuffle(order);

  for (int s : order) {
    const Service& svc = cluster.service(s);
    for (int c = 0; c < svc.demand; ++c) {
      const int best = score == FirstFitScore::kLeastAllocated
                           ? LeastAllocatedMachine(placement, s)
                           : MostAllocatedMachine(placement, s);
      if (best < 0) {
        return ResourceExhaustedError(StrFormat(
            "no feasible machine for container %d of service %s", c,
            svc.name.c_str()));
      }
      placement.Add(best, s);
    }
  }
  return placement;
}

double AverageUtilization(const Placement& placement) {
  const Cluster& cluster = *placement.cluster();
  if (cluster.num_machines() == 0) return 0.0;
  double total = 0.0;
  for (int m = 0; m < cluster.num_machines(); ++m) {
    double max_used_frac = 0.0;
    for (int r = 0; r < cluster.num_resources(); ++r) {
      const double cap = cluster.machine(m).capacity[r];
      if (cap <= 0.0) continue;
      max_used_frac =
          std::max(max_used_frac, placement.UsedResource(m, r) / cap);
    }
    total += max_used_frac;
  }
  return total / cluster.num_machines();
}

}  // namespace rasa
