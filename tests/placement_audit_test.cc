// Differential oracle for the placement feasibility audit: the rule-scoped
// per-machine audit (CheckFeasible / CheckMachines) must report the same
// status code and byte-identical message as the all-rules scan it replaced,
// on generated clusters with seeded, deliberately injected violations.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "cluster/generator.h"
#include "cluster/placement.h"
#include "common/rng.h"
#include "common/strings.h"
#include "gtest/gtest.h"

namespace rasa {
namespace {

// The reference audit of `machines`: every machine against every
// anti-affinity rule, O(M·K) per full audit. It lives only here, as the
// oracle.
Status ReferenceAudit(const Placement& p, const std::vector<int>& machines) {
  const Cluster& cluster = *p.cluster();
  for (int m : machines) {
    for (int r = 0; r < cluster.num_resources(); ++r) {
      if (p.UsedResource(m, r) >
          cluster.machine(m).capacity[r] + kCapacityTolerance) {
        return FailedPreconditionError(StrFormat(
            "machine %d over capacity on resource %d: %g > %g", m, r,
            p.UsedResource(m, r), cluster.machine(m).capacity[r]));
      }
    }
    for (const auto& [s, count] : p.ServicesOn(m)) {
      if (count > 0 && !cluster.CanHost(m, s)) {
        return FailedPreconditionError(
            StrFormat("machine %d cannot host service %d", m, s));
      }
    }
    for (size_t k = 0; k < cluster.anti_affinity().size(); ++k) {
      const AntiAffinityRule& rule = cluster.anti_affinity()[k];
      if (p.RuleCount(m, static_cast<int>(k)) > rule.max_per_machine) {
        return FailedPreconditionError(StrFormat(
            "machine %d violates anti-affinity rule %zu (%d > %d)", m, k,
            p.RuleCount(m, static_cast<int>(k)), rule.max_per_machine));
      }
    }
  }
  return Status::OK();
}

Status ReferenceCheckFeasible(const Placement& p, bool check_sla) {
  const Cluster& cluster = *p.cluster();
  std::vector<int> all(cluster.num_machines());
  for (int m = 0; m < cluster.num_machines(); ++m) all[m] = m;
  RASA_RETURN_IF_ERROR(ReferenceAudit(p, all));
  if (check_sla) {
    for (int s = 0; s < cluster.num_services(); ++s) {
      if (p.TotalOf(s) != cluster.service(s).demand) {
        return FailedPreconditionError(StrFormat(
            "service %d deploys %d containers, SLA demands %d", s,
            p.TotalOf(s), cluster.service(s).demand));
      }
    }
  }
  return Status::OK();
}

void ExpectSameStatus(const Status& actual, const Status& expected,
                      const std::string& what) {
  EXPECT_EQ(actual.code(), expected.code()) << what;
  EXPECT_EQ(actual.message(), expected.message()) << what;
}

// The generated cluster plus `extra` rules appended after its own.
std::shared_ptr<Cluster> WithExtraRules(const Cluster& base,
                                        std::vector<AntiAffinityRule> extra) {
  std::vector<AntiAffinityRule> rules = base.anti_affinity();
  rules.insert(rules.end(), extra.begin(), extra.end());
  return std::make_shared<Cluster>(base.resource_names(), base.services(),
                                   base.machines(), base.affinity(),
                                   std::move(rules));
}

// A service machine `m` may host, drawn uniformly; -1 if none.
int HostableService(const Cluster& cluster, int m, Rng& rng,
                    bool want_hostable) {
  std::vector<int> candidates;
  for (int s = 0; s < cluster.num_services(); ++s) {
    if (cluster.CanHost(m, s) == want_hostable) candidates.push_back(s);
  }
  if (candidates.empty()) return -1;
  return candidates[rng.NextUint64(candidates.size())];
}

enum Injection {
  kOverCapacity,
  kWrongPlatform,
  kSingleServiceRule,
  kGroupRule,
  kNumInjections,
};

// Adds containers (unchecked) to machine `m` so that one violation of
// `kind` appears there.
void Inject(Injection kind, const Cluster& cluster, Placement& p, int m,
            Rng& rng) {
  switch (kind) {
    case kOverCapacity: {
      const int s = HostableService(cluster, m, rng, /*want_hostable=*/true);
      if (s < 0 || cluster.service(s).request[0] <= 0.0) return;
      while (p.UsedResource(m, 0) <=
             cluster.machine(m).capacity[0] + kCapacityTolerance) {
        p.Add(m, s);
      }
      return;
    }
    case kWrongPlatform: {
      const int s = HostableService(cluster, m, rng, /*want_hostable=*/false);
      if (s >= 0) p.Add(m, s);
      return;
    }
    case kSingleServiceRule:
    case kGroupRule: {
      std::vector<int> rules;
      for (size_t k = 0; k < cluster.anti_affinity().size(); ++k) {
        const size_t size = cluster.anti_affinity()[k].services.size();
        if ((kind == kSingleServiceRule) == (size == 1)) {
          rules.push_back(static_cast<int>(k));
        }
      }
      if (rules.empty()) return;
      const int k = rules[rng.NextUint64(rules.size())];
      const AntiAffinityRule& rule = cluster.anti_affinity()[k];
      for (size_t i = 0; p.RuleCount(m, k) <= rule.max_per_machine; ++i) {
        p.Add(m, rule.services[i % rule.services.size()]);
      }
      return;
    }
    case kNumInjections:
      return;
  }
}

struct Coverage {
  int ok = 0;
  int over_capacity = 0;
  int cannot_host = 0;
  int anti_affinity = 0;
  int zero_limit = 0;
  int sla = 0;
};

void Tally(const Status& status, const Cluster& cluster, Coverage& seen) {
  const std::string& msg = status.message();
  if (status.ok()) {
    ++seen.ok;
  } else if (msg.find("over capacity") != std::string::npos) {
    ++seen.over_capacity;
  } else if (msg.find("cannot host") != std::string::npos) {
    ++seen.cannot_host;
  } else if (msg.find("anti-affinity") != std::string::npos) {
    ++seen.anti_affinity;
    int m = 0, k = 0;
    if (std::sscanf(msg.c_str(), "machine %d violates anti-affinity rule %d",
                    &m, &k) == 2 &&
        cluster.anti_affinity()[k].max_per_machine == 0) {
      ++seen.zero_limit;
    }
  } else if (msg.find("SLA demands") != std::string::npos) {
    ++seen.sla;
  }
}

class PlacementAuditOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(PlacementAuditOracleTest, ScopedAuditMatchesAllRulesScan) {
  // Alternate a Table II row with group rules (M1) and one with a minority
  // platform and few machines (M3), both at small factors.
  ClusterSpec spec = GetParam() % 2 == 0 ? M1Spec(48.0) : M3Spec(16.0);
  spec.seed = 7100 + GetParam();
  StatusOr<ClusterSnapshot> snapshot = GenerateCluster(spec);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();
  const Cluster& base = *snapshot->cluster;

  Rng rng(31 + GetParam());
  Coverage seen;
  constexpr int kTrials = 60;
  for (int trial = 0; trial < kTrials; ++trial) {
    // Extra rules: 3-service groups and single services, some with
    // max_per_machine = 0 (any container of a member on a machine fires).
    std::vector<AntiAffinityRule> extra;
    const int num_extra = rng.NextInt(0, 4);
    for (int e = 0; e < num_extra; ++e) {
      AntiAffinityRule rule;
      const int members = rng.NextBool(0.5) ? 3 : 1;
      for (int i = 0; i < members; ++i) {
        rule.services.push_back(rng.NextInt(0, base.num_services() - 1));
      }
      rule.max_per_machine = rng.NextInt(0, 2);
      extra.push_back(std::move(rule));
    }
    std::shared_ptr<Cluster> cluster = WithExtraRules(base, std::move(extra));
    ASSERT_TRUE(cluster->Validate().ok());

    Placement p(*cluster);
    for (int m = 0; m < cluster->num_machines(); ++m) {
      for (const auto& [s, count] : snapshot->original_placement.ServicesOn(m)) {
        p.Add(m, s, count);
      }
    }
    // Injected violations; half the time several land on one machine.
    int m = rng.NextInt(0, cluster->num_machines() - 1);
    const int injections = rng.NextBool(0.4) ? 0 : rng.NextInt(1, 5);
    for (int i = 0; i < injections; ++i) {
      if (rng.NextBool(0.5)) m = rng.NextInt(0, cluster->num_machines() - 1);
      Inject(static_cast<Injection>(rng.NextInt(0, kNumInjections - 1)),
             *cluster, p, m, rng);
    }
    // Often strand a container so the SLA branch is exercised too.
    if (rng.NextBool(0.5)) {
      const int victim = rng.NextInt(0, cluster->num_machines() - 1);
      if (!p.ServicesOn(victim).empty()) {
        ASSERT_TRUE(p.Remove(victim, p.ServicesOn(victim).begin()->first).ok());
      }
    }

    const std::string what = StrFormat("trial %d", trial);
    const Status expected = ReferenceCheckFeasible(p, /*check_sla=*/false);
    ExpectSameStatus(p.CheckFeasible(/*check_sla=*/false), expected, what);
    std::vector<int> all(cluster->num_machines());
    for (int i = 0; i < cluster->num_machines(); ++i) all[i] = i;
    ExpectSameStatus(p.CheckMachines(all), expected, what);
    ExpectSameStatus(p.CheckFeasible(/*check_sla=*/true),
                     ReferenceCheckFeasible(p, /*check_sla=*/true), what);
    // A random ascending subset against the reference over that subset.
    std::vector<int> subset;
    for (int i = 0; i < cluster->num_machines(); ++i) {
      if (rng.NextBool(0.3)) subset.push_back(i);
    }
    ExpectSameStatus(p.CheckMachines(subset), ReferenceAudit(p, subset),
                     what + " (subset)");
    Tally(expected, *cluster, seen);
    Tally(ReferenceCheckFeasible(p, /*check_sla=*/true), *cluster, seen);
  }
  // The seeded trials must exercise every branch of the audit.
  EXPECT_GT(seen.ok, 0);
  EXPECT_GT(seen.over_capacity, 0);
  EXPECT_GT(seen.anti_affinity, 0);
  EXPECT_GT(seen.zero_limit, 0);
  EXPECT_GT(seen.sla, 0);
  EXPECT_GT(seen.cannot_host, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlacementAuditOracleTest,
                         ::testing::Range(0, 6));

// Several violations on one machine: the reported one is the first in the
// fixed order resources → schedulability → rules by ascending id, however
// the rules are listed per service.
TEST(PlacementAuditTest, FirstViolationFollowsAscendingRuleIds) {
  std::vector<Service> services(3);
  for (int s = 0; s < 3; ++s) {
    services[s].name = "svc" + std::to_string(s);
    services[s].demand = 4;
    services[s].request = {1.0};
  }
  Machine machine;
  machine.name = "m0";
  machine.capacity = {16.0};
  // Rule 0 names service 2 only, rule 1 is a 3-service group, rule 2 names
  // service 0 with max_per_machine = 0: service 0's own rule list is {1, 2}
  // and service 2's is {0, 1}, so the union must be sorted to report rule 0.
  std::vector<AntiAffinityRule> rules = {
      {{2}, 1}, {{0, 1, 2}, 3}, {{0}, 0}};
  Cluster cluster({"cpu"}, services, {machine}, AffinityGraph(3), rules);
  ASSERT_TRUE(cluster.Validate().ok());
  Placement p(cluster);
  p.Add(0, 0, 2);
  p.Add(0, 2, 2);
  const Status status = p.CheckFeasible(/*check_sla=*/false);
  EXPECT_EQ(status.message(),
            "machine 0 violates anti-affinity rule 0 (2 > 1)");
  ExpectSameStatus(status, ReferenceCheckFeasible(p, false), "group");
  ExpectSameStatus(p.CheckMachines({0}), status, "scoped");
  EXPECT_TRUE(p.CheckMachines({}).ok());
}

}  // namespace
}  // namespace rasa
