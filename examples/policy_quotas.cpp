/// Policy-based scheduling: per-user resource-usage quotas.
///
/// Two production managers of the same VO share one SPHINX server's
/// grid.  Alice has CPU-time quota everywhere; Bob's quota allows only
/// three sites.  The policy engine (eq. 4 of the paper: quota_i^s >=
/// required_i^s) filters Bob's feasible set before any strategy runs --
/// his jobs land only where his quota permits, while Alice's spread out.

#include <cstdio>
#include <map>

#include "common/strings.hpp"
#include "exp/scenario.hpp"
#include "workflow/generator.hpp"

int main() {
  using namespace sphinx;
  using namespace sphinx::exp;

  ScenarioConfig scenario_config;
  scenario_config.seed = 11;
  Scenario scenario(scenario_config);
  TenantOptions options;
  options.algorithm = core::Algorithm::kNumCpus;
  options.use_policy = true;
  Tenant& alice = scenario.add_tenant("alice", options);
  Tenant& bob = scenario.add_tenant("bob", options);

  // Quotas: Alice generous everywhere; Bob restricted to three sites.
  const std::vector<std::string> bob_sites = {"spider", "spike", "grid3"};
  for (const auto& site : scenario.catalog()) {
    alice.server->set_quota(alice.client->config().user, site.id,
                            "cpu_seconds", 1e7);
    const bool allowed =
        std::find(bob_sites.begin(), bob_sites.end(), site.name) !=
        bob_sites.end();
    bob.server->set_quota(bob.client->config().user, site.id, "cpu_seconds",
                          allowed ? 1e7 : 0.0);
  }

  workflow::WorkloadConfig workload;
  auto gen_a = scenario.make_generator("alice", workload);
  auto gen_b = scenario.make_generator("bob", workload);
  const auto dags_a = gen_a.generate_batch("alice", 5);
  const auto dags_b = gen_b.generate_batch("bob", 5);

  scenario.start();
  scenario.engine().schedule_at(1.0, "submit", [&] {
    for (const auto& dag : dags_a) alice.client->submit(dag);
    for (const auto& dag : dags_b) bob.client->submit(dag);
  });
  scenario.run(hours(12));

  const auto spread = [&](Tenant& tenant) {
    std::map<std::string, int> by_site;
    for (const auto& site : scenario.catalog()) {
      const auto& obs = tenant.client->site_observations();
      const auto it = obs.find(site.id);
      if (it != obs.end() && it->second.completed > 0) {
        by_site[site.name] = static_cast<int>(it->second.completed);
      }
    }
    return by_site;
  };

  for (Tenant* tenant : {&alice, &bob}) {
    std::printf("\n%s: %zu/%zu dags finished, avg %s; jobs per site:\n",
                tenant->label.c_str(), tenant->client->dags_finished(),
                tenant->client->dag_outcomes().size(),
                format_duration(tenant->client->avg_dag_completion()).c_str());
    for (const auto& [site, count] : spread(*tenant)) {
      std::printf("  %-12s %d\n", site.c_str(), count);
    }
    std::printf("  (policy filtered the candidate set %llu times)\n",
                static_cast<unsigned long long>(scenario.recorder().counter(
                    "server.policy_rejections", tenant->server->endpoint())));
  }

  // Invariant check for the example's claim: Bob only ran where allowed.
  bool bob_confined = true;
  for (const auto& [site, count] : spread(bob)) {
    if (std::find(bob_sites.begin(), bob_sites.end(), site) ==
        bob_sites.end()) {
      bob_confined = false;
    }
  }
  std::printf("\nbob confined to his quota sites: %s\n",
              bob_confined ? "yes" : "NO (bug!)");
  return bob_confined ? 0 : 1;
}
