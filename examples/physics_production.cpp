/// A high-energy-physics production campaign through the Chimera-style
/// virtual data catalog.
///
/// The paper's motivating users are HEP collaborations running
/// simulation + reconstruction + analysis pipelines described as virtual
/// data: transformations and derivations, compiled on demand into
/// abstract DAGs (section 3.3).  This example registers a small CMS-like
/// pipeline, requests two analysis products, lets SPHINX schedule the
/// compiled DAGs, and then requests one of them *again* to show the DAG
/// reducer eliminating already-materialized derivations.

#include <cstdio>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "exp/scenario.hpp"
#include "workflow/chimera.hpp"

int main() {
  using namespace sphinx;
  using namespace sphinx::exp;

  ScenarioConfig scenario_config;
  scenario_config.seed = 7;
  Scenario scenario(scenario_config);
  TenantOptions options;
  options.algorithm = core::Algorithm::kCompletionTime;
  Tenant& tenant = scenario.add_tenant("cms-prod", options);

  // --- virtual data catalog: a mini CMS pipeline ----------------------
  workflow::VirtualDataCatalog vdc;
  const auto must = [](StatusOrError status) {
    SPHINX_ASSERT(status.ok(), "derivation registration failed");
  };
  vdc.add_transformation({"cmkin", 60.0});    // event generation
  vdc.add_transformation({"cmsim", 90.0});    // detector simulation
  vdc.add_transformation({"reco", 60.0});     // reconstruction
  vdc.add_transformation({"analysis", 45.0}); // ntuple analysis

  for (int run = 0; run < 4; ++run) {
    const std::string r = std::to_string(run);
    must(vdc.add_derivation({"cmkin", {}, "lfn://mc/gen" + r, 80e6}));
    must(vdc.add_derivation(
        {"cmsim", {"lfn://mc/gen" + r}, "lfn://mc/sim" + r, 150e6}));
    must(vdc.add_derivation(
        {"reco", {"lfn://mc/sim" + r}, "lfn://mc/reco" + r, 60e6}));
  }
  must(vdc.add_derivation({"analysis",
                          {"lfn://mc/reco0", "lfn://mc/reco1"},
                          "lfn://plots/higgs", 5e6}));
  must(vdc.add_derivation({"analysis",
                          {"lfn://mc/reco2", "lfn://mc/reco3"},
                          "lfn://plots/susy", 5e6}));
  std::printf("virtual data catalog: %zu derivations registered\n",
              vdc.derivation_count());

  // --- compile and submit the two analysis requests -------------------
  const auto higgs = vdc.request("lfn://plots/higgs", scenario.ids(), "higgs");
  const auto susy = vdc.request("lfn://plots/susy", scenario.ids(), "susy");
  if (!higgs || !susy) {
    std::printf("derivation request failed\n");
    return 1;
  }
  std::printf("compiled DAGs: higgs=%zu jobs, susy=%zu jobs\n",
              higgs->size(), susy->size());

  scenario.start();
  scenario.engine().schedule_at(1.0, "submit", [&] {
    tenant.client->submit(*higgs);
    tenant.client->submit(*susy);
  });
  scenario.run(hours(12));

  for (const auto& outcome : tenant.client->dag_outcomes()) {
    std::printf("%s finished in %s\n", outcome.name.c_str(),
                outcome.done()
                    ? format_duration(outcome.completion_time()).c_str()
                    : "(did not finish)");
  }

  // --- request higgs again: everything is already materialized --------
  const auto again = vdc.request("lfn://plots/higgs", scenario.ids(),
                                 "higgs-again");
  const auto jobs_reduced = [&] {
    return scenario.recorder().counter("server.jobs_reduced",
                                       tenant.server->endpoint());
  };
  const std::uint64_t reduced_before = jobs_reduced();
  scenario.engine().schedule_in(1.0, "resubmit",
                                [&] { tenant.client->submit(*again); });
  scenario.run(scenario.engine().now() + hours(1));
  const auto& outcome = tenant.client->dag_outcomes().back();
  std::printf(
      "\nre-request of lfn://plots/higgs: %llu of %zu jobs eliminated by the "
      "DAG reducer, finished in %s\n",
      static_cast<unsigned long long>(jobs_reduced() - reduced_before),
      again->size(),
      outcome.done() ? format_duration(outcome.completion_time()).c_str()
                     : "(did not finish)");
  return 0;
}
