/// Baseline: "the way that jobs are scheduled on the grid today" (paper
/// section 2) versus SPHINX.
///
/// The manual user runs plain DAGMan against Condor-G and picks sites by
/// static CPU counts ("the decision to send how many jobs to a site is
/// usually based on some static information like the number of CPUs"),
/// retrying failed jobs by hand (resubmission budget).  SPHINX runs the
/// completion-time strategy with feedback on the same grid at the same
/// time.  The manual user has no tracker: a job lost to an unresponsive
/// site simply stalls until the user "notices" (a long per-job patience
/// window) and resubmits.

#include <cstdio>
#include <memory>

#include "bench_common.hpp"
#include "common/strings.hpp"
#include "data/replication.hpp"
#include "submit/dagman.hpp"
#include "workflow/generator.hpp"

int main() {
  using namespace sphinx;
  using namespace sphinx::bench;

  print_header("Baseline",
               "manual DAGMan user vs SPHINX (30 dags x 10 jobs/dag)");

  exp::ExperimentConfig config = paper_config(30);
  exp::Scenario scenario(config.scenario);

  // Tenant 1: SPHINX with the completion-time strategy.
  exp::TenantOptions options;
  options.algorithm = core::Algorithm::kCompletionTime;
  exp::Tenant& sphinx_tenant = scenario.add_tenant("sphinx", options);

  // Tenant 2: the manual user -- a bare gateway, no SPHINX.
  submit::CondorG manual_gateway(scenario.grid(), scenario.transfers(),
                                 scenario.rls(), "manual");

  auto generator_a = scenario.make_generator("shared", config.workload);
  auto generator_b = scenario.make_generator("shared", config.workload);
  const auto sphinx_dags = generator_a.generate_batch("s", config.dag_count);
  const auto manual_dags = generator_b.generate_batch("m", config.dag_count);

  // The manual user's placement: weighted round-robin by catalog CPUs
  // (static!), inputs resolved from the RLS at submission time.
  const auto catalog = scenario.catalog();
  auto cursor = std::make_shared<std::size_t>(0);
  const submit::PlacementCallout manual_callout =
      [&scenario, catalog, cursor](const workflow::JobSpec& spec)
      -> std::optional<submit::Placement> {
    // Build the CPU-weighted site sequence lazily.
    static thread_local std::vector<SiteId> weighted;
    if (weighted.empty()) {
      for (const auto& site : catalog) {
        const int share = std::max(1, site.cpus / 40);
        for (int i = 0; i < share; ++i) weighted.push_back(site.id);
      }
    }
    submit::Placement placement;
    placement.site = weighted[(*cursor)++ % weighted.size()];
    for (const auto& lfn : spec.inputs) {
      const auto replicas = scenario.rls().locate(lfn);
      if (replicas.empty()) return std::nullopt;  // wait for parent output
      const auto choice = data::select_replica(replicas, placement.site,
                                               scenario.transfers());
      placement.inputs.push_back(
          submit::StagedInput{lfn, choice->site, choice->size_bytes});
    }
    return placement;
  };

  std::vector<std::unique_ptr<submit::DagMan>> dagmen;
  std::size_t manual_done = 0;
  RunningStats manual_completion;
  std::vector<SimTime> manual_started(manual_dags.size());

  scenario.start();
  scenario.engine().schedule_at(10.0, "submit", [&] {
    for (std::size_t k = 0; k < manual_dags.size(); ++k) {
      manual_started[k] = scenario.engine().now();
      dagmen.push_back(std::make_unique<submit::DagMan>(
          manual_gateway, manual_dags[k], UserId(999), "uscms",
          manual_callout,
          [&, k](DagId, SimTime at) {
            ++manual_done;
            manual_completion.add(at - manual_started[k]);
          },
          /*max_retries=*/5));
      dagmen.back()->start(scenario.engine().now());
      sphinx_tenant.client->submit(sphinx_dags[k]);
    }
  });
  // Manual users have no tracker: poke stuck DAGMan jobs periodically by
  // force-removing anything idle for very long ("the application user has
  // to re-submit the failed jobs again" -- after noticing, much later).
  sim::PeriodicProcess babysitter(
      scenario.engine(), "manual-babysit", minutes(45), [&] {
        for (const auto& dag : manual_dags) {
          for (const auto& job : dag.jobs()) {
            const auto state = manual_gateway.state_of(job.id);
            if (state.has_value() &&
                (*state == submit::GatewayJobState::kIdle ||
                 *state == submit::GatewayJobState::kSubmitted)) {
              (void)manual_gateway.cancel(job.id);  // triggers DAGMan retry
            }
          }
        }
      },
      minutes(45));
  babysitter.start();

  // Run until both sides are done (or the horizon hits).
  sim::PeriodicProcess watchdog(
      scenario.engine(), "baseline-watch", 60.0, [&] {
        if (manual_done == manual_dags.size() &&
            sphinx_tenant.client->all_dags_finished()) {
          scenario.engine().stop();
        }
      },
      60.0);
  watchdog.start();
  scenario.engine().run_until(config.horizon);

  std::printf("\n%-24s %-12s %-16s %-14s\n", "approach", "dags done",
              "avg dag (s)", "reschedules");
  std::size_t manual_retries = 0;
  std::size_t manual_failed = 0;
  for (const auto& dagman : dagmen) {
    manual_retries += dagman->resubmissions();
    if (dagman->failed()) ++manual_failed;
  }
  std::printf("%-24s %zu/%zu%s %-16.1f %-14zu\n", "manual (static CPUs)",
              manual_done, manual_dags.size(),
              manual_failed > 0 ? "*" : " ", manual_completion.mean(),
              manual_retries);
  std::printf("%-24s %zu/%zu  %-16.1f %-14zu\n", "SPHINX (completion-time)",
              sphinx_tenant.client->dags_finished(), sphinx_dags.size(),
              sphinx_tenant.client->avg_dag_completion(),
              static_cast<std::size_t>(scenario.recorder().counter(
                  "server.replans", sphinx_tenant.server->endpoint())));
  if (manual_failed > 0) {
    std::printf("  * %zu manual DAGs exhausted their retry budget and died\n",
                manual_failed);
  }
  if (manual_completion.mean() > 0) {
    std::printf("\nSPHINX completes DAGs %.1fx faster than the manual "
                "baseline\n",
                manual_completion.mean() /
                    sphinx_tenant.client->avg_dag_completion());
  }
  return 0;
}
