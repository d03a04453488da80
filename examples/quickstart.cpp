/// Quickstart: submit one workflow DAG to SPHINX and watch it complete.
///
/// Builds the simulated Grid3 testbed, starts one SPHINX server/client
/// pair using the completion-time strategy, submits a single 10-job DAG
/// (the paper's workload unit) and prints what happened to every job.

#include <cstdio>

#include "common/strings.hpp"
#include "exp/scenario.hpp"
#include "workflow/generator.hpp"

int main() {
  using namespace sphinx;
  using namespace sphinx::exp;

  // 1. Build the grid: 15 heterogeneous sites with background load,
  //    failures, monitoring, WAN links and replica catalogs.
  ScenarioConfig config;
  config.seed = 42;
  Scenario scenario(config);
  std::printf("grid: %zu sites, %d CPUs total\n", scenario.grid().size(),
              scenario.grid().total_cpus());

  // 2. Create a SPHINX deployment (server + client + Condor-G gateway).
  TenantOptions options;
  options.algorithm = core::Algorithm::kCompletionTime;
  Tenant& tenant = scenario.add_tenant("quickstart", options);

  // 3. Generate the paper's workload unit: a 10-job random DAG whose jobs
  //    take 2-3 input files and one minute of compute each.
  workflow::WorkloadConfig workload;
  auto generator = scenario.make_generator("demo", workload);
  const workflow::Dag dag = generator.generate("demo");
  std::printf("dag '%s': %zu jobs, %zu roots\n", dag.name().c_str(),
              dag.size(), dag.roots().size());

  // 4. Start everything and submit.
  scenario.start();
  scenario.engine().schedule_at(1.0, "submit",
                                [&] { tenant.client->submit(dag); });
  scenario.run(hours(12));

  // 5. Report.
  const auto& outcome = tenant.client->dag_outcomes().front();
  if (!outcome.done()) {
    std::printf("dag did not finish within the horizon!\n");
    return 1;
  }
  std::printf("\ndag finished in %s\n",
              format_duration(outcome.completion_time()).c_str());
  std::printf("%-28s %-12s %-10s %s\n", "job", "site", "attempts", "state");
  for (const auto& job : dag.jobs()) {
    const auto record = tenant.server->warehouse().job(job.id);
    const std::string site = record->site.valid()
                                 ? scenario.grid().site(record->site).name()
                                 : "-";
    std::printf("%-28s %-12s %-10d %s\n", job.name.c_str(), site.c_str(),
                record->attempt, core::to_string(record->state));
  }
  const auto tracker = [&](const char* name) {
    return static_cast<unsigned long long>(scenario.recorder().counter(
        name, tenant.client->config().endpoint));
  };
  std::printf("\ntracker: %llu plans, %llu completions, %llu timeouts\n",
              tracker("tracker.plans_received"), tracker("tracker.completions"),
              tracker("tracker.timeouts"));
  return 0;
}
