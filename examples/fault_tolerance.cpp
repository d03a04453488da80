/// Fault tolerance end to end: a mid-run site failure, tracker timeouts,
/// replanning, and a SPHINX server crash with journal recovery.
///
/// Timeline:
///   t=0        submit 6 DAGs; ufloridapg (the best site) is healthy
///   t=10 min   ufloridapg goes down *silently*, taking its jobs with it
///   t=12 min   the SPHINX server "crashes"; a new instance is rebuilt
///              from its last checkpoint image and the journal records
///              after it (Scenario::crash_and_recover_server, the one
///              recovery path) and resumes scheduling
///   ...        tracker timeouts fire for the lost jobs; the server
///              (recovered!) replans them onto other sites
///   end        every DAG completes despite losing a site and a server

#include <cstdio>

#include "common/strings.hpp"
#include "exp/scenario.hpp"
#include "workflow/generator.hpp"

int main() {
  using namespace sphinx;
  using namespace sphinx::exp;

  ScenarioConfig config;
  config.seed = 3;
  config.site_failures = false;  // we stage the failure ourselves
  Scenario scenario(config);

  TenantOptions options;
  options.algorithm = core::Algorithm::kCompletionTime;
  options.job_timeout = minutes(10);
  Tenant& tenant = scenario.add_tenant("prod", options);

  workflow::WorkloadConfig workload;
  auto generator = scenario.make_generator("ft", workload);
  const auto dags = generator.generate_batch("ft", 6);

  scenario.start();
  scenario.engine().schedule_at(1.0, "submit", [&] {
    for (const auto& dag : dags) tenant.client->submit(dag);
    std::printf("[t=%5.0fs] submitted %zu dags (%zu jobs)\n",
                scenario.engine().now(), dags.size(), dags.size() * 10);
  });

  scenario.engine().schedule_at(minutes(10), "kill-site", [&] {
    grid::Site* site = scenario.grid().find_site("ufloridapg");
    std::printf("[t=%5.0fs] ufloridapg goes down (%d CPUs vanish, jobs lost "
                "silently)\n",
                scenario.engine().now(), site->config().cpus);
    site->go_down();
  });

  // The recorder outlives the crash, so the plan count continues across
  // it; the recovered server's share is the count's growth since then.
  const std::string endpoint = tenant.server->endpoint();
  bool recovered = false;
  std::uint64_t plans_at_recovery = 0;
  scenario.engine().schedule_at(minutes(12), "crash-server", [&] {
    std::printf("[t=%5.0fs] SPHINX server crashes; replaying journal (%zu "
                "records)...\n",
                scenario.engine().now(),
                tenant.server->warehouse().journal().size());
    if (const auto status = scenario.crash_and_recover_server(0);
        !status.ok()) {
      std::printf("recovery failed: %s\n", status.error().to_string().c_str());
      return;
    }
    recovered = true;
    plans_at_recovery = scenario.recorder().counter("server.plans", endpoint);
    std::printf("[t=%5.0fs] server recovered: %zu dags, scheduling resumes\n",
                scenario.engine().now(),
                tenant.server->warehouse().all_dags().size());
  });

  scenario.engine().schedule_at(minutes(40), "repair-site", [&] {
    std::printf("[t=%5.0fs] ufloridapg repaired\n", scenario.engine().now());
    scenario.grid().find_site("ufloridapg")->recover();
  });

  scenario.run(hours(12));

  std::printf("\noutcome after site failure + server crash:\n");
  std::size_t finished = 0;
  for (const auto& outcome : tenant.client->dag_outcomes()) {
    if (outcome.done()) ++finished;
    std::printf("  %-10s %s\n", outcome.name.c_str(),
                outcome.done()
                    ? format_duration(outcome.completion_time()).c_str()
                    : "(did not finish)");
  }
  const auto count = [&](const char* name, const std::string& source) {
    return static_cast<unsigned long long>(
        scenario.recorder().counter(name, source));
  };
  const std::string& client = tenant.client->config().endpoint;
  std::printf("tracker: %llu timeouts, %llu held/failed observations\n",
              count("tracker.timeouts", client),
              count("tracker.held_or_failed", client));
  if (recovered) {
    std::printf("recovered server: %llu plans sent after recovery\n",
                count("server.plans", endpoint) - plans_at_recovery);
  }
  std::printf("%zu/%zu dags completed -> %s\n", finished,
              tenant.client->dag_outcomes().size(),
              finished == dags.size() ? "fault tolerance worked"
                                      : "SOMETHING IS WRONG");
  return finished == dags.size() ? 0 : 1;
}
