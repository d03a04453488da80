// End-to-end tests of the SPHINX middleware on the simulated grid:
// submission -> reduction -> planning -> staging -> execution -> feedback
// -> DAG completion, plus fault tolerance (timeouts, replanning) and
// server crash recovery.

#include <gtest/gtest.h>

#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "workflow/generator.hpp"

namespace sphinx::exp {
namespace {

ScenarioConfig quiet_scenario(std::uint64_t seed = 7) {
  ScenarioConfig config;
  config.seed = seed;
  config.site_failures = false;
  config.background_load = false;
  config.monitor.poll_period = minutes(2);
  config.monitor.report_latency = 5.0;
  return config;
}

/// One of a tenant's counts in the scenario's recorder: "tracker.*" counts
/// live under its client's endpoint, the others under its server's.
std::uint64_t count(const Scenario& scenario, const Tenant& tenant,
                    const std::string& name) {
  return scenario.recorder().counter(
      name, name.starts_with("tracker.") ? tenant.client->config().endpoint
                                         : tenant.server->endpoint());
}

workflow::WorkloadConfig small_workload() {
  workflow::WorkloadConfig workload;
  workload.jobs_per_dag = 6;
  return workload;
}

TEST(CoreE2E, SingleDagCompletesOnHealthyGrid) {
  Scenario scenario(quiet_scenario());
  Tenant& tenant = scenario.add_tenant("solo", TenantOptions{});
  auto generator = scenario.make_generator("w", small_workload());
  const workflow::Dag dag = generator.generate("e2e");
  scenario.start();
  scenario.engine().schedule_at(1.0, "submit",
                                [&] { tenant.client->submit(dag); });
  scenario.run(hours(6));

  EXPECT_TRUE(tenant.client->all_dags_finished());
  const auto& outcome = tenant.client->dag_outcomes().front();
  EXPECT_GT(outcome.completion_time(), 60.0);   // at least one compute
  EXPECT_LT(outcome.completion_time(), hours(3));
  EXPECT_EQ(count(scenario, tenant, "tracker.completions"), dag.size());
  EXPECT_EQ(count(scenario, tenant, "tracker.timeouts"), 0u);
  EXPECT_EQ(count(scenario, tenant, "server.plans"), dag.size());
  EXPECT_EQ(count(scenario, tenant, "server.replans"), 0u);

  // Every job's output is now registered in the RLS.
  for (const auto& job : dag.jobs()) {
    EXPECT_FALSE(scenario.rls().locate(job.output).empty()) << job.output;
  }
  // Server-side automaton: DAG finished, all jobs completed.
  const auto record = tenant.server->warehouse().dag(dag.id());
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->state, core::DagState::kFinished);
}

TEST(CoreE2E, JobsWithDependenciesRespectOrdering) {
  Scenario scenario(quiet_scenario());
  Tenant& tenant = scenario.add_tenant("solo", TenantOptions{});
  // A 3-job chain via the VDC-style manual construction.
  workflow::Dag dag(scenario.ids().dags.next(), "chain");
  JobId prev;
  data::Lfn prev_out;
  for (int i = 0; i < 3; ++i) {
    workflow::JobSpec job;
    job.id = scenario.ids().jobs.next();
    job.name = "stage" + std::to_string(i);
    job.compute_time = 30.0;
    job.output = "lfn://chain/out" + std::to_string(i);
    job.output_bytes = 1e6;
    if (i == 0) {
      job.inputs = {"lfn://chain/seed"};
    } else {
      job.inputs = {prev_out};
    }
    dag.add_job(job);
    if (i > 0) dag.add_edge(prev, job.id);
    prev = job.id;
    prev_out = job.output;
  }
  scenario.rls().register_replica("lfn://chain/seed", SiteId(1), 1e6);

  scenario.start();
  scenario.engine().schedule_at(1.0, "submit",
                                [&] { tenant.client->submit(dag); });
  scenario.run(hours(4));
  EXPECT_TRUE(tenant.client->all_dags_finished());
  EXPECT_FALSE(scenario.rls().locate("lfn://chain/out2").empty());
}

TEST(CoreE2E, DagReducerSkipsMaterializedJobs) {
  Scenario scenario(quiet_scenario());
  Tenant& tenant = scenario.add_tenant("solo", TenantOptions{});
  auto generator = scenario.make_generator("w", small_workload());
  const workflow::Dag dag = generator.generate("reduced");
  // Pre-register every output: the whole DAG reduces away.
  for (const auto& job : dag.jobs()) {
    scenario.rls().register_replica(job.output, SiteId(2), job.output_bytes);
  }
  scenario.start();
  scenario.engine().schedule_at(1.0, "submit",
                                [&] { tenant.client->submit(dag); });
  scenario.run(hours(1));

  EXPECT_TRUE(tenant.client->all_dags_finished());
  EXPECT_EQ(count(scenario, tenant, "server.jobs_reduced"), dag.size());
  EXPECT_EQ(count(scenario, tenant, "server.plans"), 0u);
  // DAG completion was nearly instantaneous (no execution happened).
  EXPECT_LT(tenant.client->dag_outcomes().front().completion_time(),
            minutes(2));
}

TEST(CoreE2E, FeedbackRecordsCompletionStats) {
  Scenario scenario(quiet_scenario());
  Tenant& tenant = scenario.add_tenant("solo", TenantOptions{});
  auto generator = scenario.make_generator("w", small_workload());
  const auto dags = generator.generate_batch("fb", 3);
  scenario.start();
  scenario.engine().schedule_at(1.0, "submit", [&] {
    for (const auto& dag : dags) tenant.client->submit(dag);
  });
  scenario.run(hours(6));
  ASSERT_TRUE(tenant.client->all_dags_finished());

  // Some sites must have accumulated completion statistics with sane
  // completion-time EWMAs (> compute time, well under the timeout).
  std::size_t sites_with_data = 0;
  std::int64_t total_completed = 0;
  for (const auto& site : scenario.catalog()) {
    const auto stats = tenant.server->warehouse().site_stats(site.id);
    if (stats.samples > 0) {
      ++sites_with_data;
      EXPECT_GT(stats.avg_completion, 30.0);
      EXPECT_LT(stats.avg_completion, hours(2));
    }
    total_completed += stats.completed;
    EXPECT_EQ(stats.cancelled, 0);
  }
  EXPECT_GT(sites_with_data, 1u);
  EXPECT_EQ(total_completed, 18);  // 3 dags x 6 jobs
}

TEST(CoreE2E, BlackHoleSiteTriggersTimeoutAndReplan) {
  ScenarioConfig config = quiet_scenario();
  Scenario scenario(config);
  // Make ll3 a permanent black hole manually (failures are disabled).
  scenario.grid().find_site("ll3")->become_black_hole();

  TenantOptions options;
  options.algorithm = core::Algorithm::kRoundRobin;  // guaranteed to hit ll3
  options.use_feedback = true;
  options.job_timeout = minutes(10);
  Tenant& tenant = scenario.add_tenant("rr", options);
  auto generator = scenario.make_generator("w", small_workload());
  const auto dags = generator.generate_batch("bh", 4);
  scenario.start();
  scenario.engine().schedule_at(1.0, "submit", [&] {
    for (const auto& dag : dags) tenant.client->submit(dag);
  });
  scenario.run(hours(8));

  EXPECT_TRUE(tenant.client->all_dags_finished());
  EXPECT_GT(count(scenario, tenant, "tracker.timeouts"), 0u);
  EXPECT_GT(count(scenario, tenant, "server.replans"), 0u);
  // The black hole shows up in the feedback stats as cancel-only.
  const SiteId ll3 = scenario.grid().find_site("ll3")->id();
  const auto stats = tenant.server->warehouse().site_stats(ll3);
  EXPECT_GT(stats.cancelled, 0);
  EXPECT_EQ(stats.completed, 0);
  EXPECT_FALSE(stats.reliable());
}

TEST(CoreE2E, FeedbackAvoidsBlackHoleAfterFirstTimeouts) {
  ScenarioConfig config = quiet_scenario();
  Scenario scenario(config);
  scenario.grid().find_site("ll3")->become_black_hole();

  TenantOptions with_fb;
  with_fb.algorithm = core::Algorithm::kRoundRobin;
  with_fb.use_feedback = true;
  with_fb.job_timeout = minutes(10);
  TenantOptions without_fb = with_fb;
  without_fb.use_feedback = false;

  Tenant& fb = scenario.add_tenant("rr-fb", with_fb);
  Tenant& nofb = scenario.add_tenant("rr-nofb", without_fb);
  auto generator_a = scenario.make_generator("w", small_workload());
  auto generator_b = scenario.make_generator("w", small_workload());
  // Wave 1 seeds the feedback statistics (its ll3 jobs time out); wave 2,
  // submitted after those timeouts have been reported, is where the two
  // tenants diverge: the feedback tenant never plans onto ll3 again.
  const auto wave1_a = generator_a.generate_batch("a1", 4);
  const auto wave1_b = generator_b.generate_batch("b1", 4);
  const auto wave2_a = generator_a.generate_batch("a2", 10);
  const auto wave2_b = generator_b.generate_batch("b2", 10);
  scenario.start();
  scenario.engine().schedule_at(1.0, "wave1", [&] {
    for (const auto& dag : wave1_a) fb.client->submit(dag);
    for (const auto& dag : wave1_b) nofb.client->submit(dag);
  });
  scenario.engine().schedule_at(minutes(12), "wave2", [&] {
    for (const auto& dag : wave2_a) fb.client->submit(dag);
    for (const auto& dag : wave2_b) nofb.client->submit(dag);
  });
  scenario.run(hours(12));

  ASSERT_TRUE(fb.client->all_dags_finished());
  ASSERT_TRUE(nofb.client->all_dags_finished());
  // Feedback caps the damage: the black hole is abandoned after the first
  // timeouts, while the no-feedback tenant keeps feeding it.
  const SiteId ll3 = scenario.grid().find_site("ll3")->id();
  const auto fb_ll3 = fb.server->warehouse().site_stats(ll3);
  const auto nofb_ll3 = nofb.server->warehouse().site_stats(ll3);
  EXPECT_LT(fb_ll3.cancelled, nofb_ll3.cancelled);
  EXPECT_LE(count(scenario, fb, "tracker.timeouts"),
            count(scenario, nofb, "tracker.timeouts"));
  // And the DAGs finish no later on average.
  EXPECT_LE(fb.client->avg_dag_completion(),
            nofb.client->avg_dag_completion());
}

TEST(CoreE2E, PolicyQuotasRestrictSites) {
  Scenario scenario(quiet_scenario());
  TenantOptions options;
  options.use_policy = true;
  options.algorithm = core::Algorithm::kNumCpus;
  Tenant& tenant = scenario.add_tenant("quota", options);
  auto generator = scenario.make_generator("w", small_workload());
  const workflow::Dag dag = generator.generate("q");

  // Give quota on exactly one site; everything must run there.
  const UserId user = tenant.client->config().user;
  const SiteId allowed = scenario.grid().find_site("ufloridapg")->id();
  for (const auto& site : scenario.catalog()) {
    tenant.server->set_quota(user, site.id, "cpu_seconds",
                             site.id == allowed ? 1e9 : 0.0);
  }
  scenario.start();
  scenario.engine().schedule_at(1.0, "submit",
                                [&] { tenant.client->submit(dag); });
  scenario.run(hours(6));

  ASSERT_TRUE(tenant.client->all_dags_finished());
  EXPECT_GT(count(scenario, tenant, "server.policy_rejections"), 0u);
  for (const auto& job : dag.jobs()) {
    const auto record = tenant.server->warehouse().job(job.id);
    ASSERT_TRUE(record.has_value());
    EXPECT_EQ(record->site, allowed);
  }
  // Quota was consumed.
  EXPECT_LT(tenant.server->warehouse().quota_remaining(user, allowed,
                                                       "cpu_seconds"),
            1e9);
}

TEST(CoreE2E, ServerRecoversFromCrashMidRun) {
  Scenario scenario(quiet_scenario());
  Tenant& tenant = scenario.add_tenant("crashy", TenantOptions{});
  auto generator = scenario.make_generator("w", small_workload());
  const auto dags = generator.generate_batch("crash", 3);
  scenario.start();
  scenario.engine().schedule_at(1.0, "submit", [&] {
    for (const auto& dag : dags) tenant.client->submit(dag);
  });

  // Let some work happen, then "crash" the server and rebuild it from its
  // last image and journal, transparently to the client.
  std::unique_ptr<core::SphinxServer> recovered;
  scenario.engine().schedule_at(150.0, "crash", [&] {
    const db::Journal journal = tenant.server->warehouse().journal();
    const auto image = tenant.server->warehouse().checkpoint_image();
    const auto catalog = scenario.catalog();
    const core::ServerConfig config = tenant.server->config();
    tenant.server.reset();  // kaboom: endpoint unregisters, control stops
    auto result = core::SphinxServer::recover(
        scenario.bus(), catalog, scenario.rls(), scenario.transfers(),
        &scenario.monitoring(), config, journal, image);
    ASSERT_TRUE(result.has_value()) << result.error().to_string();
    recovered = std::move(*result);
    recovered->start();
  });
  scenario.run(hours(8));

  EXPECT_TRUE(tenant.client->all_dags_finished());
  ASSERT_NE(recovered, nullptr);
  const auto record = recovered->warehouse().dag(dags[0].id());
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->state, core::DagState::kFinished);
}

TEST(CoreE2E, ConcurrentTenantsShareTheGrid) {
  Scenario scenario(quiet_scenario());
  TenantOptions options;
  Tenant& a = scenario.add_tenant("a", options);
  Tenant& b = scenario.add_tenant("b", options);
  auto generator_a = scenario.make_generator("shared", small_workload());
  auto generator_b = scenario.make_generator("shared", small_workload());
  const auto dags_a = generator_a.generate_batch("a", 3);
  const auto dags_b = generator_b.generate_batch("b", 3);
  // Identical structure, distinct ids.
  ASSERT_EQ(dags_a[0].size(), dags_b[0].size());
  ASSERT_NE(dags_a[0].id(), dags_b[0].id());

  scenario.start();
  scenario.engine().schedule_at(1.0, "submit", [&] {
    for (const auto& dag : dags_a) a.client->submit(dag);
    for (const auto& dag : dags_b) b.client->submit(dag);
  });
  scenario.run(hours(8));
  EXPECT_TRUE(a.client->all_dags_finished());
  EXPECT_TRUE(b.client->all_dags_finished());
}

TEST(ExperimentRunner, SmallPanelProducesMetrics) {
  ExperimentConfig config;
  config.scenario = quiet_scenario(3);
  config.workload = small_workload();
  config.dag_count = 3;
  config.horizon = hours(12);
  Experiment experiment(config);
  const auto results = experiment.run(standard_panel());
  ASSERT_EQ(results.size(), 4u);
  for (const auto& r : results) {
    EXPECT_EQ(r.dags_finished, 3u) << r.label;
    EXPECT_GT(r.avg_dag_completion, 0.0) << r.label;
    EXPECT_GT(r.avg_job_execution, 0.0) << r.label;
    EXPECT_GE(r.avg_job_idle, 0.0) << r.label;
    EXPECT_EQ(r.per_site.size(), 15u);
  }
  EXPECT_LT(experiment.stopped_at(), hours(12));
}

TEST(Scenario, CatalogMatchesGrid) {
  Scenario scenario(quiet_scenario());
  const auto catalog = scenario.catalog();
  ASSERT_EQ(catalog.size(), 15u);
  EXPECT_EQ(scenario.grid().size(), 15u);
  int total = 0;
  for (const auto& site : catalog) {
    EXPECT_EQ(scenario.grid().site(site.id).name(), site.name);
    total += site.cpus;
  }
  EXPECT_EQ(total, scenario.grid().total_cpus());
  EXPECT_GT(total, 500);
}

}  // namespace
}  // namespace sphinx::exp
