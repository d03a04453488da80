// End-to-end tests for the extension features: output persistence
// (planner step 4), DAG request priorities, soft-state RLI propagation
// and gateway third-party replication.

#include <gtest/gtest.h>

#include "exp/scenario.hpp"
#include "workflow/generator.hpp"

namespace sphinx::exp {
namespace {

ScenarioConfig quiet(std::uint64_t seed = 21) {
  ScenarioConfig config;
  config.seed = seed;
  config.site_failures = false;
  config.background_load = false;
  return config;
}

TEST(OutputPersistence, FinalOutputsArchivedIntermediatesNot) {
  Scenario scenario(quiet());
  const SiteId archive = scenario.grid().find_site("ufloridapg")->id();
  Tenant& tenant = scenario.add_tenant("persist", TenantOptions{});

  // Rebuild the server with a persistent-storage site configured.  The
  // old server must go away first -- its destructor unregisters the bus
  // endpoint the replacement wants.
  core::ServerConfig config = tenant.server->config();
  config.persistent_site = archive;
  tenant.server.reset();
  tenant.server = std::make_unique<core::SphinxServer>(
      scenario.bus(), scenario.catalog(), scenario.rls(),
      scenario.transfers(), &scenario.monitoring(), config);

  // A chain: a -> b -> c.  Only c's output is final.
  workflow::Dag dag(scenario.ids().dags.next(), "persist");
  std::vector<data::Lfn> outputs;
  JobId prev;
  for (int i = 0; i < 3; ++i) {
    workflow::JobSpec job;
    job.id = scenario.ids().jobs.next();
    job.name = "stage" + std::to_string(i);
    job.compute_time = 20.0;
    job.inputs = {i == 0 ? data::Lfn("lfn://persist/seed")
                         : outputs.back()};
    job.output = "lfn://persist/out" + std::to_string(i);
    job.output_bytes = 4e6;
    dag.add_job(job);
    if (i > 0) dag.add_edge(prev, job.id);
    prev = job.id;
    outputs.push_back(job.output);
  }
  scenario.rls().register_replica("lfn://persist/seed", SiteId(1), 1e6);

  scenario.start();
  scenario.engine().schedule_at(1.0, "submit",
                                [&] { tenant.client->submit(dag); });
  scenario.run(hours(6));

  ASSERT_TRUE(tenant.client->all_dags_finished());
  EXPECT_EQ(tenant.client->tracker_stats().persisted_outputs, 1u);
  // Give the archival transfer time to finish (it is asynchronous).
  scenario.engine().run_until(scenario.engine().now() + hours(1));

  const auto final_replicas = scenario.rls().locate(outputs[2]);
  const bool archived = std::any_of(
      final_replicas.begin(), final_replicas.end(),
      [&](const data::Replica& r) { return r.site == archive; });
  EXPECT_TRUE(archived) << "final output missing from persistent storage";
  EXPECT_EQ(final_replicas.size(), 2u);  // execution site + archive

  for (int i = 0; i < 2; ++i) {
    const auto replicas = scenario.rls().locate(outputs[i]);
    for (const auto& r : replicas) {
      EXPECT_NE(r.site, archive) << "intermediate " << outputs[i]
                                 << " was archived";
    }
  }
}

TEST(Priorities, HighPriorityDagPlannedFirst) {
  Scenario scenario(quiet());
  Tenant& tenant = scenario.add_tenant("prio", TenantOptions{});
  workflow::WorkloadConfig workload;
  workload.jobs_per_dag = 8;
  auto generator = scenario.make_generator("w", workload);
  const auto low = generator.generate_batch("low", 4);
  const workflow::Dag urgent = generator.generate("urgent");

  scenario.start();
  // Submit the low-priority batch first, the urgent DAG last -- but with
  // a higher priority, in the same instant.
  scenario.engine().schedule_at(1.0, "submit", [&] {
    for (const auto& dag : low) tenant.client->submit(dag, 0.0);
    tenant.client->submit(urgent, 10.0);
  });
  scenario.run(hours(8));

  ASSERT_TRUE(tenant.client->all_dags_finished());
  // The urgent DAG finished before the average of the low batch.
  const auto& outcomes = tenant.client->dag_outcomes();
  double low_sum = 0;
  double urgent_time = 0;
  for (const auto& o : outcomes) {
    if (o.name == "urgent") {
      urgent_time = o.completion_time();
    } else {
      low_sum += o.completion_time();
    }
  }
  EXPECT_LT(urgent_time, low_sum / 4.0);
  // And its priority is stored in the warehouse.
  EXPECT_DOUBLE_EQ(tenant.server->warehouse().dag(urgent.id())->priority,
                   10.0);
}

TEST(SoftStateRls, IndexLagsLrc) {
  sim::Engine engine;
  data::ReplicaLocationService rls;
  rls.enable_soft_state(engine, 60.0);

  rls.register_replica("lfn://soft/a", SiteId(1), 1e6);
  // The LRC has it immediately; the index does not.
  EXPECT_TRUE(rls.lrc(SiteId(1)).has("lfn://soft/a"));
  EXPECT_FALSE(rls.exists("lfn://soft/a"));
  EXPECT_EQ(rls.pending_updates(), 1u);

  engine.run_until(59.0);
  EXPECT_FALSE(rls.exists("lfn://soft/a"));
  engine.run_until(61.0);
  EXPECT_TRUE(rls.exists("lfn://soft/a"));
  EXPECT_EQ(rls.pending_updates(), 0u);
  EXPECT_EQ(rls.locate("lfn://soft/a").size(), 1u);
}

TEST(SoftStateRls, UnregisteredBeforePropagationNeverAppears) {
  sim::Engine engine;
  data::ReplicaLocationService rls;
  rls.enable_soft_state(engine, 60.0);
  rls.register_replica("lfn://soft/b", SiteId(1), 1e6);
  rls.unregister_replica("lfn://soft/b", SiteId(1));
  engine.run_until(120.0);
  EXPECT_FALSE(rls.exists("lfn://soft/b"));
}

TEST(SoftStateRls, WorkflowStillCompletesWithLaggingIndex) {
  // Children need parent outputs visible in the RLS before they can be
  // planned; a lagging index delays but must not deadlock the DAG.
  Scenario scenario(quiet(33));
  scenario.rls().enable_soft_state(scenario.engine(), 90.0);
  Tenant& tenant = scenario.add_tenant("soft", TenantOptions{});
  workflow::WorkloadConfig workload;
  workload.jobs_per_dag = 6;
  auto generator = scenario.make_generator("w", workload);
  const auto dag = generator.generate("soft");
  scenario.start();
  scenario.engine().schedule_at(1.0, "submit",
                                [&] { tenant.client->submit(dag); });
  scenario.run(hours(8));
  EXPECT_TRUE(tenant.client->all_dags_finished());
}

TEST(GatewayReplicate, CopiesAndRegisters) {
  Scenario scenario(quiet(66));
  Tenant& tenant = scenario.add_tenant("rep", TenantOptions{});
  const SiteId src = scenario.grid().find_site("spider")->id();
  const SiteId dst = scenario.grid().find_site("spike")->id();
  scenario.rls().register_replica("lfn://rep/x", src, 10e6);
  scenario.start();

  bool ok = false;
  scenario.engine().schedule_at(1.0, "replicate", [&] {
    tenant.gateway->replicate("lfn://rep/x", dst,
                              [&ok](bool success) { ok = success; });
  });
  scenario.engine().run_until(hours(1));
  EXPECT_TRUE(ok);
  EXPECT_EQ(scenario.rls().locate("lfn://rep/x").size(), 2u);

  // Replicating to a site that already has it reports false.
  bool second = true;
  tenant.gateway->replicate("lfn://rep/x", dst,
                            [&second](bool success) { second = success; });
  scenario.engine().run_until(scenario.engine().now() + minutes(10));
  EXPECT_FALSE(second);
  // Replicating a nonexistent file reports false.
  bool missing = true;
  tenant.gateway->replicate("lfn://rep/none", dst,
                            [&missing](bool success) { missing = success; });
  scenario.engine().run_until(scenario.engine().now() + minutes(10));
  EXPECT_FALSE(missing);
}

}  // namespace
}  // namespace sphinx::exp
