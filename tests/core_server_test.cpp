// Protocol-level tests of the SPHINX server and client: authorization,
// malformed payloads, report edge cases and recovery of in-flight work.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "chaos/oracle.hpp"
#include "exp/scenario.hpp"
#include "workflow/generator.hpp"

namespace sphinx::exp {
namespace {

ScenarioConfig quiet(std::uint64_t seed = 61) {
  ScenarioConfig config;
  config.seed = seed;
  config.site_failures = false;
  config.background_load = false;
  return config;
}

/// A raw Clarens client with an arbitrary proxy for poking the server.
class RawCaller {
 public:
  RawCaller(Scenario& scenario, rpc::Proxy proxy)
      : client_(scenario.bus(), "raw-caller", std::move(proxy)),
        engine_(scenario.engine()) {}

  /// Synchronous-style call: runs the engine until the response arrives.
  Expected<rpc::XrValue> call(const std::string& service,
                              const std::string& method,
                              std::vector<rpc::XrValue> params) {
    std::optional<Expected<rpc::XrValue>> result;
    client_.call(service, method, std::move(params),
                 [&result](Expected<rpc::XrValue> r) {
                   result = std::move(r);
                 });
    while (!result.has_value() && engine_.step()) {
    }
    SPHINX_ASSERT(result.has_value(), "no response received");
    return std::move(*result);
  }

 private:
  rpc::ClarensClient client_;
  sim::Engine& engine_;
};

rpc::Proxy vo_proxy(const std::string& vo) {
  return rpc::Proxy(rpc::Identity{"/CN=raw", "/CN=CA"}, vo, {}, 0.0,
                    hours(24));
}

TEST(ServerProtocol, RejectsUnknownVo) {
  Scenario scenario(quiet());
  scenario.add_tenant("t", TenantOptions{});
  RawCaller caller(scenario, vo_proxy("intruders"));
  const auto result =
      caller.call("sphinx-server/t", "sphinx.report", {rpc::XrValue(1)});
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error().code, "fault:3");  // authorization denied
}

TEST(ServerProtocol, RejectsMalformedSubmit) {
  Scenario scenario(quiet());
  scenario.add_tenant("t", TenantOptions{});
  RawCaller caller(scenario, vo_proxy("uscms"));
  // Wrong arity.
  auto r = caller.call("sphinx-server/t", "sphinx.submit_dag",
                       {rpc::XrValue("client")});
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().code, "fault:100");
  // Garbage dag payload.
  r = caller.call("sphinx-server/t", "sphinx.submit_dag",
                  {rpc::XrValue("client"), rpc::XrValue(1),
                   rpc::XrValue("not a dag")});
  ASSERT_FALSE(r.has_value());
  // Non-numeric priority.
  workflow::Dag dag(DagId(1), "x");
  workflow::JobSpec job;
  job.id = JobId(1);
  job.name = "j";
  job.output = "lfn://x";
  dag.add_job(job);
  r = caller.call("sphinx-server/t", "sphinx.submit_dag",
                  {rpc::XrValue("client"), rpc::XrValue(1),
                   core::encode_dag(dag), rpc::XrValue("high")});
  ASSERT_FALSE(r.has_value());
}

TEST(ServerProtocol, ReportForUnknownJobFaults) {
  Scenario scenario(quiet());
  scenario.add_tenant("t", TenantOptions{});
  RawCaller caller(scenario, vo_proxy("uscms"));
  core::TrackerReport report;
  report.job = JobId(999999);
  report.kind = core::ReportKind::kCompleted;
  report.site = SiteId(1);
  const auto r = caller.call("sphinx-server/t", "sphinx.report",
                             {core::encode_report(report)});
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().code, "fault:100");
}

TEST(ServerProtocol, SetQuotaOverRpc) {
  Scenario scenario(quiet());
  Tenant& tenant = scenario.add_tenant("t", TenantOptions{});
  RawCaller caller(scenario, vo_proxy("uscms"));
  const auto r = caller.call(
      "sphinx-server/t", "sphinx.set_quota",
      {rpc::XrValue(7), rpc::XrValue(3), rpc::XrValue("cpu_seconds"),
       rpc::XrValue(1234.5)});
  ASSERT_TRUE(r.has_value());
  EXPECT_DOUBLE_EQ(tenant.server->warehouse().quota_remaining(
                       UserId(7), SiteId(3), "cpu_seconds"),
                   1234.5);
}

TEST(ServerProtocol, SetQuotaRejectsNonNumericLimit) {
  Scenario scenario(quiet());
  scenario.add_tenant("t", TenantOptions{});
  RawCaller caller(scenario, vo_proxy("uscms"));
  const auto r = caller.call(
      "sphinx-server/t", "sphinx.set_quota",
      {rpc::XrValue(7), rpc::XrValue(3), rpc::XrValue("cpu_seconds"),
       rpc::XrValue("lots")});
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().code, "fault:100");
}

TEST(ServerProtocol, SubmitReturnsDagIdAndStoresPriority) {
  Scenario scenario(quiet());
  Tenant& tenant = scenario.add_tenant("t", TenantOptions{});
  RawCaller caller(scenario, vo_proxy("uscms"));
  workflow::Dag dag(DagId(77), "raw-dag");
  workflow::JobSpec job;
  job.id = JobId(770);
  job.name = "j";
  job.inputs = {"lfn://in"};
  job.output = "lfn://raw-out";
  dag.add_job(job);
  const auto r = caller.call("sphinx-server/t", "sphinx.submit_dag",
                             {rpc::XrValue("raw-caller"), rpc::XrValue(5),
                              core::encode_dag(dag), rpc::XrValue(3.5)});
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->as_int(), 77);
  const auto record = tenant.server->warehouse().dag(DagId(77));
  ASSERT_TRUE(record.has_value());
  EXPECT_DOUBLE_EQ(record->priority, 3.5);
  EXPECT_EQ(record->user, UserId(5));
  EXPECT_EQ(record->client, "raw-caller");
}

TEST(ServerProtocol, StoppedServerPlansNothing) {
  Scenario scenario(quiet());
  Tenant& tenant = scenario.add_tenant("t", TenantOptions{});
  auto generator =
      scenario.make_generator("w", workflow::WorkloadConfig{});
  const auto dag = generator.generate("stopped");
  scenario.start();
  tenant.server->stop();  // control process halted; endpoint still up
  scenario.engine().schedule_at(1.0, "submit",
                                [&] { tenant.client->submit(dag); });
  scenario.engine().run_until(minutes(30));
  // The DAG was received but never planned.
  EXPECT_EQ(tenant.server->stats().dags_received, 1u);
  EXPECT_EQ(tenant.server->stats().plans_sent, 0u);
  // Restart: scheduling resumes where it left off.
  tenant.server->start();
  scenario.run(hours(6));
  EXPECT_TRUE(tenant.client->all_dags_finished());
}

TEST(ServerProtocol, RecoveredServerKeepsQuotaState) {
  Scenario scenario(quiet());
  Tenant& tenant = scenario.add_tenant("t", TenantOptions{});
  tenant.server->set_quota(UserId(1), SiteId(2), "cpu_seconds", 500.0);
  tenant.server->warehouse().consume_quota(UserId(1), SiteId(2),
                                           "cpu_seconds", 100.0);
  const db::Journal journal = tenant.server->warehouse().journal();
  auto recovered = core::SphinxServer::recover(
      scenario.bus(), scenario.catalog(), scenario.rls(),
      scenario.transfers(), &scenario.monitoring(),
      [] {
        core::ServerConfig c;
        c.endpoint = "recovered";
        return c;
      }(),
      journal);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_DOUBLE_EQ((*recovered)
                       ->warehouse()
                       .quota_remaining(UserId(1), SiteId(2), "cpu_seconds"),
                   400.0);
}

TEST(ServerProtocol, RecoverFromCorruptJournalFails) {
  Scenario scenario(quiet());
  db::Journal junk;
  db::JournalEntry entry;
  entry.op = db::JournalEntry::Op::kInsert;
  entry.table = "never-created";
  entry.row = 1;
  junk.append(entry);
  const auto result = core::SphinxServer::recover(
      scenario.bus(), scenario.catalog(), scenario.rls(),
      scenario.transfers(), &scenario.monitoring(),
      [] {
        core::ServerConfig c;
        c.endpoint = "broken";
        return c;
      }(),
      junk);
  EXPECT_FALSE(result.has_value());
}

TEST(ServerProtocol, MidRunRecoveryRebuildsWorkState) {
  // Kill a server mid-run, while DAGs are still planning, and rebuild it
  // from nothing but the journal: the derived work state (dirty queue,
  // outstanding counters) must come back exactly as the crashed instance
  // held it.
  Scenario scenario(quiet(17));
  Tenant& tenant = scenario.add_tenant("t", TenantOptions{});
  auto generator = scenario.make_generator("w", workflow::WorkloadConfig{});
  scenario.start();
  for (int i = 0; i < 6; ++i) {
    const auto dag = generator.generate("mid-" + std::to_string(i));
    scenario.engine().schedule_at(
        minutes(i), "submit", [&tenant, dag] { tenant.client->submit(dag); });
  }
  scenario.engine().run_until(300.0);
  tenant.server->stop();  // crash point: the journal is all that survives
  const core::DataWarehouse& live = tenant.server->warehouse();

  const auto recovered = core::DataWarehouse::recover_from(live.journal());
  ASSERT_TRUE(recovered.has_value());
  const core::DataWarehouse& r = **recovered;
  // Five DAGs arrived; the sixth, submitted at 300 s, is still on the wire.
  EXPECT_EQ(r.all_dags().size(), 5u);

  // The kill lands mid-run: some unfinished DAG holds an unplanned job
  // still waiting on a parent, the work the sweep leaves off the queue.
  bool parent_blocked = false;
  for (const auto& dag : r.all_dags()) {
    if (dag.state == core::DagState::kFinished) continue;
    const auto ready = r.ready_jobs(dag.id);
    for (const auto& job : r.jobs_of_dag(dag.id)) {
      parent_blocked |=
          job.state == core::JobState::kUnplanned &&
          std::none_of(ready.begin(), ready.end(),
                       [&](const auto& j) { return j.id == job.id; });
    }
  }
  EXPECT_TRUE(parent_blocked);

  // Counters: rebuilt map == scan of the recovered tables == scan of the
  // crashed instance's tables (the journal lost nothing).
  EXPECT_EQ(r.outstanding_by_site(), r.scan_outstanding_by_site());
  EXPECT_EQ(r.outstanding_by_site(), live.scan_outstanding_by_site());

  // Work queue: what the crashed instance's next drain would yield...
  EXPECT_EQ(r.dirty_dags(), live.dirty_dags());
  // ...which a from-scratch scan derives from the readiness rule:
  // received/reduced DAGs, and planning DAGs holding a ready job.
  std::vector<DagId> expected;
  for (const auto& dag : r.all_dags()) {
    const bool pending = dag.state == core::DagState::kReceived ||
                         dag.state == core::DagState::kReduced ||
                         (dag.state == core::DagState::kPlanning &&
                          !r.ready_jobs(dag.id).empty());
    if (pending) expected.push_back(dag.id);
  }
  EXPECT_EQ(r.dirty_dags(), expected);
  r.check_invariants();
}

// --- readiness-driven sweeps -------------------------------------------------

/// A two-job chain with no external inputs: the child is ready exactly
/// when its parent completes.
workflow::Dag chain_dag(std::uint64_t id) {
  workflow::Dag dag(DagId(id), "chain-" + std::to_string(id));
  workflow::JobSpec parent;
  parent.id = JobId(id * 10 + 1);
  parent.name = "parent";
  parent.compute_time = 60.0;
  parent.output = "lfn://chain/" + std::to_string(id) + "/mid";
  workflow::JobSpec child = parent;
  child.id = JobId(id * 10 + 2);
  child.name = "child";
  child.output = "lfn://chain/" + std::to_string(id) + "/out";
  dag.add_job(parent);
  dag.add_job(child);
  dag.add_edge(parent.id, child.id);
  return dag;
}

TEST(ServerSweep, ParentBlockedDagLeavesTheQueue) {
  // A planning DAG whose only unplanned job waits on a planned parent has
  // no pending work: the next sweep drops it from the queue unswept.
  // The parent's completion readies the child, and that sweep plans it.
  Scenario scenario(quiet());
  Tenant& tenant = scenario.add_tenant("t", TenantOptions{});
  core::DataWarehouse& wh = tenant.server->warehouse();
  wh.insert_dag(chain_dag(5), "sphinx-client/t", UserId(1), 0.0);
  wh.set_dag_state(DagId(5), core::DagState::kPlanning);
  wh.set_job_planned(JobId(51), SiteId(1), 0.0);
  EXPECT_TRUE(wh.dirty_dags().empty());

  tenant.server->sweep();
  EXPECT_TRUE(wh.dirty_dags().empty());
  tenant.server->sweep();
  EXPECT_TRUE(wh.dirty_dags().empty());
  EXPECT_EQ(tenant.server->stats().plans_sent, 0u);
  const auto idle = core::DataWarehouse::recover_from(wh.journal());
  ASSERT_TRUE(idle.has_value());
  EXPECT_TRUE((*idle)->dirty_dags().empty());

  wh.set_job_state(JobId(51), core::JobState::kCompleted);
  EXPECT_EQ(wh.dirty_dags(), std::vector<DagId>{DagId(5)});
  tenant.server->sweep();
  EXPECT_EQ(wh.job(JobId(52))->state, core::JobState::kPlanned);
  EXPECT_EQ(tenant.server->stats().plans_sent, 1u);
  EXPECT_TRUE(wh.dirty_dags().empty());
}

TEST(ServerSweep, UnplaceableReadyJobStaysQueuedAcrossRecovery) {
  // A ready job whose input has no replica is retried every sweep: the
  // planner cannot place it, so the server re-marks its DAG.  That
  // re-mark leaves no journal record; recovery re-queues the DAG from
  // its ready set.
  Scenario scenario(quiet());
  Tenant& tenant = scenario.add_tenant("t", TenantOptions{});
  core::DataWarehouse& wh = tenant.server->warehouse();
  workflow::Dag dag(DagId(6), "unplaceable");
  workflow::JobSpec job;
  job.id = JobId(61);
  job.name = "j";
  job.inputs = {"lfn://nowhere"};
  job.output = "lfn://unplaceable.out";
  dag.add_job(job);
  wh.insert_dag(dag, "sphinx-client/t", UserId(1), 0.0);
  wh.set_dag_state(DagId(6), core::DagState::kPlanning);

  for (int sweep = 0; sweep < 3; ++sweep) {
    tenant.server->sweep();
    EXPECT_EQ(wh.dirty_dags(), std::vector<DagId>{DagId(6)});
  }
  EXPECT_EQ(tenant.server->stats().plans_sent, 0u);
  const auto recovered = core::DataWarehouse::recover_from(wh.journal());
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ((*recovered)->dirty_dags(), wh.dirty_dags());
}

TEST(ClientProtocol, TimeoutRearmsFromObservationWithFreshBudgetOnReplan) {
  // Regression coverage for two tracker properties:
  //  1. Extension checks are rearmed one full period after *each*
  //     observation, so a progressing job is checked at t0+J, t0+2J, ...
  //     and hard-killed at t0+4J (J = job_timeout, 3 extensions).
  //  2. A replanned job starts with a fresh extensions budget and the
  //     dead attempt's entry is dropped (tracked_jobs() never grows).
  Scenario scenario(quiet());
  TenantOptions options;
  options.job_timeout = minutes(20);  // J = 1200 s
  Tenant& tenant = scenario.add_tenant("t", options);

  // One job that runs "forever": visibly progressing on a healthy site,
  // so every timeout check grants an extension until the budget is gone.
  workflow::Dag dag(DagId(1), "stuck");
  workflow::JobSpec job;
  job.id = JobId(1);
  job.name = "stuck-job";
  job.output = "lfn://stuck.out";
  job.compute_time = hours(200);
  dag.add_job(job);

  scenario.start();
  scenario.engine().schedule_at(1.0, "submit",
                                [&] { tenant.client->submit(dag); });
  const double J = minutes(20);
  const auto& stats = tenant.client->tracker_stats();

  // t = 3.5J: checks at ~J, ~2J, ~3J after submission each extended.
  scenario.run(3.5 * J);
  EXPECT_EQ(stats.extensions, 3u);
  EXPECT_EQ(stats.timeouts, 0u);
  EXPECT_EQ(tenant.client->tracked_jobs(), 1u);

  // t = 4.5J: the fourth check found the budget exhausted -> hard kill,
  // cancellation reported, server replanned; the replacement attempt is
  // tracked with a *fresh* budget (no extension due yet).
  scenario.run(4.5 * J);
  EXPECT_EQ(stats.timeouts, 1u);
  EXPECT_EQ(stats.extensions, 3u);
  EXPECT_EQ(tenant.client->tracked_jobs(), 1u);
  EXPECT_EQ(tenant.server->stats().replans, 1u);

  // t = 9.5J: attempt 2 burned its own 3 extensions before its kill at
  // ~8J; if the old attempt's used-up budget leaked into the new entry,
  // the second timeout would have come 3J earlier with no extensions.
  scenario.run(9.5 * J);
  EXPECT_EQ(stats.timeouts, 2u);
  EXPECT_GE(stats.extensions, 6u);
  EXPECT_EQ(tenant.client->tracked_jobs(), 1u);  // dead entries dropped

  // The flight recorder saw the same story under this client's endpoint.
  const auto& recorder = scenario.recorder();
  EXPECT_EQ(recorder.counter("tracker.timeouts", "sphinx-client/t"), 2u);
  EXPECT_EQ(recorder.counter("tracker.extensions", "sphinx-client/t"),
            stats.extensions);
}

TEST(ClientProtocol, RejectsBogusPlans) {
  Scenario scenario(quiet());
  Tenant& tenant = scenario.add_tenant("t", TenantOptions{});
  (void)tenant;
  RawCaller caller(scenario,
                   rpc::Proxy(rpc::Identity{"/CN=server", "/CN=CA"}, "ivdgl",
                              {}, 0.0, hours(24)));
  // Not a plan at all.
  auto r = caller.call("sphinx-client/t", "sphinx_client.execute_plan",
                       {rpc::XrValue("junk")});
  EXPECT_FALSE(r.has_value());
  // dag_done for a dag this client never submitted.
  r = caller.call("sphinx-client/t", "sphinx_client.dag_done",
                  {rpc::XrValue(424242), rpc::XrValue(1.0)});
  EXPECT_FALSE(r.has_value());
}

// --- checkpoint-timer edges across failover ---------------------------------

std::vector<SimTime> checkpoint_times(const Scenario& scenario) {
  std::vector<SimTime> times;
  for (const obs::TraceEvent& e : scenario.recorder().trace().events()) {
    if (e.kind == obs::TraceKind::kCheckpoint) times.push_back(e.at);
  }
  return times;
}

TEST(ServerCheckpoint, PeriodFiresExactlyOnTheSweepBoundary) {
  // checkpoint_period = 2 sweeps: the deciding sweep lands at *exactly*
  // last_checkpoint_at_ + period.  The trigger is `now >= last + period`;
  // a strict `>` would slip every period checkpoint one sweep late.
  Scenario scenario(quiet());
  TenantOptions options;
  options.checkpoint_period = 10.0;  // sweep_period is 5.0
  Tenant& tenant = scenario.add_tenant("t", options);
  auto generator = scenario.make_generator("w", workflow::WorkloadConfig{});
  const auto dag = generator.generate("boundary");
  scenario.start();
  scenario.engine().schedule_at(1.0, "submit",
                                [&tenant, dag] { tenant.client->submit(dag); });
  scenario.engine().run_until(minutes(1));

  const std::vector<SimTime> times = checkpoint_times(scenario);
  ASSERT_GE(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 10.0);
  for (std::size_t i = 0; i < times.size(); ++i) {
    // Every checkpoint lands on a period boundary, never a sweep late.
    EXPECT_DOUBLE_EQ(times[i], 10.0 + 10.0 * static_cast<double>(i));
  }
}

TEST(ServerCheckpoint, AdoptedShardKeepsPeriodCheckpointsInLockstep) {
  // An adopted shard re-derives last_checkpoint_at_/last_checkpoint_seq_
  // from the carried CheckpointImage (src/core/server.cpp), so its
  // post-adoption period checkpoints fire at exactly the times the
  // uncrashed baseline's do -- pinned by byte-diffing the terminal
  // journal and the chaos-stripped trace.
  auto run = [](bool crash) {
    auto scenario = std::make_unique<Scenario>(quiet(23));
    TenantOptions options;
    options.checkpoint_period = 10.0;
    Tenant& tenant = scenario->add_tenant("t", options);
    auto generator =
        scenario->make_generator("w", workflow::WorkloadConfig{});
    scenario->start();
    for (int i = 0; i < 4; ++i) {
      const auto dag = generator.generate("lockstep-" + std::to_string(i));
      scenario->engine().schedule_at(
          minutes(i), "submit", [&tenant, dag] { tenant.client->submit(dag); });
    }
    if (crash) {
      // Mid-period kill (not on a sweep boundary), well after the first
      // images published: the recovered cursors come from a real image.
      scenario->engine().schedule_at(97.0, "crash", [&scenario] {
        scenario->crash_server(0);
        ASSERT_TRUE(scenario->recover_server(0).ok());
      });
    }
    scenario->engine().run_until(minutes(30));
    return scenario;
  };

  const auto baseline = run(false);
  const auto adopted = run(true);
  const std::vector<SimTime> baseline_times = checkpoint_times(*baseline);
  ASSERT_GE(baseline_times.size(), 3u);
  EXPECT_EQ(checkpoint_times(*adopted), baseline_times);
  EXPECT_EQ(adopted->tenants()[0].server->warehouse().journal().serialize(),
            baseline->tenants()[0].server->warehouse().journal().serialize());
  EXPECT_EQ(
      chaos::strip_chaos_events(adopted->recorder().trace().to_jsonl()),
      chaos::strip_chaos_events(baseline->recorder().trace().to_jsonl()));
}

}  // namespace
}  // namespace sphinx::exp
