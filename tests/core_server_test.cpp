// Protocol-level tests of the SPHINX server and client: authorization,
// malformed payloads, report edge cases and recovery of in-flight work.

#include <gtest/gtest.h>

#include <algorithm>
#include <exception>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "chaos/oracle.hpp"
#include "exp/scenario.hpp"
#include "wire_reference.hpp"
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
  Expected<tree::XrValue> call(const std::string& service,
                              const std::string& method,
                              std::vector<tree::XrValue> params) {
    std::optional<Expected<tree::XrValue>> result;
    client_.call(service, tree::call_bytes(method, std::move(params)),
                 &tree::any_reply, [&result](Expected<tree::XrValue> r) {
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

/// One of a tenant's counts in the scenario's recorder: "tracker.*" counts
/// live under its client's endpoint, the others under its server's.
std::uint64_t count(const Scenario& scenario, const Tenant& tenant,
                    const std::string& name) {
  return scenario.recorder().counter(
      name, name.starts_with("tracker.") ? tenant.client->config().endpoint
                                         : tenant.server->endpoint());
}

rpc::Proxy vo_proxy(const std::string& vo) {
  return rpc::Proxy(rpc::Identity{"/CN=raw"}, vo, {}, 0.0,
                    hours(24));
}

TEST(ServerProtocol, RejectsUnknownVo) {
  Scenario scenario(quiet());
  scenario.add_tenant("t", TenantOptions{});
  RawCaller caller(scenario, vo_proxy("intruders"));
  const auto result =
      caller.call("sphinx-server/t", "sphinx.report", {tree::XrValue(1)});
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error().code, "fault:3");  // authorization denied
}

TEST(ServerProtocol, RejectsMalformedSubmit) {
  Scenario scenario(quiet());
  scenario.add_tenant("t", TenantOptions{});
  RawCaller caller(scenario, vo_proxy("uscms"));
  // Wrong arity.
  auto r = caller.call("sphinx-server/t", "sphinx.submit_dag",
                       {tree::XrValue("client")});
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().code, "fault:100");
  // Garbage dag payload.
  r = caller.call("sphinx-server/t", "sphinx.submit_dag",
                  {tree::XrValue("client"), tree::XrValue(1),
                   tree::XrValue("not a dag")});
  ASSERT_FALSE(r.has_value());
  // Non-numeric priority.
  workflow::Dag dag(DagId(1), "x");
  workflow::JobSpec job;
  job.id = JobId(1);
  job.name = "j";
  job.output = "lfn://x";
  dag.add_job(job);
  r = caller.call("sphinx-server/t", "sphinx.submit_dag",
                  {tree::XrValue("client"), tree::XrValue(1),
                   tree::encode_dag(dag), tree::XrValue("high")});
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
  report.attempt = 1;
  const auto r = caller.call("sphinx-server/t", "sphinx.report",
                             {tree::encode_report(report)});
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
                             {tree::XrValue("raw-caller"), tree::XrValue(5),
                              tree::encode_dag(dag), tree::XrValue(3.5)});
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
  EXPECT_EQ(count(scenario, tenant, "server.dags_received"), 1u);
  EXPECT_EQ(count(scenario, tenant, "server.plans"), 0u);
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
  const core::DataWarehouse& crashed = tenant.server->warehouse();
  auto recovered = core::SphinxServer::recover(
      scenario.bus(), scenario.catalog(), scenario.rls(),
      scenario.transfers(), &scenario.monitoring(),
      [] {
        core::ServerConfig c;
        c.endpoint = "recovered";
        return c;
      }(),
      crashed.journal(), crashed.checkpoint_image());
  ASSERT_TRUE(recovered.has_value());
  EXPECT_DOUBLE_EQ((*recovered)
                       ->warehouse()
                       .quota_remaining(UserId(1), SiteId(2), "cpu_seconds"),
                   400.0);
}

TEST(ServerProtocol, RecoverFromCorruptJournalFails) {
  Scenario scenario(quiet());
  db::Journal junk;
  junk.append_erase("never-created", 1);
  const auto result = core::SphinxServer::recover(
      scenario.bus(), scenario.catalog(), scenario.rls(),
      scenario.transfers(), &scenario.monitoring(),
      [] {
        core::ServerConfig c;
        c.endpoint = "broken";
        return c;
      }(),
      junk, std::nullopt);
  EXPECT_FALSE(result.has_value());
}

TEST(ServerProtocol, MidRunRecoveryRebuildsWorkState) {
  // Kill a server mid-run, while DAGs are still planning, and rebuild it
  // from nothing but its last image and journal: the derived work state
  // (dirty queue, outstanding counters) must come back exactly as the
  // crashed instance held it.
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
  tenant.server->stop();  // crash point: image and journal survive
  const core::DataWarehouse& live = tenant.server->warehouse();

  const auto recovered =
      core::DataWarehouse::recover_from(live.journal(), live.checkpoint_image());
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
  EXPECT_EQ(count(scenario, tenant, "server.plans"), 0u);
  const auto idle =
      core::DataWarehouse::recover_from(wh.journal(), wh.checkpoint_image());
  ASSERT_TRUE(idle.has_value());
  EXPECT_TRUE((*idle)->dirty_dags().empty());

  wh.set_job_state(JobId(51), core::JobState::kCompleted);
  EXPECT_EQ(wh.dirty_dags(), std::vector<DagId>{DagId(5)});
  tenant.server->sweep();
  EXPECT_EQ(wh.job(JobId(52))->state, core::JobState::kPlanned);
  EXPECT_EQ(count(scenario, tenant, "server.plans"), 1u);
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
  EXPECT_EQ(count(scenario, tenant, "server.plans"), 0u);
  const auto recovered =
      core::DataWarehouse::recover_from(wh.journal(), wh.checkpoint_image());
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
  const auto extensions = [&] {
    return count(scenario, tenant, "tracker.extensions");
  };
  const auto timeouts = [&] {
    return count(scenario, tenant, "tracker.timeouts");
  };

  // t = 3.5J: checks at ~J, ~2J, ~3J after submission each extended.
  scenario.run(3.5 * J);
  EXPECT_EQ(extensions(), 3u);
  EXPECT_EQ(timeouts(), 0u);
  EXPECT_EQ(tenant.client->tracked_jobs(), 1u);

  // t = 4.5J: the fourth check found the budget exhausted -> hard kill,
  // cancellation reported, server replanned; the replacement attempt is
  // tracked with a *fresh* budget (no extension due yet).
  scenario.run(4.5 * J);
  EXPECT_EQ(timeouts(), 1u);
  EXPECT_EQ(extensions(), 3u);
  EXPECT_EQ(tenant.client->tracked_jobs(), 1u);
  EXPECT_EQ(count(scenario, tenant, "server.replans"), 1u);

  // t = 9.5J: attempt 2 burned its own 3 extensions before its kill at
  // ~8J; if the old attempt's used-up budget leaked into the new entry,
  // the second timeout would have come 3J earlier with no extensions.
  scenario.run(9.5 * J);
  EXPECT_EQ(timeouts(), 2u);
  EXPECT_GE(extensions(), 6u);
  EXPECT_EQ(tenant.client->tracked_jobs(), 1u);  // dead entries dropped
}

TEST(ClientProtocol, CancelAttemptRejectsOutOfRangeAttempts) {
  // A race-loser cancel names (job, attempt).  An attempt outside
  // [1, INT_MAX] names no attempt at all; truncating 4294967297 to int
  // would cancel the live first attempt instead.
  Scenario scenario(quiet());
  Tenant& tenant = scenario.add_tenant("t", TenantOptions{});
  auto generator = scenario.make_generator("w", workflow::WorkloadConfig{});
  const auto dag = generator.generate("cancel");
  scenario.start();
  scenario.engine().schedule_at(1.0, "submit",
                                [&tenant, dag] { tenant.client->submit(dag); });
  scenario.engine().run_until(minutes(2));
  std::vector<core::JobRecord> live =
      tenant.server->warehouse().jobs_in_state(core::JobState::kRunning);
  for (const core::JobRecord& job :
       tenant.server->warehouse().jobs_in_state(core::JobState::kSubmitted)) {
    live.push_back(job);
  }
  ASSERT_FALSE(live.empty());
  ASSERT_EQ(live.front().attempt, 1);

  RawCaller caller(scenario,
                   rpc::Proxy(rpc::Identity{"/CN=server"}, "ivdgl",
                              {}, 0.0, hours(24)));
  for (const tree::XrValue& attempt :
       {tree::XrValue(std::int64_t{4294967297}), tree::XrValue(0),
        tree::XrValue(-3), tree::XrValue("1")}) {
    const auto r = caller.call(
        "sphinx-client/t", "sphinx_client.cancel_attempt",
        {tree::XrValue(live.front().id.value()), attempt});
    EXPECT_FALSE(r.has_value());
  }
  EXPECT_EQ(scenario.recorder().counter("tracker.race_cancels",
                                        "sphinx-client/t"),
            0u);
  EXPECT_TRUE(core::is_outstanding(
      tenant.server->warehouse().job(live.front().id)->state));
}

TEST(ClientProtocol, RejectsBogusPlans) {
  Scenario scenario(quiet());
  Tenant& tenant = scenario.add_tenant("t", TenantOptions{});
  (void)tenant;
  RawCaller caller(scenario,
                   rpc::Proxy(rpc::Identity{"/CN=server"}, "ivdgl",
                              {}, 0.0, hours(24)));
  // Not a plan at all.
  auto r = caller.call("sphinx-client/t", "sphinx_client.execute_plan",
                       {tree::XrValue("junk")});
  EXPECT_FALSE(r.has_value());
  // dag_done for a dag this client never submitted.
  r = caller.call("sphinx-client/t", "sphinx_client.dag_done",
                  {tree::XrValue(424242)});
  EXPECT_FALSE(r.has_value());
}

// --- re-delivery ------------------------------------------------------------

rpc::Proxy host_proxy() {
  return rpc::Proxy(rpc::Identity{"/CN=server"}, "ivdgl", {}, 0.0,
                    hours(24));
}

/// Delivery is at-least-once, so every RPC handler must treat a
/// retransmission -- the byte-identical request under the same call_seq
/// -- as a no-op: the identical reply, no journal record and no trace
/// event beyond the bus's own delivery lines.  Each test delivers a
/// request, lets its effects settle, then delivers it again.
class RedeliveryFixture : public ::testing::Test {
 protected:
  /// What the engine had recorded once a delivery settled.
  struct Delivery {
    std::string reply;
    std::string journal;             ///< the server's journal afterwards
    std::vector<std::string> trace;  ///< events added, bus_delivery excluded
  };

  RedeliveryFixture()
      : scenario(quiet()), tenant(scenario.add_tenant("t", TenantOptions{})) {
    scenario.bus().register_endpoint(
        "raw-caller",
        [this](const rpc::Envelope& reply) { replies.push_back(reply.payload); });
    // DAG 1 reaches the server through the client, so both know it.  Its
    // four independent jobs are then planned at site 1 (attempt 1); the
    // server is never started, so nothing else touches them.
    workflow::Dag dag(DagId(1), "redelivery");
    for (std::uint64_t id = 11; id <= 14; ++id) {
      workflow::JobSpec job;
      job.id = JobId(id);
      job.name = "job-" + std::to_string(id);
      job.output = "lfn://redelivery/" + std::to_string(id);
      dag.add_job(job);
    }
    tenant.client->submit(dag);
    scenario.engine().run_until();
    warehouse().set_dag_state(DagId(1), core::DagState::kPlanning);
    for (std::uint64_t id = 11; id <= 14; ++id) {
      warehouse().set_job_planned(JobId(id), SiteId(1),
                                  scenario.engine().now());
    }
  }

  core::DataWarehouse& warehouse() { return tenant.server->warehouse(); }

  /// Sends `request` from "raw-caller" under `seq`, then runs the engine
  /// until it is idle, or with `settle` false only until the reply.
  Delivery deliver(const std::string& to, const rpc::Proxy& proxy,
                   const std::string& request, std::uint64_t seq,
                   bool settle = true) {
    const std::size_t events = scenario.recorder().trace().size();
    const std::size_t answered = replies.size();
    scenario.bus().send("raw-caller", to, request, proxy, seq);
    if (settle) {
      scenario.engine().run_until();
    } else {
      while (replies.size() == answered && scenario.engine().step()) {
      }
    }
    SPHINX_ASSERT(replies.size() == answered + 1, "expected one reply");
    Delivery delivery;
    delivery.reply = replies.back();
    delivery.journal = warehouse().journal().serialize();
    const auto trace = scenario.recorder().trace().events();
    for (std::size_t i = events; i < trace.size(); ++i) {
      if (trace[i].kind != obs::TraceKind::kBusDelivery) {
        delivery.trace.push_back(std::string(obs::to_string(trace[i].kind)) +
                                 " " + trace[i].subject + " " +
                                 std::string(trace[i].detail));
      }
    }
    return delivery;
  }

  /// Delivers the call `request` twice under one call_seq and expects
  /// the second delivery to change nothing.
  void twice(const std::string& to, const rpc::Proxy& proxy,
             const std::string& request) {
    ++seq;
    const Delivery first = deliver(to, proxy, request, seq);
    const Delivery again = deliver(to, proxy, request, seq);
    const auto response = tree::MethodResponse::parse(first.reply);
    ASSERT_TRUE(response.has_value());
    EXPECT_FALSE(response->is_fault) << first.reply;
    EXPECT_EQ(again.reply, first.reply);
    EXPECT_EQ(again.journal, first.journal);
    EXPECT_EQ(again.trace, std::vector<std::string>{});
  }

  void twice_report(std::uint64_t job, core::ReportKind kind) {
    core::TrackerReport report;
    report.job = JobId(job);
    report.kind = kind;
    report.site = SiteId(1);
    report.at = scenario.engine().now();
    report.completion_time = 60.0;
    report.execution_time = 60.0;
    report.attempt = 1;
    twice(server, user, core::encode_report(report));
  }

  core::ExecutionPlan plan_for(std::uint64_t job) {
    core::ExecutionPlan plan;
    plan.job = JobId(job);
    plan.dag = DagId(1);
    plan.job_name = "job-" + std::to_string(job);
    plan.site = SiteId(1);
    plan.output = "lfn://redelivery/" + std::to_string(job);
    plan.attempt = warehouse().job(JobId(job))->attempt;
    return plan;
  }

  Scenario scenario;
  Tenant& tenant;
  const std::string server = "sphinx-server/t";
  const std::string client = "sphinx-client/t";
  const rpc::Proxy user = vo_proxy("uscms");
  const rpc::Proxy host = host_proxy();
  std::vector<std::string> replies;
  std::uint64_t seq = 0;
};

TEST_F(RedeliveryFixture, SubmitDag) {
  workflow::Dag dag(DagId(2), "resent");
  workflow::JobSpec job;
  job.id = JobId(21);
  job.name = "j";
  job.output = "lfn://resent.out";
  dag.add_job(job);
  twice(server, user,
        core::encode_dag("raw-caller", UserId(5), dag, 1.5, kNever));
  EXPECT_TRUE(warehouse().dag(DagId(2)).has_value());
  EXPECT_EQ(count(scenario, tenant, "server.dags_received"), 2u);
  EXPECT_EQ(count(scenario, tenant, "server.duplicate_dags"), 1u);
}

TEST_F(RedeliveryFixture, ReportOfEveryKind) {
  twice_report(11, core::ReportKind::kSubmitted);
  EXPECT_EQ(warehouse().job(JobId(11))->state, core::JobState::kSubmitted);
  twice_report(11, core::ReportKind::kRunning);
  EXPECT_EQ(warehouse().job(JobId(11))->state, core::JobState::kRunning);
  twice_report(11, core::ReportKind::kCompleted);
  EXPECT_EQ(warehouse().job(JobId(11))->state, core::JobState::kCompleted);
  twice_report(12, core::ReportKind::kCancelled);
  EXPECT_EQ(warehouse().job(JobId(12))->state, core::JobState::kUnplanned);
  twice_report(13, core::ReportKind::kHeld);
  EXPECT_EQ(warehouse().job(JobId(13))->state, core::JobState::kUnplanned);
}

TEST_F(RedeliveryFixture, ExecutePlan) {
  ASSERT_EQ(count(scenario, tenant, "tracker.duplicate_plans"), 0u);
  twice(client, host, core::encode_plan(plan_for(14)));
  EXPECT_EQ(tenant.client->tracker_stats().submissions, 1u);
  EXPECT_EQ(count(scenario, tenant, "tracker.duplicate_plans"), 1u);
  // The first delivery ran the job and its reports reached the server.
  EXPECT_EQ(warehouse().job(JobId(14))->state, core::JobState::kCompleted);
}

TEST_F(RedeliveryFixture, DagDone) {
  twice(client, host, core::encode_dag_done(DagId(1)));
  EXPECT_EQ(tenant.client->dags_finished(), 1u);
  EXPECT_EQ(scenario.recorder().counter("tracker.duplicate_dag_done", client),
            1u);
}

TEST_F(RedeliveryFixture, CancelAttempt) {
  // A live attempt to cancel: job 13 runs for hours, and the engine stops
  // as soon as the client has acknowledged its plan.
  core::ExecutionPlan plan = plan_for(13);
  plan.compute_time = hours(10);
  deliver(client, host, core::encode_plan(plan), ++seq, /*settle=*/false);
  ASSERT_EQ(tenant.client->tracked_jobs(), 1u);
  grid::Site& site = scenario.grid().site(SiteId(1));
  ASSERT_EQ(site.query()->running, 1);
  twice(client, host, core::encode_cancel_attempt(JobId(13), 1));
  EXPECT_EQ(scenario.recorder().counter("tracker.race_cancels", client), 1u);
  EXPECT_EQ(tenant.client->tracked_jobs(), 0u);
  // The remove reached the site, whose kCancelled the gateway relayed as
  // kRemoved and then retired the attempt.
  EXPECT_EQ(site.query()->running, 0);
  EXPECT_FALSE(tenant.gateway->state_of(JobId(13), 1).has_value());
}

// --- refused wire input -----------------------------------------------------

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

/// Malformed numbers and DAG shapes must be refused with a fault before
/// anything is journaled or traced -- never stored, and never thrown out
/// of the bus delivery by a precondition further in.
class RefusalFixture : public RedeliveryFixture {
 protected:
  /// Delivers the call `request` once and expects a fault reply, with
  /// the server's journal and the trace (bus deliveries aside) unchanged.
  void refused(const std::string& to, const rpc::Proxy& proxy,
               const std::string& request, const std::string& what) {
    const std::string journal = warehouse().journal().serialize();
    Delivery delivery;
    try {
      delivery = deliver(to, proxy, request, ++seq);
    } catch (const std::exception& error) {
      ADD_FAILURE() << what << ": threw " << error.what();
      return;
    }
    const auto response = tree::MethodResponse::parse(delivery.reply);
    ASSERT_TRUE(response.has_value()) << what;
    EXPECT_TRUE(response->is_fault) << what << ": " << delivery.reply;
    EXPECT_EQ(delivery.journal, journal) << what;
    EXPECT_EQ(delivery.trace, std::vector<std::string>{}) << what;
  }

  /// A well-formed two-job chain, DAG 3, in wire form.
  static tree::XrValue chain() {
    workflow::Dag dag(DagId(3), "chain");
    workflow::JobSpec first;
    first.id = JobId(31);
    first.name = "first";
    first.output = "lfn://chain/31";
    workflow::JobSpec second;
    second.id = JobId(32);
    second.name = "second";
    second.inputs = {"lfn://chain/31"};
    second.output = "lfn://chain/32";
    dag.add_job(first);
    dag.add_job(second);
    dag.add_edge(JobId(31), JobId(32));
    return tree::encode_dag(dag);
  }

  /// chain() with job `index`'s member `key` replaced.
  static tree::XrValue chain_with(std::size_t index, const std::string& key,
                                 tree::XrValue value) {
    auto root = chain().as_struct();
    auto jobs = root.at("jobs").as_array();
    auto job = jobs.at(index).as_struct();
    job[key] = std::move(value);
    jobs[index] = tree::XrValue(std::move(job));
    root["jobs"] = tree::XrValue(std::move(jobs));
    return tree::XrValue(std::move(root));
  }

  void refused_submit(tree::XrValue dag, double priority, double deadline,
                      const std::string& what) {
    refused(server, user,
            tree::call_bytes("sphinx.submit_dag",
                             {tree::XrValue("raw-caller"), tree::XrValue(5),
                              std::move(dag), tree::XrValue(priority),
                              tree::XrValue(deadline)}),
            what);
  }
};

TEST_F(RefusalFixture, ReportWithBadCompletionTimeOrNanTime) {
  core::TrackerReport report;
  report.job = JobId(11);
  report.kind = core::ReportKind::kCompleted;
  report.site = SiteId(1);
  report.at = scenario.engine().now();
  report.attempt = 1;
  const auto refused_report = [&](const std::string& what) {
    refused(server, user, core::encode_report(report), what);
  };
  for (const double bad : {-1.0, kNan}) {
    report.completion_time = bad;
    refused_report("completion_time " + std::to_string(bad));
  }
  report.completion_time = 60.0;
  report.at = kNan;
  refused_report("completed at nan");
  report.kind = core::ReportKind::kSubmitted;
  refused_report("submitted at nan");
  EXPECT_EQ(warehouse().job(JobId(11))->state, core::JobState::kPlanned);
}

TEST_F(RefusalFixture, SubmitWithBadJobNumbers) {
  for (const double bad : {-60.0, kNan}) {
    refused_submit(chain_with(0, "compute_time", tree::XrValue(bad)), 0.0,
                   kNever, "compute_time " + std::to_string(bad));
    refused_submit(chain_with(0, "output_bytes", tree::XrValue(bad)), 0.0,
                   kNever, "output_bytes " + std::to_string(bad));
  }
  EXPECT_FALSE(warehouse().dag(DagId(3)).has_value());
}

TEST_F(RefusalFixture, SubmitWithBadDagShape) {
  refused_submit(chain_with(0, "job_id", tree::XrValue(0)), 0.0, kNever,
                 "job id 0");
  refused_submit(chain_with(1, "job_id", tree::XrValue(31)), 0.0, kNever,
                 "repeated job id");
  refused_submit(chain_with(1, "parents",
                            tree::XrValue(tree::XrValue::Array{tree::XrValue(32)})),
                 0.0, kNever, "self edge");
  EXPECT_FALSE(warehouse().dag(DagId(3)).has_value());
}

TEST_F(RefusalFixture, SubmitWithNanPriorityOrDeadline) {
  refused_submit(chain(), kNan, kNever, "priority nan");
  refused_submit(chain(), 0.0, kNan, "deadline nan");
  EXPECT_FALSE(warehouse().dag(DagId(3)).has_value());
}

TEST_F(RefusalFixture, PlanWithBadComputeTime) {
  for (const double bad : {-60.0, kNan}) {
    core::ExecutionPlan plan = plan_for(14);
    plan.compute_time = bad;
    refused(client, host, core::encode_plan(plan),
            "compute_time " + std::to_string(bad));
  }
  EXPECT_EQ(tenant.client->tracker_stats().submissions, 0u);
}

TEST_F(RefusalFixture, PlanWithBadInputOrOutputBytes) {
  for (const double bad : {-5.0, kNan}) {
    core::ExecutionPlan plan = plan_for(14);
    plan.output_bytes = bad;
    refused(client, host, core::encode_plan(plan),
            "output_bytes " + std::to_string(bad));
    plan = plan_for(14);
    plan.inputs = {{"lfn://redelivery/11", SiteId(1), 1e6},
                   {"lfn://redelivery/12", SiteId(1), bad}};
    refused(client, host, core::encode_plan(plan),
            "input bytes " + std::to_string(bad));
  }
  EXPECT_EQ(tenant.client->tracker_stats().submissions, 0u);
  EXPECT_EQ(tenant.client->tracked_jobs(), 0u);
}

TEST_F(RefusalFixture, PlanForUnknownSite) {
  core::ExecutionPlan plan = plan_for(14);
  plan.site = SiteId(999);
  refused(client, host, core::encode_plan(plan), "site 999");
  EXPECT_EQ(tenant.client->tracker_stats().submissions, 0u);
  EXPECT_EQ(tenant.client->tracked_jobs(), 0u);
  // The refusal recorded nothing: the same (job, attempt) at a real site
  // is still a first delivery, not a duplicate.
  EXPECT_EQ(count(scenario, tenant, "tracker.duplicate_plans"), 0u);
}

TEST_F(RefusalFixture, PlanWithUnknownInputSource) {
  // The execution site exists, but one input would be staged from a site
  // the grid does not have.
  core::ExecutionPlan plan = plan_for(14);
  plan.inputs = {{"lfn://refusal/in", SiteId(999), 1e6}};
  refused(client, host, core::encode_plan(plan), "site 999");
  EXPECT_EQ(tenant.client->tracker_stats().submissions, 0u);
  EXPECT_EQ(tenant.client->tracked_jobs(), 0u);
  EXPECT_EQ(count(scenario, tenant, "tracker.duplicate_plans"), 0u);
}

TEST_F(RefusalFixture, PlanWithUnknownPersistentSite) {
  // The job could run, but its output would be archived to a site the
  // grid does not have.
  core::ExecutionPlan plan = plan_for(14);
  plan.persist_output = true;
  plan.persistent_site = SiteId(999);
  refused(client, host, core::encode_plan(plan), "persistent site 999");
  EXPECT_EQ(tenant.client->tracker_stats().submissions, 0u);
  EXPECT_EQ(tenant.client->tracked_jobs(), 0u);
  EXPECT_EQ(count(scenario, tenant, "tracker.duplicate_plans"), 0u);
  for (const data::Replica& replica : scenario.rls().locate(plan.output)) {
    EXPECT_NE(replica.site, SiteId(999));
  }
}

// --- the checkpoint rule, across failover -----------------------------------

std::vector<SimTime> checkpoint_times(const Scenario& scenario) {
  std::vector<SimTime> times;
  for (const obs::TraceView& e : scenario.recorder().trace().events()) {
    if (e.kind == obs::TraceKind::kCheckpoint) times.push_back(e.at);
  }
  return times;
}

TEST(ServerCheckpoint, AdoptedShardKeepsPeriodCheckpointsInLockstep) {
  // The checkpoint rule reads only what recovery carries over -- the
  // image and the journal after it -- so an adopted shard's
  // post-adoption checkpoints fire at exactly the times the uncrashed
  // baseline's do, pinned by byte-diffing the terminal journal and the
  // chaos-stripped trace.
  auto run = [](bool crash) {
    auto scenario = std::make_unique<Scenario>(quiet(23));
    Tenant& tenant = scenario->add_tenant("t", TenantOptions{});
    auto generator =
        scenario->make_generator("w", workflow::WorkloadConfig{});
    scenario->start();
    for (int i = 0; i < 4; ++i) {
      const auto dag = generator.generate("lockstep-" + std::to_string(i));
      scenario->engine().schedule_at(
          minutes(i), "submit", [&tenant, dag] { tenant.client->submit(dag); });
    }
    if (crash) {
      // Kill off a sweep boundary, well after the first images
      // published: the recovered rule reads a real image.
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

/// Rows a checkpoint image holds: one "R" line each.
std::size_t image_rows(const core::CheckpointImage& image) {
  std::size_t rows = 0;
  for (std::size_t at = image.database.find("\nR\t");
       at != std::string::npos; at = image.database.find("\nR\t", at + 1)) {
    ++rows;
  }
  return rows;
}

TEST(ServerCheckpoint, AfterEverySweepTheJournalIsShorterThanTheImage) {
  // A fixed multi-DAG run, checked at the end of every sweep: the
  // retained journal is empty, or holds fewer records than the last
  // image holds rows (zero before the first image), so replaying it never
  // costs more than restoring the image.
  Scenario scenario(quiet(29));
  Tenant& tenant = scenario.add_tenant("t", TenantOptions{});
  auto generator = scenario.make_generator("w", workflow::WorkloadConfig{});
  scenario.start();
  std::vector<workflow::Dag> dags;
  for (int i = 0; i < 8; ++i) {
    dags.push_back(generator.generate("bounded-" + std::to_string(i)));
  }
  for (std::size_t k = 0; k < dags.size(); ++k) {
    scenario.engine().schedule_at(
        kFirstSubmitAt + static_cast<double>(k) * kSubmitSpacing, "submit",
        [&tenant, &dag = dags[k]] { tenant.client->submit(dag); });
  }
  // The check runs on the server's sweep period and phase, and starts
  // after it, so at every shared instant it runs right after the sweep.
  std::size_t sweeps = 0;
  std::size_t bounded_by_an_image = 0;
  sim::PeriodicProcess check(
      scenario.engine(), "test:after-sweep", core::kSweepPeriod, [&] {
        ++sweeps;
        const core::DataWarehouse& wh = tenant.server->warehouse();
        const std::size_t records = wh.journal().size();
        const std::size_t rows =
            wh.checkpoint_image() ? image_rows(*wh.checkpoint_image()) : 0;
        EXPECT_TRUE(records == 0 || records < rows)
            << "t=" << scenario.engine().now() << " records=" << records
            << " rows=" << rows;
        if (records > 0) ++bounded_by_an_image;
      });
  check.start();
  scenario.run(hours(12));

  EXPECT_TRUE(tenant.client->all_dags_finished());
  EXPECT_GT(sweeps, 50u);
  EXPECT_GT(bounded_by_an_image, 10u);  // not only the empty case
  EXPECT_GE(checkpoint_times(scenario).size(), 5u);
}

}  // namespace
}  // namespace sphinx::exp
