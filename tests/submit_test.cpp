// Tests for the submission layer: the Condor-G gateway (stage-in,
// output registration, cancellation) and DAGMan.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "data/gridftp.hpp"
#include "data/rls.hpp"
#include "grid/grid.hpp"
#include "submit/condor_g.hpp"
#include "submit/dagman.hpp"
#include "workflow/dag.hpp"

namespace sphinx::submit {
namespace {

constexpr double kMB = 1e6;

class GatewayFixture : public ::testing::Test {
 protected:
  GatewayFixture()
      : grid(engine, SeedTree(17)),
        transfers(engine),
        gateway(grid, transfers, rls, "gw-test") {
    grid::SiteSpec spec;
    spec.site.name = "exec";
    spec.site.cpus = 4;
    spec.site.runtime_noise = 0.0;
    exec_site = grid.add_site(spec);
    spec.site.name = "store";
    store_site = grid.add_site(spec);
    grid.start();
    transfers.set_link(exec_site, {10 * kMB, 10 * kMB});
    transfers.set_link(store_site, {10 * kMB, 10 * kMB});
    rls.register_replica("lfn://in1", store_site, 100 * kMB);
    rls.register_replica("lfn://in2", store_site, 50 * kMB);
  }

  SubmitRequest basic_request(JobId id) {
    SubmitRequest request;
    request.job = id;
    request.name = "job";
    request.user = UserId(1);
    request.site = exec_site;
    request.compute_time = 60.0;
    request.inputs = {{"lfn://in1", store_site, 100 * kMB},
                      {"lfn://in2", store_site, 50 * kMB}};
    request.output = "lfn://out-" + std::to_string(id.value());
    request.output_bytes = 10 * kMB;
    return request;
  }

  sim::Engine engine;
  grid::Grid grid;
  data::TransferService transfers;
  data::ReplicaLocationService rls;
  CondorG gateway;
  SiteId exec_site, store_site;
};

TEST_F(GatewayFixture, FullLifecycleWithStaging) {
  std::vector<GatewayJobState> states;
  SimTime completed_at = 0;
  ASSERT_TRUE(gateway.submit(basic_request(JobId(1)),
                             [&](const GatewayEvent& e) {
                               states.push_back(e.state);
                               if (e.state == GatewayJobState::kCompleted) {
                                 completed_at = e.at;
                               }
                             }));
  engine.run_until();
  ASSERT_GE(states.size(), 4u);
  EXPECT_EQ(states.back(), GatewayJobState::kCompleted);
  // 150 MB at 10 MB/s = 15 s staging + 60 s compute.
  EXPECT_NEAR(completed_at, 75.0, 1.0);
  // Output registered in RLS at the execution site.
  ASSERT_FALSE(rls.locate("lfn://out-1").empty());
  EXPECT_EQ(rls.locate("lfn://out-1")[0].site, exec_site);
}

TEST_F(GatewayFixture, SubmitToDownSiteFails) {
  grid.site(exec_site).go_down();
  std::vector<GatewayJobState> states;
  EXPECT_FALSE(gateway.submit(basic_request(JobId(1)),
                              [&](const GatewayEvent& e) {
                                states.push_back(e.state);
                              }));
  EXPECT_EQ(states, std::vector<GatewayJobState>{GatewayJobState::kFailed});
  // The failed attempt is retired once its callback has returned.
  EXPECT_FALSE(gateway.state_of(JobId(1)).has_value());
}

TEST_F(GatewayFixture, CancelDuringStagingKillsTransfers) {
  std::vector<GatewayJobState> states;
  ASSERT_TRUE(gateway.submit(basic_request(JobId(1)),
                             [&](const GatewayEvent& e) {
                               states.push_back(e.state);
                             }));
  engine.run_until(5.0);  // mid-stage-in
  EXPECT_EQ(transfers.active(), 1u);
  EXPECT_TRUE(gateway.cancel(JobId(1)));
  EXPECT_EQ(transfers.active(), 0u);  // the stage-in was cancelled
  engine.run_until();
  ASSERT_FALSE(states.empty());
  EXPECT_EQ(states.back(), GatewayJobState::kRemoved);
  EXPECT_EQ(std::count(states.begin(), states.end(), GatewayJobState::kRunning),
            0);
  EXPECT_FALSE(gateway.state_of(JobId(1)).has_value());
  EXPECT_TRUE(rls.locate("lfn://out-1").empty());
}

TEST_F(GatewayFixture, CancelUnknownOrTerminalFails) {
  EXPECT_FALSE(gateway.cancel(JobId(5)));
  ASSERT_TRUE(gateway.submit(basic_request(JobId(1)), nullptr));
  engine.run_until();
  EXPECT_FALSE(gateway.cancel(JobId(1)));  // completed
}

TEST_F(GatewayFixture, ResubmitAfterTerminalStateAllowed) {
  std::vector<GatewayJobState> first;
  ASSERT_TRUE(gateway.submit(
      basic_request(JobId(1)),
      [&](const GatewayEvent& e) { first.push_back(e.state); }));
  engine.run_until(2.0);
  ASSERT_TRUE(gateway.cancel(JobId(1)));
  engine.run_until(3.0);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first.back(), GatewayJobState::kRemoved);
  EXPECT_FALSE(gateway.state_of(JobId(1)).has_value());
  std::vector<GatewayJobState> second;
  ASSERT_TRUE(gateway.submit(
      basic_request(JobId(1)),
      [&](const GatewayEvent& e) { second.push_back(e.state); }));
  engine.run_until();
  ASSERT_FALSE(second.empty());
  EXPECT_EQ(second.back(), GatewayJobState::kCompleted);
  EXPECT_EQ(first.back(), GatewayJobState::kRemoved);  // nothing more for it
  EXPECT_FALSE(gateway.state_of(JobId(1)).has_value());
}

TEST_F(GatewayFixture, LostJobStaysRunningUntilTrackerActs) {
  SubmitRequest r = basic_request(JobId(1));
  r.inputs.clear();
  std::vector<GatewayJobState> states;
  ASSERT_TRUE(gateway.submit(
      r, [&](const GatewayEvent& e) { states.push_back(e.state); }));
  engine.run_until(10.0);
  grid.site(exec_site).go_down();
  engine.run_until(hours(1));
  // No event ever arrives; the gateway still believes the job is running.
  EXPECT_EQ(gateway.state_of(JobId(1)), GatewayJobState::kRunning);
  EXPECT_EQ(states.back(), GatewayJobState::kRunning);
  // condor_rm against the dead site falls back to forced local removal.
  EXPECT_TRUE(gateway.cancel(JobId(1)));
  EXPECT_EQ(states.back(), GatewayJobState::kRemoved);
  EXPECT_FALSE(gateway.state_of(JobId(1)).has_value());
}

// DAGMan submits the same (job, 1) again from inside the kFailed relay of
// the attempt it replaces.  The relay retires the failed record only: the
// resubmission stays live and runs to completion.
TEST_F(GatewayFixture, DagManResubmitsFromInsideTheFailedRelay) {
  workflow::Dag dag(DagId(1), "one");
  workflow::JobSpec spec;
  spec.id = JobId(7);
  spec.name = "seven";
  spec.compute_time = 10.0;
  dag.add_job(spec);
  grid.site(exec_site).go_down();
  int placements = 0;
  std::vector<std::optional<GatewayJobState>> seen_by_callout;
  SimTime finished = -1;
  DagMan dagman(
      gateway, dag, UserId(1), "uscms",
      [&](const workflow::JobSpec&) -> std::optional<Placement> {
        // The second placement comes from inside the failed attempt's
        // relay, which still holds its record.
        seen_by_callout.push_back(gateway.state_of(JobId(7), 1));
        if (++placements == 2) grid.site(exec_site).recover();
        return Placement{exec_site, {}};
      },
      [&](DagId, SimTime at) { finished = at; });
  dagman.start(0.0);
  ASSERT_EQ(seen_by_callout.size(), 2u);
  EXPECT_FALSE(seen_by_callout[0].has_value());
  EXPECT_EQ(seen_by_callout[1], GatewayJobState::kFailed);
  EXPECT_EQ(dagman.resubmissions(), 1u);
  // The resubmission took over the key; the failed relay left it live.
  EXPECT_EQ(gateway.state_of(JobId(7), 1), GatewayJobState::kIdle);
  engine.run_until();
  EXPECT_TRUE(dagman.finished());
  EXPECT_FALSE(dagman.failed());
  EXPECT_DOUBLE_EQ(finished, 10.0);
  EXPECT_FALSE(gateway.state_of(JobId(7), 1).has_value());
}

class DagManFixture : public GatewayFixture {
 protected:
  workflow::Dag chain_dag() {
    workflow::Dag dag(DagId(1), "chain");
    workflow::JobSpec a;
    a.id = JobId(11);
    a.name = "a";
    a.compute_time = 10.0;
    a.inputs = {"lfn://in1"};
    a.output = "lfn://mid";
    a.output_bytes = 10 * kMB;
    workflow::JobSpec b;
    b.id = JobId(12);
    b.name = "b";
    b.compute_time = 10.0;
    b.inputs = {"lfn://mid"};
    b.output = "lfn://final";
    b.output_bytes = kMB;
    dag.add_job(a);
    dag.add_job(b);
    dag.add_edge(JobId(11), JobId(12));
    return dag;
  }

  PlacementCallout fixed_site_callout() {
    return [this](const workflow::JobSpec& spec)
               -> std::optional<Placement> {
      Placement p;
      p.site = exec_site;
      for (const auto& lfn : spec.inputs) {
        const auto replicas = rls.locate(lfn);
        if (replicas.empty()) return std::nullopt;  // input not yet there
        p.inputs.push_back(
            {lfn, replicas[0].site, replicas[0].size_bytes});
      }
      return p;
    };
  }
};

TEST_F(DagManFixture, RunsChainInOrder) {
  SimTime finished = -1;
  DagMan dagman(gateway, chain_dag(), UserId(1), "uscms",
                fixed_site_callout(),
                [&](DagId, SimTime at) { finished = at; });
  dagman.start(0.0);
  engine.run_until();
  EXPECT_TRUE(dagman.finished());  // both jobs completed
  EXPECT_FALSE(dagman.failed());
  EXPECT_GT(finished, 20.0);  // both computes plus staging
  EXPECT_FALSE(rls.locate("lfn://final").empty());
}

TEST_F(DagManFixture, SecondJobWaitsForFirstOutput) {
  // b's input lfn://mid only exists after a completes; the callout defers
  // b until then, proving dependency-driven release.
  DagMan dagman(gateway, chain_dag(), UserId(1), "uscms",
                fixed_site_callout(), nullptr);
  dagman.start(0.0);
  engine.run_until(5.0);
  EXPECT_NE(gateway.state_of(JobId(11)), GatewayJobState::kCompleted);
  EXPECT_FALSE(gateway.state_of(JobId(12)).has_value());  // not released
  EXPECT_TRUE(rls.locate("lfn://mid").empty());
  engine.run_until();
  EXPECT_TRUE(dagman.finished());
}

TEST_F(DagManFixture, RetriesOnFailureUpToBudget) {
  // Site flips down after the first job starts; DAGMan's resubmissions
  // fail (down gatekeeper) until the budget is exhausted.
  DagMan dagman(gateway, chain_dag(), UserId(1), "uscms",
                fixed_site_callout(), nullptr, 2);
  dagman.start(0.0);
  engine.run_until(1.0);
  grid.site(exec_site).go_down();
  // Kick the gateway: force-remove triggers DAGMan's retry path.
  ASSERT_TRUE(gateway.cancel(JobId(11)));
  engine.run_until();
  EXPECT_TRUE(dagman.failed());
  EXPECT_FALSE(dagman.finished());
  EXPECT_GE(dagman.resubmissions(), 1u);
}

}  // namespace
}  // namespace sphinx::submit
