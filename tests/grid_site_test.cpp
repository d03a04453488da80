// Tests for the site simulator: batch queue semantics, VO priorities,
// stage-in hooks, cancellation, and the failure modes.

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <optional>
#include <vector>

#include "common/contracts.hpp"
#include "grid/failure.hpp"
#include "grid/grid.hpp"
#include "grid/site.hpp"
#include "sim/engine.hpp"

namespace sphinx::grid {
namespace {

SiteConfig basic_config(int cpus = 2, double speed = 1.0) {
  SiteConfig config;
  config.name = "testsite";
  config.cpus = cpus;
  config.cpu_speed = speed;
  config.runtime_noise = 0.0;  // deterministic runtimes for tests
  return config;
}

RemoteJob job_of(Duration compute, const std::string& vo = "uscms") {
  RemoteJob job;
  job.vo = vo;
  job.compute_time = compute;
  return job;
}

class SiteFixture : public ::testing::Test {
 protected:
  SiteFixture() : site(engine, SiteId(1), basic_config(), Rng(7)) {}

  /// Submits and collects all events for the submission.
  SubmissionId submit(RemoteJob job) {
    auto events = std::make_shared<std::vector<JobEvent>>();
    const auto sid = site.submit(std::move(job), [events](const JobEvent& e) {
      events->push_back(e);
    });
    EXPECT_TRUE(sid.has_value());
    history[*sid] = events;
    return *sid;
  }

  [[nodiscard]] RemoteJobState last_state(SubmissionId sid) const {
    const auto& events = *history.at(sid);
    return events.empty() ? RemoteJobState::kQueued : events.back().state;
  }

  sim::Engine engine;
  Site site;
  std::map<SubmissionId, std::shared_ptr<std::vector<JobEvent>>> history;
};

TEST_F(SiteFixture, JobRunsToCompletion) {
  const auto sid = submit(job_of(60.0));
  engine.run_until();
  EXPECT_EQ(last_state(sid), RemoteJobState::kCompleted);
  EXPECT_DOUBLE_EQ(engine.now(), 60.0);
  // Full lifecycle observed: queued -> staging -> running -> completed.
  const auto& events = *history.at(sid);
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].state, RemoteJobState::kQueued);
  EXPECT_EQ(events[1].state, RemoteJobState::kStaging);
  EXPECT_EQ(events[2].state, RemoteJobState::kRunning);
  EXPECT_EQ(events[3].state, RemoteJobState::kCompleted);
}

TEST_F(SiteFixture, CpuSpeedScalesRuntime) {
  Site fast(engine, SiteId(2), basic_config(1, 2.0), Rng(7));
  bool done = false;
  (void)fast.submit(job_of(60.0), [&](const JobEvent& e) {
    if (e.state == RemoteJobState::kCompleted) {
      done = true;
      EXPECT_DOUBLE_EQ(e.at, 30.0);  // 60s / speed 2.0
    }
  });
  engine.run_until();
  EXPECT_TRUE(done);
}

TEST_F(SiteFixture, QueueingWhenCpusBusy) {
  // 2 CPUs, 3 jobs of 60s: third starts when the first finishes.
  submit(job_of(60.0));
  submit(job_of(60.0));
  const auto third = submit(job_of(60.0));
  engine.run_until(1.0);
  EXPECT_EQ(site.query()->running, 2);
  EXPECT_EQ(site.query()->queued, 1);
  engine.run_until();
  EXPECT_EQ(last_state(third), RemoteJobState::kCompleted);
  const auto& events = *history.at(third);
  // Third job started computing at t=60.
  EXPECT_DOUBLE_EQ(events[2].at, 60.0);
  EXPECT_DOUBLE_EQ(events[3].at, 120.0);
}

TEST_F(SiteFixture, VoPriorityOrdersQueue) {
  SiteConfig config = basic_config(1);
  config.vo_priority["atlas"] = 10.0;
  config.vo_priority["uscms"] = 1.0;
  Site prio(engine, SiteId(3), config, Rng(7));

  std::vector<std::string> finish_order;
  const auto watch = [&](const std::string& tag) {
    return [&finish_order, tag](const JobEvent& e) {
      if (e.state == RemoteJobState::kCompleted) finish_order.push_back(tag);
    };
  };
  // Occupy the single CPU, then queue one low-prio and one high-prio job.
  (void)prio.submit(job_of(10.0, "uscms"), watch("first"));
  engine.run_until(1.0);  // let "first" start running
  (void)prio.submit(job_of(10.0, "uscms"), watch("low"));
  (void)prio.submit(job_of(10.0, "atlas"), watch("high"));
  engine.run_until();
  ASSERT_EQ(finish_order.size(), 3u);
  EXPECT_EQ(finish_order[0], "first");
  EXPECT_EQ(finish_order[1], "high");  // atlas overtakes uscms
  EXPECT_EQ(finish_order[2], "low");
}

TEST_F(SiteFixture, EqualPriorityIsFifo) {
  Site one(engine, SiteId(4), basic_config(1), Rng(7));
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    (void)one.submit(job_of(5.0), [&order, i](const JobEvent& e) {
      if (e.state == RemoteJobState::kCompleted) order.push_back(i);
    });
  }
  engine.run_until();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST_F(SiteFixture, StageInHookDelaysCompute) {
  RemoteJob job = job_of(60.0);
  job.stage = [this](std::function<void()> done) {
    engine.schedule_in(30.0, "stage", std::move(done));
  };
  const auto sid = submit(std::move(job));
  engine.run_until();
  const auto& events = *history.at(sid);
  ASSERT_EQ(events.size(), 4u);
  EXPECT_DOUBLE_EQ(events[1].at, 0.0);   // staging begins immediately
  EXPECT_DOUBLE_EQ(events[2].at, 30.0);  // running after stage-in
  EXPECT_DOUBLE_EQ(events[3].at, 90.0);  // completed after compute
}

TEST_F(SiteFixture, CancelQueuedJob) {
  Site one(engine, SiteId(5), basic_config(1), Rng(7));
  bool first_done = false;
  (void)one.submit(job_of(100.0), [&](const JobEvent& e) {
    if (e.state == RemoteJobState::kCompleted) first_done = true;
  });
  std::vector<JobEvent> events;
  const auto sid = one.submit(job_of(100.0), [&](const JobEvent& e) {
    events.push_back(e);
  });
  engine.run_until(1.0);
  ASSERT_TRUE(sid.has_value());
  EXPECT_TRUE(one.cancel(*sid));
  engine.run_until();
  // Queued, then cancelled: it never reached a CPU.
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events.front().state, RemoteJobState::kQueued);
  EXPECT_EQ(events.back().state, RemoteJobState::kCancelled);
  EXPECT_TRUE(first_done);
}

TEST_F(SiteFixture, CancelRunningJobFreesCpu) {
  Site one(engine, SiteId(6), basic_config(1), Rng(7));
  const auto running = one.submit(job_of(1000.0), nullptr);
  bool second_done = false;
  (void)one.submit(job_of(10.0), [&](const JobEvent& e) {
    if (e.state == RemoteJobState::kCompleted) second_done = true;
  });
  engine.run_until(1.0);
  EXPECT_TRUE(one.cancel(*running));
  engine.run_until();
  EXPECT_TRUE(second_done);
  EXPECT_LT(engine.now(), 100.0);  // did not wait for the 1000s job
}

// A callback may cancel its own submission: the kCancelled event nests
// inside kStaging, the entry is retired from under the dispatch that
// emitted kStaging, and the stage-in never starts.
TEST_F(SiteFixture, CancelFromInsideTheStagingCallback) {
  Site one(engine, SiteId(9), basic_config(1), Rng(7));
  bool staged = false;
  RemoteJob job = job_of(100.0);
  job.stage = [&staged](std::function<void()> done) {
    staged = true;
    done();
  };
  std::vector<RemoteJobState> states;
  std::optional<SubmissionId> sid;
  bool cancelled = false;
  sid = one.submit(std::move(job), [&](const JobEvent& e) {
    states.push_back(e.state);
    if (e.state == RemoteJobState::kStaging) cancelled = one.cancel(*sid);
  });
  ASSERT_TRUE(sid.has_value());
  bool second_done = false;
  (void)one.submit(job_of(10.0), [&](const JobEvent& e) {
    if (e.state == RemoteJobState::kCompleted) second_done = true;
  });
  engine.run_until();
  EXPECT_TRUE(cancelled);
  EXPECT_EQ(states, (std::vector<RemoteJobState>{RemoteJobState::kQueued,
                                                 RemoteJobState::kStaging,
                                                 RemoteJobState::kCancelled}));
  EXPECT_FALSE(staged);
  EXPECT_FALSE(one.cancel(*sid));  // retired: answers like an unknown one
  EXPECT_TRUE(second_done);        // the CPU came back
  EXPECT_DOUBLE_EQ(engine.now(), 10.0);
  EXPECT_EQ(one.query()->running, 0);
}

TEST_F(SiteFixture, CancelUnknownOrTerminalFails) {
  const auto sid = submit(job_of(10.0));
  engine.run_until();
  EXPECT_FALSE(site.cancel(sid));             // already completed
  EXPECT_FALSE(site.cancel(SubmissionId(999)));  // unknown
}

TEST_F(SiteFixture, QueryReportsQueue) {
  submit(job_of(60.0));
  submit(job_of(60.0));
  submit(job_of(60.0));
  engine.run_until(1.0);
  const auto q = site.query();
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(q->cpus, 2);
  EXPECT_EQ(q->running, 2);
  EXPECT_EQ(q->queued, 1);
  EXPECT_EQ(q->free_cpus, 0);
}

TEST_F(SiteFixture, DownSiteRejectsAndLosesJobs) {
  const auto sid = submit(job_of(100.0));
  engine.run_until(1.0);
  site.go_down();
  // Unresponsive: no queries, no new submissions, no cancel processing.
  EXPECT_FALSE(site.query().has_value());
  EXPECT_FALSE(site.submit(job_of(10.0), nullptr).has_value());
  EXPECT_FALSE(site.cancel(sid));
  engine.run_until();
  // The running job was lost without any event.
  EXPECT_EQ(last_state(sid), RemoteJobState::kRunning);
  site.recover();
  EXPECT_EQ(site.query()->running, 0);  // its CPU came back free
}

TEST_F(SiteFixture, RecoveredSiteRunsNewJobs) {
  site.go_down();
  site.recover();
  const auto sid = submit(job_of(10.0));
  engine.run_until();
  EXPECT_EQ(last_state(sid), RemoteJobState::kCompleted);
}

TEST_F(SiteFixture, BlackHoleAcceptsButNeverRuns) {
  site.become_black_hole();
  const auto sid = submit(job_of(10.0));
  engine.run_until(hours(10));
  EXPECT_EQ(last_state(sid), RemoteJobState::kQueued);
  // Looks healthy to monitoring: answers queries with an empty-ish queue.
  const auto q = site.query();
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(q->running, 0);
  // Cancellation works (the gatekeeper responds, the batch system is the
  // broken part) -- this is how the tracker cleans up timed-out jobs.
  EXPECT_TRUE(site.cancel(sid));
}

TEST_F(SiteFixture, BlackHoleRecoveryDispatchesBacklog) {
  site.become_black_hole();
  const auto sid = submit(job_of(10.0));
  engine.run_until(100.0);
  site.recover();
  engine.run_until();
  EXPECT_EQ(last_state(sid), RemoteJobState::kCompleted);
}

TEST_F(SiteFixture, DegradedSiteRunsSlower) {
  Site slow(engine, SiteId(7), basic_config(1), Rng(7));
  slow.degrade();
  bool done = false;
  (void)slow.submit(job_of(60.0), [&](const JobEvent& e) {
    if (e.state == RemoteJobState::kCompleted) {
      EXPECT_DOUBLE_EQ(e.at, 60.0 / kDegradedSpeed);  // 60 / (1.0 * 0.3)
      done = true;
    }
  });
  engine.run_until();
  EXPECT_TRUE(done);
}

TEST_F(SiteFixture, CountersTrackLifecycle) {
  // Each submission's event stream is its count: submitted (queued),
  // dispatched (staging) and completed, once each.
  const auto first = submit(job_of(10.0));
  const auto second = submit(job_of(10.0));
  engine.run_until();
  for (const SubmissionId sid : {first, second}) {
    std::vector<RemoteJobState> states;
    for (const JobEvent& e : *history.at(sid)) states.push_back(e.state);
    EXPECT_EQ(states, (std::vector<RemoteJobState>{
                          RemoteJobState::kQueued, RemoteJobState::kStaging,
                          RemoteJobState::kRunning,
                          RemoteJobState::kCompleted}));
  }
}

TEST_F(SiteFixture, RuntimeNoiseVariesRuntimes) {
  SiteConfig config = basic_config(1);
  config.runtime_noise = 0.3;
  Site noisy(engine, SiteId(8), config, Rng(11));
  std::vector<double> durations;
  SimTime started = 0.0;
  for (int i = 0; i < 10; ++i) {
    (void)noisy.submit(job_of(60.0), [&](const JobEvent& e) {
      if (e.state == RemoteJobState::kRunning) started = e.at;
      if (e.state == RemoteJobState::kCompleted) {
        durations.push_back(e.at - started);
      }
    });
  }
  engine.run_until();
  ASSERT_EQ(durations.size(), 10u);
  double min = durations[0], max = durations[0];
  for (const double d : durations) {
    min = std::min(min, d);
    max = std::max(max, d);
  }
  EXPECT_GT(max - min, 1.0);  // noise produced spread
}

TEST(FailureModel, PermanentBlackHoleAppliesOnStart) {
  sim::Engine engine;
  Site site(engine, SiteId(1), basic_config(), Rng(1));
  FailureConfig config;
  config.permanent_black_hole = true;
  FailureModel model(engine, site, config, Rng(2));
  model.start();
  EXPECT_EQ(site.health(), SiteHealth::kBlackHole);
}

TEST(FailureModel, CyclesThroughOutages) {
  sim::Engine engine;
  Site site(engine, SiteId(1), basic_config(), Rng(1));
  FailureConfig config;
  config.enabled = true;
  config.mean_uptime = minutes(10);
  config.mean_downtime = minutes(2);
  FailureModel model(engine, site, config, Rng(2));
  model.start();
  engine.run_until(hours(10));
  EXPECT_GT(model.outages(), 10u);
}

TEST(FailureModel, AllZeroWeightsFallBackToPlainDowntime) {
  // Regression: an all-zero mode mix used to select an outage mode from
  // an undefined distribution.  It must degrade to weight_down semantics.
  sim::Engine engine;
  Site site(engine, SiteId(1), basic_config(), Rng(1));
  FailureConfig config;
  config.enabled = true;
  config.mean_uptime = minutes(10);
  config.mean_downtime = minutes(2);
  config.weight_down = 0.0;
  config.weight_black_hole = 0.0;
  config.weight_degraded = 0.0;
  FailureModel model(engine, site, config, Rng(2));
  model.start();
  // Step in small increments so we observe the site mid-outage, before
  // the repair lands (mean downtime is two minutes).
  while (model.outages() == 0 && engine.now() < hours(10)) {
    engine.run_until(engine.now() + 1.0);
  }
  ASSERT_GT(model.outages(), 0u);
  EXPECT_EQ(site.health(), SiteHealth::kDown);
}

TEST(FailureModel, NegativeOrNonFiniteWeightsRejected) {
  sim::Engine engine;
  Site site(engine, SiteId(1), basic_config(), Rng(1));
  FailureConfig config;
  config.enabled = true;
  config.weight_black_hole = -0.5;
  EXPECT_THROW(FailureModel(engine, site, config, Rng(2)), ContractViolation);
  config.weight_black_hole = 0.0;
  config.weight_degraded = std::numeric_limits<double>::infinity();
  EXPECT_THROW(FailureModel(engine, site, config, Rng(2)), ContractViolation);
}

TEST(FailureModel, DisabledNeverFails) {
  sim::Engine engine;
  Site site(engine, SiteId(1), basic_config(), Rng(1));
  FailureModel model(engine, site, FailureConfig{}, Rng(2));
  model.start();
  engine.run_until(hours(100));
  EXPECT_EQ(model.outages(), 0u);
  EXPECT_EQ(site.health(), SiteHealth::kHealthy);
}

TEST(BackgroundLoad, InjectsJobsThatOccupyCpus) {
  sim::Engine engine;
  Site site(engine, SiteId(1), basic_config(4), Rng(1));
  BackgroundLoadConfig config;
  config.enabled = true;
  config.mean_interarrival = 30.0;
  config.mean_duration = minutes(20);
  BackgroundLoad load(engine, site, config, Rng(3));
  load.start();
  engine.run_until(hours(1));
  const auto q = site.query();
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(q->running, 4);  // saturated
  // About 120 arrivals in the hour; four CPUs of 20-minute jobs finish
  // a dozen, so the rest are still there.
  EXPECT_GT(q->running + q->queued, 50);
}

TEST(Grid, AddAndLookupSites) {
  sim::Engine engine;
  Grid grid(engine, SeedTree(5));
  SiteSpec spec;
  spec.site = basic_config(8);
  spec.site.name = "acdc";
  const SiteId a = grid.add_site(spec);
  spec.site.name = "atlas";
  spec.site.cpus = 32;
  const SiteId b = grid.add_site(spec);

  EXPECT_EQ(grid.size(), 2u);
  EXPECT_EQ(grid.site(a).name(), "acdc");
  EXPECT_EQ(grid.site(b).config().cpus, 32);
  EXPECT_EQ(grid.total_cpus(), 40);
  ASSERT_NE(grid.find_site("atlas"), nullptr);
  EXPECT_EQ(grid.find_site("nope"), nullptr);
  EXPECT_EQ(grid.site_ids().size(), 2u);
}

TEST(Grid, DuplicateNameRejected) {
  sim::Engine engine;
  Grid grid(engine, SeedTree(5));
  SiteSpec spec;
  spec.site = basic_config();
  grid.add_site(spec);
  EXPECT_THROW(grid.add_site(spec), AssertionError);
}

TEST(Grid, StartLaunchesDrivers) {
  sim::Engine engine;
  Grid grid(engine, SeedTree(5));
  SiteSpec spec;
  spec.site = basic_config(2);
  spec.background.enabled = true;
  spec.background.mean_interarrival = 10.0;
  grid.add_site(spec);
  grid.start();
  engine.run_until(minutes(10));
  EXPECT_GT(engine.events_fired(), 10u);
  EXPECT_THROW(grid.add_site(spec), AssertionError);  // frozen after start
}

}  // namespace
}  // namespace sphinx::grid
