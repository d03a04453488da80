// Tests for the monitoring service: polling, latency, staleness, noise,
// behaviour across site failures and the samples it records.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "grid/grid.hpp"
#include "monitor/service.hpp"
#include "obs/recorder.hpp"
#include "sim/engine.hpp"

namespace sphinx::monitor {
namespace {

grid::SiteSpec make_spec(const std::string& name, int cpus) {
  grid::SiteSpec spec;
  spec.site.name = name;
  spec.site.cpus = cpus;
  spec.site.runtime_noise = 0.0;
  return spec;
}

/// The monitor_sample values recorded for one site's series of `metric`.
std::vector<double> samples(const obs::Recorder& recorder, SiteId site,
                            const std::string& metric) {
  const std::string subject = "site:" + std::to_string(site.value());
  std::vector<double> values;
  for (const obs::TraceView& e : recorder.trace().events()) {
    if (e.kind == obs::TraceKind::kMonitorSample && e.subject == subject &&
        e.detail == metric) {
      values.push_back(e.value);
    }
  }
  return values;
}

class MonitorFixture : public ::testing::Test {
 protected:
  MonitorFixture() : grid(engine, SeedTree(9)) {
    a = grid.add_site(make_spec("alpha", 4));
    b = grid.add_site(make_spec("beta", 8));
  }

  MonitoringService make_service(MonitorConfig config) {
    return MonitoringService(engine, grid, config, Rng(3));
  }

  sim::Engine engine;
  grid::Grid grid;
  SiteId a, b;
};

TEST_F(MonitorFixture, NoDataBeforeFirstPoll) {
  MonitorConfig config;
  config.poll_period = minutes(5);
  config.report_latency = 30.0;
  auto service = make_service(config);
  service.start();
  EXPECT_FALSE(service.snapshot(a).has_value());
  EXPECT_DOUBLE_EQ(service.age(a, 0.0), kNever);
}

TEST_F(MonitorFixture, PublishesAfterLatency) {
  MonitorConfig config;
  config.poll_period = minutes(5);
  config.report_latency = 30.0;
  auto service = make_service(config);
  service.start();
  // First poll of site `a` happens at t=0, published at t=30.
  engine.run_until(29.0);
  EXPECT_FALSE(service.snapshot(a).has_value());
  engine.run_until(31.0);
  const auto snap = service.snapshot(a);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->cpus, 4);
  EXPECT_EQ(snap->queued, 0);
  EXPECT_DOUBLE_EQ(snap->measured_at, 0.0);
  EXPECT_DOUBLE_EQ(snap->published_at, 30.0);
}

TEST_F(MonitorFixture, SnapshotReflectsQueueState) {
  // Load site `a` with jobs, then check the next snapshot sees them.
  for (int i = 0; i < 6; ++i) {
    grid::RemoteJob job;
    job.compute_time = hours(2);
    (void)grid.site(a).submit(std::move(job), nullptr);
  }
  MonitorConfig config;
  config.poll_period = minutes(5);
  config.report_latency = 10.0;
  auto service = make_service(config);
  service.start();
  engine.run_until(minutes(1));
  const auto snap = service.snapshot(a);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->running, 4);
  EXPECT_EQ(snap->queued, 2);
  EXPECT_EQ(snap->free_cpus, 0);
}

TEST_F(MonitorFixture, StaleDataSurvivesSiteFailure) {
  MonitorConfig config;
  config.poll_period = minutes(5);
  config.report_latency = 1.0;
  auto service = make_service(config);
  obs::Recorder recorder(engine);
  service.set_recorder(&recorder);
  service.start();
  engine.run_until(minutes(1));
  ASSERT_TRUE(service.snapshot(a).has_value());
  const SimTime measured = service.snapshot(a)->measured_at;

  grid.site(a).go_down();
  engine.run_until(hours(1));
  // Polls kept failing; the published snapshot is the pre-failure one.
  const auto snap = service.snapshot(a);
  ASSERT_TRUE(snap.has_value());
  EXPECT_DOUBLE_EQ(snap->measured_at, measured);
  EXPECT_GT(service.age(a, engine.now()), minutes(50));
  const auto alive = samples(recorder, a, "site.alive");
  EXPECT_GT(std::count(alive.begin(), alive.end(), 0.0), 5);
}

TEST_F(MonitorFixture, AgeGrowsBetweenPolls) {
  MonitorConfig config;
  config.poll_period = minutes(10);
  config.report_latency = 0.5;
  auto service = make_service(config);
  service.start();
  engine.run_until(minutes(1));
  const Duration age1 = service.age(a, engine.now());
  engine.run_until(minutes(9));
  const Duration age2 = service.age(a, engine.now());
  EXPECT_GT(age2, age1);
  EXPECT_LT(age2, minutes(10));
}

TEST_F(MonitorFixture, PollsAreStaggeredAcrossSites) {
  MonitorConfig config;
  config.poll_period = minutes(10);
  config.report_latency = 0.1;
  auto service = make_service(config);
  service.start();
  engine.run_until(minutes(6));
  // Site `a` polls at t=0, site `b` at t=5min.
  ASSERT_TRUE(service.snapshot(a).has_value());
  ASSERT_TRUE(service.snapshot(b).has_value());
  EXPECT_DOUBLE_EQ(service.snapshot(a)->measured_at, 0.0);
  EXPECT_DOUBLE_EQ(service.snapshot(b)->measured_at, minutes(5));
}

TEST_F(MonitorFixture, DisabledServiceNeverPolls) {
  MonitorConfig config;
  config.enabled = false;
  auto service = make_service(config);
  obs::Recorder recorder(engine);
  service.set_recorder(&recorder);
  service.start();
  engine.run_until(hours(1));
  // Every poll records site.alive; none was made.
  EXPECT_EQ(recorder.histogram("site.alive", "monitor"), nullptr);
  EXPECT_FALSE(service.snapshot(a).has_value());
}

TEST_F(MonitorFixture, CatalogCpusAlwaysAvailable) {
  MonitorConfig config;
  config.enabled = false;
  auto service = make_service(config);
  EXPECT_EQ(service.catalog_cpus(a), 4);
  EXPECT_EQ(service.catalog_cpus(b), 8);
}

TEST_F(MonitorFixture, NoisePerturbsButStaysNonNegative) {
  for (int i = 0; i < 20; ++i) {
    grid::RemoteJob job;
    job.compute_time = hours(5);
    (void)grid.site(a).submit(std::move(job), nullptr);
  }
  MonitorConfig config;
  config.poll_period = minutes(1);
  config.report_latency = 0.1;
  config.noise = 0.5;
  auto service = make_service(config);
  service.start();
  bool saw_non_exact = false;
  for (int i = 0; i < 30; ++i) {
    engine.run_until(minutes(i + 1));
    const auto snap = service.snapshot(a);
    if (!snap.has_value()) continue;
    EXPECT_GE(snap->queued, 0);
    if (snap->queued != 16) saw_non_exact = true;  // true value is 16
  }
  EXPECT_TRUE(saw_non_exact);
}

TEST_F(MonitorFixture, BlackHoleLooksHealthyToMonitoring) {
  grid.site(a).become_black_hole();
  for (int i = 0; i < 3; ++i) {
    grid::RemoteJob job;
    (void)grid.site(a).submit(std::move(job), nullptr);
  }
  MonitorConfig config;
  config.poll_period = minutes(1);
  config.report_latency = 0.1;
  auto service = make_service(config);
  service.start();
  engine.run_until(minutes(2));
  const auto snap = service.snapshot(a);
  ASSERT_TRUE(snap.has_value());
  // The trap: queue visible, nothing running, CPUs "free".
  EXPECT_EQ(snap->running, 0);
  EXPECT_EQ(snap->free_cpus, 4);
}

// --- recorded samples -------------------------------------------------------

void load_with_long_jobs(grid::Site& site, int jobs) {
  for (int i = 0; i < jobs; ++i) {
    grid::RemoteJob job;
    job.compute_time = hours(3);
    (void)site.submit(std::move(job), nullptr);
  }
}

TEST_F(MonitorFixture, PollRecordsEachMetricAsSampleAndHistogram) {
  load_with_long_jobs(grid.site(a), 6);
  engine.run_until(1.0);  // 4 of the 6 jobs start on a's 4 CPUs
  MonitorConfig config;
  config.poll_period = minutes(5);
  auto service = make_service(config);
  obs::Recorder recorder(engine);
  service.set_recorder(&recorder);
  service.start();
  engine.run_until(2.0);  // a polls now; b half a period later

  const std::vector<std::pair<std::string, double>> expected = {
      {"site.alive", 1.0},
      {"queue.length", 2.0},
      {"jobs.running", 4.0},
      {"cpu.free", 0.0}};
  const std::vector<obs::TraceView> events = recorder.trace().events();
  ASSERT_EQ(events.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const obs::TraceView& e = events[i];
    EXPECT_EQ(e.kind, obs::TraceKind::kMonitorSample);
    EXPECT_EQ(e.source, "monitor");
    EXPECT_EQ(e.subject, "site:" + std::to_string(a.value()));
    EXPECT_EQ(e.detail, expected[i].first);
    EXPECT_DOUBLE_EQ(e.value, expected[i].second);
    const auto* histogram = recorder.histogram(expected[i].first, "monitor");
    ASSERT_NE(histogram, nullptr);
    EXPECT_EQ(histogram->stats.count(), 1u);
  }
}

TEST_F(MonitorFixture, DownSiteRecordsOnlyAliveness) {
  MonitorConfig config;
  config.poll_period = minutes(1);
  config.report_latency = 1.0;
  auto service = make_service(config);
  obs::Recorder recorder(engine);
  service.set_recorder(&recorder);
  service.start();
  load_with_long_jobs(grid.site(a), 6);
  engine.run_until(minutes(5));

  EXPECT_GT(samples(recorder, a, "site.alive").size() +
                samples(recorder, a, "queue.length").size() +
                samples(recorder, a, "jobs.running").size() +
                samples(recorder, a, "cpu.free").size(),
            8u);
  EXPECT_DOUBLE_EQ(samples(recorder, a, "site.alive").back(), 1.0);
  EXPECT_DOUBLE_EQ(samples(recorder, a, "jobs.running").back(), 4.0);
  EXPECT_DOUBLE_EQ(samples(recorder, a, "queue.length").back(), 2.0);
  EXPECT_DOUBLE_EQ(samples(recorder, a, "cpu.free").back(), 0.0);
  const std::size_t alive_up = samples(recorder, a, "site.alive").size();
  const std::vector<double> queue_up = samples(recorder, a, "queue.length");

  // Take the site down: each later poll records site.alive = 0 and
  // nothing else, so the queue series stops (stale), like real monitoring.
  grid.site(a).go_down();
  engine.run_until(minutes(8));
  const std::vector<double> alive = samples(recorder, a, "site.alive");
  ASSERT_EQ(alive.size(), alive_up + 3);  // polls at 6, 7 and 8 minutes
  for (std::size_t i = alive_up; i < alive.size(); ++i) {
    EXPECT_DOUBLE_EQ(alive[i], 0.0);
  }
  EXPECT_EQ(samples(recorder, a, "queue.length"), queue_up);
  EXPECT_EQ(samples(recorder, a, "jobs.running").size(), queue_up.size());
  EXPECT_EQ(samples(recorder, a, "cpu.free").size(), queue_up.size());
}

TEST_F(MonitorFixture, EveryPollRecordsAliveness) {
  MonitorConfig config;
  config.poll_period = minutes(2);
  auto service = make_service(config);
  obs::Recorder recorder(engine);
  service.set_recorder(&recorder);
  service.start();
  engine.run_until(minutes(7));
  EXPECT_EQ(samples(recorder, a, "site.alive").size(),
            4u);  // polls at 0, 2, 4, 6 minutes
}

TEST_F(MonitorFixture, DetachedRecorderRecordsNothing) {
  MonitorConfig config;
  config.poll_period = minutes(1);
  auto service = make_service(config);
  obs::Recorder recorder(engine);
  service.set_recorder(&recorder);
  service.set_recorder(nullptr);
  service.start();
  engine.run_until(minutes(5));
  EXPECT_TRUE(service.snapshot(a).has_value());  // the polls did run
  EXPECT_EQ(recorder.trace().size(), 0u);
  EXPECT_EQ(recorder.histogram("site.alive", "monitor"), nullptr);
}

}  // namespace
}  // namespace sphinx::monitor
