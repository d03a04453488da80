// Straggler-defense tests: the detector's percentile learning and
// verdicts, the warehouse's race bookkeeping (burnt attempts, counter
// transfer), end-to-end first-completion-wins races under a lossy wire
// (completion/cancel cross-delivery, duplication, reorder), the
// monitor-staleness guard, the A/B tail-latency gate, and the mid-race
// crash-point sweep proving journal recovery is byte-invisible while
// races are open.

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "chaos/campaign.hpp"
#include "chaos/schedule.hpp"
#include "common/stats.hpp"
#include "core/straggler.hpp"
#include "core/warehouse.hpp"
#include "exp/scenario.hpp"
#include "workflow/generator.hpp"

namespace sphinx {
namespace {

// --- detector: job classes --------------------------------------------------

TEST(StragglerDetector, JobClassBucketsByLog2) {
  // Bucket k holds compute times in (2^(k-1), 2^k] seconds.
  EXPECT_EQ(core::job_class_of(0.0), 0);
  EXPECT_EQ(core::job_class_of(1.0), 0);
  EXPECT_EQ(core::job_class_of(1.5), 1);
  EXPECT_EQ(core::job_class_of(2.0), 1);
  EXPECT_EQ(core::job_class_of(2.5), 2);
  EXPECT_EQ(core::job_class_of(60.0), 6);   // (32, 64]
  EXPECT_EQ(core::job_class_of(64.0), 6);
  EXPECT_EQ(core::job_class_of(65.0), 7);
  EXPECT_EQ(core::job_class_of(1e300), 62);  // capped
  // Monotone in compute time.
  EXPECT_LE(core::job_class_of(100.0), core::job_class_of(1000.0));
}

// --- detector: thresholds and verdicts --------------------------------------

core::ServerConfig detector_config() {
  core::ServerConfig config;
  config.speculate = true;
  config.speculation_percentile = 0.95;
  config.speculation_multiplier = 2.0;
  config.speculation_min_elapsed = minutes(5);
  config.speculation_min_samples = 3;
  return config;
}

core::JobRecord running_job(SiteId site, Duration compute_time,
                            SimTime planned_at) {
  core::JobRecord job;
  job.id = JobId(1);
  job.dag = DagId(1);
  job.state = core::JobState::kRunning;
  job.site = site;
  job.compute_time = compute_time;
  job.attempt = 1;
  job.planned_at = planned_at;
  return job;
}

TEST(StragglerDetector, ThresholdNeedsMinSamples) {
  core::DataWarehouse warehouse;
  const core::ServerConfig config = detector_config();
  core::StragglerDetector detector(warehouse, nullptr, config);
  const int job_class = core::job_class_of(60.0);

  EXPECT_FALSE(detector.threshold(SiteId(1), job_class).has_value());
  warehouse.record_runtime_sample(SiteId(1), job_class, 100.0);
  warehouse.record_runtime_sample(SiteId(1), job_class, 100.0);
  EXPECT_FALSE(detector.threshold(SiteId(1), job_class).has_value());
  warehouse.record_runtime_sample(SiteId(1), job_class, 100.0);
  const auto limit = detector.threshold(SiteId(1), job_class);
  ASSERT_TRUE(limit.has_value());
  // 2 x p95(100,100,100) = 200 is below the 5-minute floor.
  EXPECT_DOUBLE_EQ(*limit, minutes(5));
}

TEST(StragglerDetector, ThresholdScalesWithPercentile) {
  core::DataWarehouse warehouse;
  const core::ServerConfig config = detector_config();
  core::StragglerDetector detector(warehouse, nullptr, config);
  const int job_class = core::job_class_of(60.0);
  for (int i = 0; i < 8; ++i) {
    warehouse.record_runtime_sample(SiteId(1), job_class, 400.0);
  }
  const auto limit = detector.threshold(SiteId(1), job_class);
  ASSERT_TRUE(limit.has_value());
  EXPECT_DOUBLE_EQ(*limit, 800.0);  // 2 x p95 = 2 x 400
}

TEST(StragglerDetector, ColdSiteFallsBackToAllSiteSamples) {
  core::DataWarehouse warehouse;
  const core::ServerConfig config = detector_config();
  core::StragglerDetector detector(warehouse, nullptr, config);
  const int job_class = core::job_class_of(60.0);
  for (int i = 0; i < 5; ++i) {
    warehouse.record_runtime_sample(SiteId(1), job_class, 400.0);
  }
  // Site 2 never completed anything (a black hole's signature), but the
  // class-wide samples still provide a baseline to judge it against.
  const auto limit = detector.threshold(SiteId(2), job_class);
  ASSERT_TRUE(limit.has_value());
  EXPECT_DOUBLE_EQ(*limit, 800.0);
}

TEST(StragglerDetector, SampleRingEvictsOldest) {
  core::DataWarehouse warehouse;
  const int job_class = 6;
  for (int i = 0; i < 40; ++i) {
    warehouse.record_runtime_sample(SiteId(1), job_class,
                                    static_cast<double>(i));
  }
  const std::vector<double> ring =
      warehouse.runtime_samples(SiteId(1), job_class);
  ASSERT_EQ(ring.size(), 32u);
  EXPECT_DOUBLE_EQ(ring.front(), 8.0);  // 0..7 evicted
  EXPECT_DOUBLE_EQ(ring.back(), 39.0);
}

TEST(StragglerDetector, Verdicts) {
  core::DataWarehouse warehouse;
  const core::ServerConfig config = detector_config();
  core::StragglerDetector detector(warehouse, nullptr, config);
  const int job_class = core::job_class_of(60.0);

  // No samples anywhere: kNoData once past the min-elapsed floor.
  core::JobRecord job = running_job(SiteId(2), 60.0, 0.0);
  EXPECT_EQ(detector.classify(job, minutes(10)),
            core::StragglerVerdict::kNoData);

  for (int i = 0; i < 8; ++i) {
    warehouse.record_runtime_sample(SiteId(1), job_class, 400.0);
  }
  // Below the floor: too young regardless of samples.
  EXPECT_EQ(detector.classify(job, minutes(2)),
            core::StragglerVerdict::kTooYoung);
  // Never planned: too young.
  core::JobRecord unplanned = running_job(SiteId(2), 60.0, kNever);
  EXPECT_EQ(detector.classify(unplanned, minutes(30)),
            core::StragglerVerdict::kTooYoung);
  // Past the floor but inside 2 x p95: healthy.
  EXPECT_EQ(detector.classify(job, 700.0), core::StragglerVerdict::kHealthy);
  // Past the threshold: straggler.
  EXPECT_EQ(detector.classify(job, 900.0),
            core::StragglerVerdict::kStraggler);
}

TEST(StragglerDetector, StaleMonitoringDeclinesClassification) {
  // A detector wired to a monitoring service that has never published
  // (age = kNever > stale_after) must refuse to judge the site: a dark
  // grid makes every job look like a straggler, and that failure mode
  // belongs to the tracker timeout, not to replication.
  exp::ScenarioConfig scenario_config;
  scenario_config.seed = 5;
  scenario_config.site_failures = false;
  scenario_config.background_load = false;
  exp::Scenario scenario(scenario_config);  // not started: no polls ever

  core::DataWarehouse warehouse;
  const core::ServerConfig config = detector_config();
  core::StragglerDetector detector(warehouse, &scenario.monitoring(), config);
  const int job_class = core::job_class_of(60.0);
  for (int i = 0; i < 8; ++i) {
    warehouse.record_runtime_sample(SiteId(1), job_class, 400.0);
  }
  const core::JobRecord job = running_job(SiteId(1), 60.0, 0.0);
  EXPECT_EQ(detector.classify(job, 900.0),
            core::StragglerVerdict::kStaleMonitor);
}

// --- warehouse: race bookkeeping --------------------------------------------

workflow::Dag one_job_dag() {
  workflow::Dag dag(DagId(1), "d");
  workflow::JobSpec job;
  job.id = JobId(1);
  job.name = "j";
  job.compute_time = 60.0;
  job.output = "lfn://out";
  job.output_bytes = 1e6;
  dag.add_job(job);
  return dag;
}

TEST(SpeculationWarehouse, OpenRaceRetargetsJobRowAtReplica) {
  core::DataWarehouse warehouse;
  warehouse.insert_dag(one_job_dag(), "client", UserId(1), 0.0);
  warehouse.set_job_planned(JobId(1), SiteId(1), 10.0);
  warehouse.set_job_state(JobId(1), core::JobState::kSubmitted);
  warehouse.set_job_state(JobId(1), core::JobState::kRunning);

  warehouse.speculate_job(JobId(1), SiteId(2), 500.0);
  const auto job = warehouse.job(JobId(1));
  ASSERT_TRUE(job.has_value());
  EXPECT_EQ(job->site, SiteId(2));
  EXPECT_EQ(job->attempt, 2);
  EXPECT_EQ(job->state, core::JobState::kPlanned);
  EXPECT_DOUBLE_EQ(job->planned_at, 500.0);

  const auto race = warehouse.active_speculation(JobId(1));
  ASSERT_TRUE(race.has_value());
  EXPECT_EQ(race->primary_site, SiteId(1));
  EXPECT_EQ(race->primary_attempt, 1);
  EXPECT_EQ(race->spec_site, SiteId(2));
  EXPECT_EQ(race->spec_attempt, 2);
  EXPECT_EQ(race->state, core::SpeculationState::kRacing);
  EXPECT_DOUBLE_EQ(race->primary_planned_at, 10.0);

  // Both attempts are outstanding: the racing row carries the primary's
  // unit, the job row the replica's.
  EXPECT_EQ(warehouse.outstanding_on_site(SiteId(1)), 1);
  EXPECT_EQ(warehouse.outstanding_on_site(SiteId(2)), 1);
  EXPECT_EQ(warehouse.outstanding_by_site(),
            warehouse.scan_outstanding_by_site());
  EXPECT_NO_THROW(warehouse.check_invariants());
  EXPECT_EQ(warehouse.racing_speculations().size(), 1u);
}

TEST(SpeculationWarehouse, SpecDeadKeepsBurntAttempt) {
  core::DataWarehouse warehouse;
  warehouse.insert_dag(one_job_dag(), "client", UserId(1), 0.0);
  warehouse.set_job_planned(JobId(1), SiteId(1), 10.0);
  warehouse.set_job_state(JobId(1), core::JobState::kSubmitted);
  warehouse.speculate_job(JobId(1), SiteId(2), 500.0);

  warehouse.resolve_speculation(JobId(1), core::SpeculationState::kSpecDead);
  const auto job = warehouse.job(JobId(1));
  ASSERT_TRUE(job.has_value());
  // Back on the primary site but the replica's attempt number stays
  // burnt: reusing it would collide with the client's (job, attempt)
  // duplicate guard.
  EXPECT_EQ(job->site, SiteId(1));
  EXPECT_EQ(job->attempt, 2);
  EXPECT_EQ(warehouse.outstanding_on_site(SiteId(1)), 1);
  EXPECT_EQ(warehouse.outstanding_on_site(SiteId(2)), 0);
  EXPECT_FALSE(warehouse.active_speculation(JobId(1)).has_value());
  const auto last = warehouse.latest_speculation(JobId(1));
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(last->state, core::SpeculationState::kSpecDead);

  // A later replan must mint attempt 3, never reuse 2.
  warehouse.set_job_state(JobId(1), core::JobState::kCancelled);
  warehouse.set_job_state(JobId(1), core::JobState::kUnplanned);
  warehouse.set_job_planned(JobId(1), SiteId(3), 900.0);
  EXPECT_EQ(warehouse.job(JobId(1))->attempt, 3);
  EXPECT_NO_THROW(warehouse.check_invariants());
}

TEST(SpeculationWarehouse, WinRetiresLoserUnit) {
  core::DataWarehouse warehouse;
  warehouse.insert_dag(one_job_dag(), "client", UserId(1), 0.0);
  warehouse.set_job_planned(JobId(1), SiteId(1), 10.0);
  warehouse.set_job_state(JobId(1), core::JobState::kSubmitted);
  warehouse.speculate_job(JobId(1), SiteId(2), 500.0);
  warehouse.set_job_state(JobId(1), core::JobState::kSubmitted);

  warehouse.resolve_speculation(JobId(1), core::SpeculationState::kSpecWon);
  // The primary's unit (held by the racing row) retired; the replica's
  // stays until the job row itself completes.
  EXPECT_EQ(warehouse.outstanding_on_site(SiteId(1)), 0);
  EXPECT_EQ(warehouse.outstanding_on_site(SiteId(2)), 1);
  warehouse.set_job_state(JobId(1), core::JobState::kCompleted);
  EXPECT_EQ(warehouse.outstanding_on_site(SiteId(2)), 0);
  EXPECT_NO_THROW(warehouse.check_invariants());
}

TEST(SpeculationWarehouse, RaceStateSurvivesJournalRecovery) {
  core::DataWarehouse warehouse;
  warehouse.insert_dag(one_job_dag(), "client", UserId(1), 0.0);
  warehouse.set_job_planned(JobId(1), SiteId(1), 10.0);
  warehouse.set_job_state(JobId(1), core::JobState::kSubmitted);
  warehouse.speculate_job(JobId(1), SiteId(2), 500.0);
  warehouse.record_runtime_sample(SiteId(1), 6, 123.0);

  const auto recovered = core::DataWarehouse::recover_from(warehouse.journal());
  ASSERT_TRUE(recovered.has_value());
  const auto race = (*recovered)->active_speculation(JobId(1));
  ASSERT_TRUE(race.has_value());
  EXPECT_EQ(race->primary_attempt, 1);
  EXPECT_EQ(race->spec_attempt, 2);
  EXPECT_EQ((*recovered)->job(JobId(1))->attempt, 2);
  EXPECT_EQ((*recovered)->outstanding_by_site(),
            (*recovered)->scan_outstanding_by_site());
  EXPECT_EQ((*recovered)->runtime_samples(SiteId(1), 6),
            std::vector<double>{123.0});
  EXPECT_NO_THROW((*recovered)->check_invariants());
}

// --- end-to-end races -------------------------------------------------------

struct RaceRun {
  std::size_t dags_total = 0;
  std::size_t dags_finished = 0;
  core::TrackerStats tracker;
  core::ServerStats server;
  std::string journal;
  std::string trace;
};

/// One tenant on a degraded-heavy grid (long black-hole/degraded
/// outages), optionally under a lossy + duplicating + reordering wire
/// for the whole run.
RaceRun run_race(std::uint64_t seed, bool speculate, bool lossy,
                 Duration monitor_poll = minutes(5)) {
  chaos::ScheduleConfig weights = chaos::straggler_schedule_defaults();
  const chaos::ChaosSchedule schedule =
      chaos::synthesize(seed, weights, exp::Scenario::site_names());

  exp::ScenarioConfig config;
  config.seed = seed;
  config.site_failures = false;
  config.background_load = false;
  config.outage_schedules = schedule.outages;
  config.monitor.poll_period = monitor_poll;
  if (lossy) {
    rpc::LinkFaultRule rule;  // empty prefixes: every link, whole run
    rule.loss = 0.05;
    rule.duplicate = 0.08;
    rule.reorder = 0.1;
    config.network_faults.rules.push_back(rule);
  }
  exp::Scenario scenario(config);
  exp::TenantOptions options;
  options.speculate = speculate;
  scenario.add_tenant("race", options);

  workflow::WorkloadConfig workload;
  workload.jobs_per_dag = 6;
  auto generator = scenario.make_generator("race", workload);
  const std::vector<workflow::Dag> dags = generator.generate_batch("race", 6);
  scenario.start();
  for (std::size_t k = 0; k < dags.size(); ++k) {
    const workflow::Dag& dag = dags[k];
    scenario.engine().schedule_at(
        10.0 + 15.0 * static_cast<double>(k), "submit:" + dag.name(),
        [&scenario, &dag] { scenario.tenants()[0].client->submit(dag); });
  }
  scenario.run(hours(24));

  const exp::Tenant& tenant = scenario.tenants()[0];
  tenant.server->warehouse().check_invariants();
  scenario.engine().check_invariants();
  RaceRun run;
  run.dags_total = tenant.client->dag_outcomes().size();
  run.dags_finished = tenant.client->dags_finished();
  run.tracker = tenant.client->tracker_stats();
  run.server = tenant.server->stats();
  run.journal = tenant.server->warehouse().journal().serialize();
  run.trace = scenario.recorder().trace().to_jsonl();
  return run;
}

/// Whether a seed's outage draws actually trap a job long enough to
/// trigger a race depends on the schedule, so the e2e tests scan a
/// bounded seed range for a triggering run instead of pinning one
/// brittle seed.  Returns the first run matching `pred` (and asserts
/// every scanned run kept its invariants -- run_race checks them).
template <typename Pred>
std::optional<RaceRun> find_run(bool lossy, Duration monitor_poll,
                                Pred&& pred) {
  for (std::uint64_t seed = 11; seed < 41; ++seed) {
    RaceRun run = run_race(seed, true, lossy, monitor_poll);
    if (pred(run)) return run;
  }
  return std::nullopt;
}

TEST(StragglerE2E, RacesResolveFirstCompletionWins) {
  const auto found = find_run(false, minutes(5), [](const RaceRun& r) {
    return r.server.speculations > 0;
  });
  ASSERT_TRUE(found.has_value()) << "no seed in range triggered a race";
  const RaceRun& run = *found;
  EXPECT_EQ(run.dags_finished, run.dags_total);
  // Every race resolves to exactly one of the four terminal states; the
  // won counters can never exceed the launches.
  EXPECT_LE(run.server.speculations_won_primary +
                run.server.speculations_won_spec,
            run.server.speculations);
  // A win retires the loser through the cancel path.
  EXPECT_EQ(run.server.speculation_cancels,
            run.server.speculations_won_primary +
                run.server.speculations_won_spec);
  EXPECT_LE(run.tracker.race_cancels, run.server.speculation_cancels);
  EXPECT_GE(run.tracker.speculative_plans, 1u);
}

TEST(StragglerE2E, LossyWireCrossDeliveryIsArbitratedAway) {
  // Loss, duplication and reorder on every link: completion and cancel
  // reports cross, duplicate, and arrive out of order.  The client's
  // first-completion arbitration plus the server's attempt guards must
  // keep the run clean: every DAG finishes, no plan executes twice, and
  // the race counters stay consistent.
  const auto found = find_run(true, minutes(5), [](const RaceRun& r) {
    return r.server.speculations > 0;
  });
  ASSERT_TRUE(found.has_value()) << "no seed in range triggered a race";
  const RaceRun& run = *found;
  EXPECT_EQ(run.dags_finished, run.dags_total);
  EXPECT_EQ(run.tracker.submissions,
            run.tracker.plans_received - run.tracker.duplicate_plans);
  EXPECT_LE(run.server.speculations_won_primary +
                run.server.speculations_won_spec,
            run.server.speculations);
}

TEST(StragglerE2E, SameSeedIsByteIdentical) {
  const RaceRun a = run_race(13, true, true);
  const RaceRun b = run_race(13, true, true);
  EXPECT_EQ(a.journal, b.journal);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.server.speculations, b.server.speculations);
}

TEST(StragglerE2E, StaleMonitoringSuppressesSpeculation) {
  // Monitoring polls far slower than speculation_stale_after (45 min):
  // the detector must decline every classification and count the skips
  // instead of launching replicas on unjudgeable data.
  const auto found = find_run(false, hours(12), [](const RaceRun& r) {
    // Stale monitoring must never co-exist with a launch.
    EXPECT_EQ(r.server.speculations, 0u);
    return r.server.detector_stale_skips > 0;
  });
  ASSERT_TRUE(found.has_value())
      << "no seed in range trapped a job long enough to consult the guard";
}

TEST(StragglerE2E, SpeculationOffLaunchesNothing) {
  const RaceRun run = run_race(11, false, false);
  EXPECT_EQ(run.server.speculations, 0u);
  EXPECT_EQ(run.tracker.speculative_plans, 0u);
  EXPECT_EQ(run.tracker.race_cancels, 0u);
}

// --- A/B tail-latency gate --------------------------------------------------

TEST(StragglerProbe, SpeculationImprovesTailUnderLongTailGrid) {
  chaos::StragglerProbeConfig config;
  config.seed = 977;
  config.schedule = chaos::straggler_schedule_defaults();
  const chaos::StragglerProbeResult result =
      chaos::run_straggler_probe(config);
  ASSERT_GT(result.on.speculations, 0u);
  EXPECT_GE(result.on.dags_finished, result.off.dags_finished);
  EXPECT_LE(result.on.timeouts, result.off.timeouts);
  EXPECT_LT(percentile(result.on.dag_completions, 0.99),
            percentile(result.off.dag_completions, 0.99));
}

TEST(StragglerProbe, ProbeIsDeterministic) {
  chaos::StragglerProbeConfig config;
  config.seed = 978;
  config.schedule = chaos::straggler_schedule_defaults();
  const chaos::StragglerProbeResult a = chaos::run_straggler_probe(config);
  const chaos::StragglerProbeResult b = chaos::run_straggler_probe(config);
  EXPECT_EQ(a.off.digest, b.off.digest);
  EXPECT_EQ(a.on.digest, b.on.digest);
  EXPECT_NE(a.off.digest, a.on.digest);  // the defense actually acted
}

// --- mid-race crashes -------------------------------------------------------

TEST(StragglerChaos, MidRaceCrashRecoveryIsByteInvisible) {
  // Long-tail outage schedule with speculation on: races are open for
  // much of the run.  Crash + journal-recover the server at every
  // journal record and demand byte-equality with the uninterrupted
  // baseline each time -- open races, sample rings, the detector's
  // cadence cursor and the strategy cursor a speculative plan advanced
  // must all re-arm exactly.  Both strategies with a cursor run:
  // completion-time (warm-up cursor) and round-robin.
  for (const core::Algorithm algorithm :
       {core::Algorithm::kCompletionTime, core::Algorithm::kRoundRobin}) {
    SCOPED_TRACE(core::to_string(algorithm));
    chaos::ChaosRunConfig config;
    config.seed = 211;
    config.dag_count = 3;
    config.jobs_per_dag = 5;
    config.horizon = hours(24);
    config.algorithm = algorithm;
    config.speculate = true;
    config.schedule = chaos::straggler_schedule_defaults();

    chaos::ChaosSchedule schedule = chaos::synthesize_schedule(config);
    schedule.crash_records.clear();
    schedule.mid_ckpt_crashes.clear();
    const chaos::ChaosRunResult probe = chaos::run_chaos_pair(config, schedule);
    ASSERT_TRUE(probe.ok()) << probe.violation();
    ASSERT_GT(probe.speculations, 0u) << "schedule never triggered a race";
    const std::size_t total = probe.journal_records;
    ASSERT_GT(total, 20u);

    for (std::size_t at = 1; at < total; ++at) {
      chaos::ChaosSchedule crashed = schedule;
      crashed.crash_records = {at};
      const chaos::ChaosRunResult result =
          chaos::run_chaos_pair(config, crashed);
      EXPECT_TRUE(result.ok())
          << "crash at record " << at << ": " << result.violation();
    }
  }
}

TEST(StragglerChaos, ReproJsonRoundTripsSpeculateFlag) {
  chaos::ReproCase repro;
  repro.config.seed = 42;
  repro.config.speculate = true;
  repro.violation = "v";
  const auto parsed = chaos::repro_from_json(chaos::to_json(repro));
  ASSERT_TRUE(parsed.has_value()) << parsed.error().to_string();
  EXPECT_TRUE(parsed->config.speculate);
  EXPECT_EQ(parsed->config.seed, 42u);
}

}  // namespace
}  // namespace sphinx
