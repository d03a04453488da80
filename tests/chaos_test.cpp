// Chaos harness tests: crash-recovery kill-point sweeps, campaign
// determinism, the schedule minimizer, and the chaos_repro.json
// round-trip.  The injected-divergence tests prove the oracles actually
// fire: a deliberately corrupted recovery must fail the differential
// oracle, auto-minimize, and replay to the same failure.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "chaos/campaign.hpp"
#include "chaos/json.hpp"
#include "chaos/minimize.hpp"
#include "chaos/schedule.hpp"
#include "exp/scenario.hpp"

namespace sphinx {
namespace {

/// Small fixed-shape run: two DAGs, light outage plan, one crash.
chaos::ChaosRunConfig tiny_chaos(std::uint64_t seed) {
  chaos::ChaosRunConfig config;
  config.seed = seed;
  config.dag_count = 2;
  config.jobs_per_dag = 4;
  config.horizon = hours(10);
  config.schedule.span = hours(4);
  config.schedule.outages = 4;
  config.schedule.bursts = 1;
  config.schedule.burst_sites = 2;
  config.schedule.crashes = 1;
  config.schedule.min_crash_record = 30;
  config.schedule.max_crash_record = 200;
  return config;
}

// --- kill-point sweep -------------------------------------------------------

TEST(ChaosKillPoints, RecoveryIsTransparentAtEveryNthRecord) {
  // Probe the uninterrupted run's journal length, then crash/recover at
  // every Nth record position and demand byte-equality with the
  // baseline each time.
  chaos::ChaosRunConfig config = tiny_chaos(91);
  chaos::ChaosSchedule outages_only = chaos::synthesize_schedule(config);
  outages_only.crash_records.clear();
  const chaos::ChaosRunResult probe =
      chaos::run_chaos_pair(config, outages_only);
  ASSERT_TRUE(probe.ok()) << probe.violation();
  const std::size_t total = probe.journal_records;
  ASSERT_GT(total, 50u);

  const std::size_t step = std::max<std::size_t>(total / 8, 1);
  std::size_t crashes_seen = 0;
  for (std::size_t at = step; at < total; at += step) {
    chaos::ChaosSchedule schedule = outages_only;
    schedule.crash_records = {at};
    const chaos::ChaosRunResult result =
        chaos::run_chaos_pair(config, schedule);
    EXPECT_TRUE(result.ok())
        << "crash at record " << at << ": " << result.violation();
    crashes_seen += result.crashes_executed;
  }
  // The sweep actually exercised recovery (kill points within the
  // journal's range all fire).
  EXPECT_GE(crashes_seen, total / step - 1);
}

TEST(ChaosKillPoints, BackToBackCrashesRecover) {
  chaos::ChaosRunConfig config = tiny_chaos(17);
  chaos::ChaosSchedule schedule = chaos::synthesize_schedule(config);
  schedule.crash_records = {40, 80, 120};
  const chaos::ChaosRunResult result = chaos::run_chaos_pair(config, schedule);
  EXPECT_TRUE(result.ok()) << result.violation();
  // The three regular points and the synthesized mid-checkpoint point
  // all fire.
  ASSERT_EQ(schedule.mid_ckpt_crashes.size(), 1u);
  EXPECT_EQ(result.crashes_executed, 4u);
}

TEST(ChaosKillPoints, BackToBackCrashesWithMidCheckpointSecond) {
  // Two crashes in sequence where the second lands inside the checkpoint
  // window -- after the image is published, before the journal is
  // truncated.  The second recovery therefore starts from a server that
  // was itself recovered from a checkpoint.
  chaos::ChaosRunConfig config = tiny_chaos(17);
  chaos::ChaosSchedule schedule = chaos::synthesize_schedule(config);
  schedule.crash_records = {40};
  schedule.mid_ckpt_crashes = {80};
  const chaos::ChaosRunResult result = chaos::run_chaos_pair(config, schedule);
  EXPECT_TRUE(result.ok()) << result.violation();
  EXPECT_EQ(result.crashes_executed, 2u);
}

TEST(ChaosKillPoints, MidCheckpointCrashSweepIsTransparent) {
  // Sweep the mid-checkpoint kill window across the run: at each probed
  // position, the kill fires between checkpoint publication and journal
  // truncation, so recovery must complete the truncation itself and
  // still match the baseline byte for byte.
  chaos::ChaosRunConfig config = tiny_chaos(91);
  chaos::ChaosSchedule outages_only = chaos::synthesize_schedule(config);
  outages_only.crash_records.clear();
  outages_only.mid_ckpt_crashes.clear();
  const chaos::ChaosRunResult probe =
      chaos::run_chaos_pair(config, outages_only);
  ASSERT_TRUE(probe.ok()) << probe.violation();
  const std::size_t total = probe.journal_records;
  ASSERT_GT(total, 50u);
  // Compaction held on the probe itself: the live journal is a strict
  // suffix of the history (memory is O(state), not O(history)).
  EXPECT_LT(probe.journal_live_records, probe.journal_records);

  const std::size_t step = std::max<std::size_t>(total / 6, 1);
  std::size_t positions = 0;
  std::size_t crashes_seen = 0;
  for (std::size_t at = step; at < total; at += step) {
    chaos::ChaosSchedule schedule = outages_only;
    schedule.mid_ckpt_crashes = {at};
    const chaos::ChaosRunResult result =
        chaos::run_chaos_pair(config, schedule);
    EXPECT_TRUE(result.ok())
        << "mid-checkpoint crash at record " << at << ": "
        << result.violation();
    ++positions;
    crashes_seen += result.crashes_executed;
  }
  // Every position fires, those in the run's tail inside its last
  // checkpoint.
  EXPECT_EQ(crashes_seen, positions);
}

TEST(ChaosKillPoints, MidCheckpointPointsPastTheLastCheckpointFire) {
  // Two mid-checkpoint points drawn past every checkpoint of the run,
  // plus a regular point in the same tail: the campaign arms the mid
  // points on the run's last two checkpoints, the regular one fires at
  // its record, and all three recoveries stay transparent.
  chaos::ChaosRunConfig config = tiny_chaos(91);
  chaos::ChaosSchedule schedule = chaos::synthesize_schedule(config);
  schedule.crash_records.clear();
  schedule.mid_ckpt_crashes.clear();
  const chaos::ChaosRunResult probe = chaos::run_chaos_pair(config, schedule);
  ASSERT_TRUE(probe.ok()) << probe.violation();
  const std::size_t total = probe.journal_records;

  schedule.crash_records = {total - 1};
  schedule.mid_ckpt_crashes = {total + 1, total + 50};
  const chaos::ChaosRunResult result = chaos::run_chaos_pair(config, schedule);
  EXPECT_TRUE(result.ok()) << result.violation();
  EXPECT_EQ(result.crashes_executed, 3u);
  // The result keeps the schedule as drawn; only the run arms it moved.
  EXPECT_EQ(result.schedule.mid_ckpt_crashes, schedule.mid_ckpt_crashes);
}

TEST(ChaosKillPoints, CrashAtTheFirstRecordRecoversWithoutAnImage) {
  // The first journal record lands in the first submission's handler,
  // before any sweep could publish an image, so a crash there recovers
  // by replaying the whole journal onto the declared tables.  The
  // recovered run must still match its uninterrupted baseline byte for
  // byte: terminal journal and trace, minus the crash markers.
  const auto run = [](bool crash) {
    exp::ScenarioConfig scenario_config;
    scenario_config.seed = 17;
    scenario_config.site_failures = false;
    scenario_config.background_load = false;
    auto scenario = std::make_unique<exp::Scenario>(scenario_config);
    exp::Tenant& tenant = scenario->add_tenant("t", exp::TenantOptions{});
    workflow::WorkloadConfig workload;
    workload.jobs_per_dag = 4;
    auto generator = scenario->make_generator("w", workload);
    scenario->start();
    for (int i = 0; i < 2; ++i) {
      const workflow::Dag dag =
          generator.generate("first-record-" + std::to_string(i));
      scenario->engine().schedule_at(
          exp::kFirstSubmitAt + i * exp::kSubmitSpacing, "submit",
          [&tenant, dag] { tenant.client->submit(dag); });
    }
    if (crash) {
      exp::Scenario* s = scenario.get();
      tenant.server->arm_crash_hook(1, [s] {
        s->engine().schedule_at(s->engine().now(), "crash", [s] {
          const core::DataWarehouse& crashed =
              s->tenants()[0].server->warehouse();
          EXPECT_EQ(crashed.durable().image, nullptr);
          EXPECT_EQ(crashed.journal().base_seq(), 0u);
          EXPECT_GT(crashed.journal().size(), 0u);
          ASSERT_TRUE(s->crash_and_recover_server(0).ok());
        });
      });
    }
    scenario->run(hours(10));
    return scenario;
  };

  const auto baseline = run(false);
  const auto crashed = run(true);
  const std::string trace = crashed->recorder().trace().to_jsonl();
  EXPECT_NE(trace.find("\"detail\":\"journal-replay\""), std::string::npos);
  EXPECT_EQ(trace.find("\"detail\":\"checkpoint+suffix\""), std::string::npos);
  EXPECT_TRUE(crashed->tenants()[0].client->all_dags_finished());
  EXPECT_EQ(crashed->tenants()[0].server->warehouse().journal().serialize(),
            baseline->tenants()[0].server->warehouse().journal().serialize());
  EXPECT_EQ(chaos::strip_chaos_events(trace),
            chaos::strip_chaos_events(baseline->recorder().trace().to_jsonl()));
}

// --- campaigns --------------------------------------------------------------

TEST(ChaosCampaign, SmokeCampaignIsGreenAndByteIdentical) {
  chaos::CampaignConfig config;
  config.base = tiny_chaos(1);
  config.runs = 6;
  const chaos::CampaignResult first = chaos::run_campaign(config);
  const chaos::CampaignResult second = chaos::run_campaign(config);

  EXPECT_EQ(first.failures, 0);
  for (const chaos::ChaosRunResult& result : first.results) {
    EXPECT_TRUE(result.ok()) << "seed " << result.seed << ": "
                             << result.violation();
  }
  // Same campaign, two invocations: identical digests run by run.
  EXPECT_EQ(first.digest, second.digest);
  ASSERT_EQ(first.results.size(), second.results.size());
  for (std::size_t i = 0; i < first.results.size(); ++i) {
    EXPECT_EQ(first.results[i].digest, second.results[i].digest);
  }
}

TEST(ChaosCampaign, FiftySeededRunsAllGreen) {
  // The acceptance sweep: 50 seeded runs, every oracle green, and the
  // combined digest reproducible across invocations.
  chaos::CampaignConfig config;
  config.base = tiny_chaos(1000);
  config.runs = 50;
  const chaos::CampaignResult first = chaos::run_campaign(config);
  EXPECT_EQ(first.failures, 0);
  EXPECT_TRUE(first.repros.empty());
  const chaos::CampaignResult second = chaos::run_campaign(config);
  EXPECT_EQ(first.digest, second.digest);
}

// --- minimizer --------------------------------------------------------------

TEST(ChaosMinimize, ShrinksToThePlantedCore) {
  // Synthetic predicate: the failure needs the "acdc" outage at t=100
  // together with any crash at record >= 60.  Everything else is noise
  // the minimizer must discard.
  chaos::ChaosSchedule schedule;
  for (int i = 0; i < 4; ++i) {
    schedule.outages["fnal"].push_back(
        {1000.0 + 200.0 * i, 50.0, grid::OutageMode::kDown});
  }
  schedule.outages["acdc"].push_back({100.0, 30.0, grid::OutageMode::kDown});
  schedule.outages["acdc"].push_back({900.0, 30.0, grid::OutageMode::kDegraded});
  schedule.crash_records = {45, 140, 700};

  int evaluations = 0;
  const auto fails = [&evaluations](const chaos::ChaosSchedule& candidate) {
    ++evaluations;
    bool has_outage = false;
    if (const auto it = candidate.outages.find("acdc");
        it != candidate.outages.end()) {
      for (const auto& outage : it->second) {
        if (outage.at == 100.0) has_outage = true;
      }
    }
    bool has_crash = false;
    for (const std::size_t record : candidate.crash_records) {
      if (record >= 60) has_crash = true;
    }
    return has_outage && has_crash;
  };

  ASSERT_TRUE(fails(schedule));
  const chaos::ChaosSchedule minimized =
      chaos::minimize_schedule(schedule, fails);
  EXPECT_TRUE(fails(minimized));
  EXPECT_EQ(minimized.outage_count(), 1u);
  ASSERT_EQ(minimized.crash_records.size(), 1u);
  // Bisection walks the surviving crash down to the smallest failing
  // record position.
  EXPECT_EQ(minimized.crash_records[0], 60u);
  EXPECT_GT(evaluations, 0);
}

TEST(ChaosMinimize, PrunesAndBisectsMidCheckpointCrashes) {
  // A failure that hinges on one mid-checkpoint kill: the minimizer must
  // discard the outage noise and every regular crash, keep a single mid
  // point, and bisect it down to the smallest record that reproduces.
  chaos::ChaosSchedule schedule;
  schedule.outages["fnal"].push_back({100.0, 50.0, grid::OutageMode::kDown});
  schedule.crash_records = {45, 700};
  schedule.mid_ckpt_crashes = {90, 500};

  const auto fails = [](const chaos::ChaosSchedule& candidate) {
    for (const std::size_t record : candidate.mid_ckpt_crashes) {
      if (record >= 70) return true;
    }
    return false;
  };
  ASSERT_TRUE(fails(schedule));
  const chaos::ChaosSchedule minimized =
      chaos::minimize_schedule(schedule, fails);
  EXPECT_TRUE(fails(minimized));
  EXPECT_EQ(minimized.outage_count(), 0u);
  EXPECT_TRUE(minimized.crash_records.empty());
  ASSERT_EQ(minimized.mid_ckpt_crashes.size(), 1u);
  EXPECT_EQ(minimized.mid_ckpt_crashes[0], 70u);
}

// --- network-fault windows --------------------------------------------------

TEST(ChaosNetWindows, SynthesisIsSeededSortedAndConfigurable) {
  chaos::ChaosRunConfig config = tiny_chaos(33);
  config.schedule.net_windows = 3;
  config.schedule.net_partitions = 2;
  const chaos::ChaosSchedule a = chaos::synthesize_schedule(config);
  const chaos::ChaosSchedule b = chaos::synthesize_schedule(config);
  EXPECT_EQ(chaos::to_json(a), chaos::to_json(b));
  ASSERT_EQ(a.net_windows.size(), 5u);
  std::size_t partitions = 0;
  for (std::size_t i = 0; i < a.net_windows.size(); ++i) {
    const chaos::NetFaultWindow& window = a.net_windows[i];
    if (i > 0) {
      EXPECT_LE(a.net_windows[i - 1].at, window.at);
    }
    EXPECT_GE(window.at, 0.0);
    EXPECT_LT(window.at, config.schedule.span);
    if (window.partition) {
      ++partitions;
      EXPECT_DOUBLE_EQ(window.duration, chaos::kNetPartitionDuration);
    } else {
      EXPECT_GE(window.duration, chaos::kNetMinDuration);
      EXPECT_DOUBLE_EQ(window.loss, config.schedule.net_loss);
      EXPECT_DOUBLE_EQ(window.duplicate, config.schedule.net_duplicate);
      EXPECT_DOUBLE_EQ(window.reorder, config.schedule.net_reorder);
    }
  }
  EXPECT_EQ(partitions, 2u);

  config.schedule.net_windows = 0;
  config.schedule.net_partitions = 0;
  EXPECT_TRUE(chaos::synthesize_schedule(config).net_windows.empty());
}

TEST(ChaosNetWindows, JsonRoundTripPreservesWindows) {
  chaos::ChaosSchedule schedule;
  chaos::NetFaultWindow lossy;
  lossy.at = 120.5;
  lossy.duration = 300.0;
  lossy.loss = 0.08;
  lossy.duplicate = 0.03;
  lossy.reorder = 0.1;
  lossy.reorder_spike = 7.5;
  chaos::NetFaultWindow cut;
  cut.at = 900.0;
  cut.duration = 60.0;
  cut.partition = true;
  schedule.net_windows = {lossy, cut};

  const std::string json = chaos::to_json(schedule);
  const auto parsed = chaos::schedule_from_json(json);
  ASSERT_TRUE(parsed.has_value()) << parsed.error().to_string();
  ASSERT_EQ(parsed->net_windows.size(), 2u);
  EXPECT_DOUBLE_EQ(parsed->net_windows[0].loss, 0.08);
  EXPECT_DOUBLE_EQ(parsed->net_windows[0].reorder_spike, 7.5);
  EXPECT_FALSE(parsed->net_windows[0].partition);
  EXPECT_TRUE(parsed->net_windows[1].partition);
  EXPECT_EQ(chaos::to_json(*parsed), json);
}

TEST(ChaosNetWindows, LossyWireRunStaysDifferentiallyClean) {
  // An aggressive loss/duplication window plus a partition on top of the
  // synthesized plan: recovery must still be byte-transparent because
  // the same wire faults hit the chaotic and baseline runs alike.
  chaos::ChaosRunConfig config = tiny_chaos(57);
  chaos::ChaosSchedule schedule = chaos::synthesize_schedule(config);
  chaos::NetFaultWindow storm;
  storm.at = 60.0;
  storm.duration = hours(1);
  storm.loss = 0.2;
  storm.duplicate = 0.1;
  storm.reorder = 0.1;
  chaos::NetFaultWindow cut;
  cut.at = 600.0;
  cut.duration = 60.0;
  cut.partition = true;
  schedule.net_windows.push_back(storm);
  schedule.net_windows.push_back(cut);
  const chaos::ChaosRunResult result = chaos::run_chaos_pair(config, schedule);
  EXPECT_TRUE(result.ok()) << result.violation();
}

TEST(ChaosMinimize, PrunesIrrelevantNetWindows) {
  chaos::ChaosSchedule schedule;
  for (int i = 0; i < 3; ++i) {
    chaos::NetFaultWindow noise;
    noise.at = 100.0 * i;
    noise.duration = 30.0;
    noise.loss = 0.05;
    schedule.net_windows.push_back(noise);
  }
  chaos::NetFaultWindow culprit;
  culprit.at = 500.0;
  culprit.duration = 60.0;
  culprit.partition = true;
  schedule.net_windows.push_back(culprit);

  const auto fails = [](const chaos::ChaosSchedule& candidate) {
    for (const chaos::NetFaultWindow& window : candidate.net_windows) {
      if (window.partition) return true;
    }
    return false;
  };
  ASSERT_TRUE(fails(schedule));
  const chaos::ChaosSchedule minimized =
      chaos::minimize_schedule(schedule, fails);
  ASSERT_EQ(minimized.net_windows.size(), 1u);
  EXPECT_TRUE(minimized.net_windows[0].partition);
}

// --- repro round-trip -------------------------------------------------------

TEST(ChaosRepro, JsonRoundTripPreservesEverything) {
  chaos::ReproCase repro;
  repro.config = tiny_chaos(77);
  repro.config.algorithm = core::Algorithm::kRoundRobin;
  repro.config.background_load = true;
  repro.config.inject_divergence = true;
  repro.config.schedule.mid_ckpt_crashes = 2;
  repro.schedule = chaos::synthesize_schedule(repro.config);
  repro.violation = "differential: journal diverged at line 3";

  const std::string json = chaos::to_json(repro);
  const auto parsed = chaos::repro_from_json(json);
  ASSERT_TRUE(parsed.has_value()) << parsed.error().to_string();
  EXPECT_EQ(parsed->config.seed, repro.config.seed);
  EXPECT_EQ(parsed->config.dag_count, repro.config.dag_count);
  EXPECT_EQ(parsed->config.jobs_per_dag, repro.config.jobs_per_dag);
  EXPECT_EQ(parsed->config.algorithm, repro.config.algorithm);
  EXPECT_EQ(parsed->config.horizon, repro.config.horizon);
  EXPECT_EQ(parsed->config.background_load, repro.config.background_load);
  EXPECT_EQ(parsed->config.inject_divergence, repro.config.inject_divergence);
  EXPECT_EQ(parsed->schedule.mid_ckpt_crashes,
            repro.schedule.mid_ckpt_crashes);
  ASSERT_EQ(parsed->schedule.mid_ckpt_crashes.size(), 2u);
  EXPECT_EQ(parsed->violation, repro.violation);
  // The schedule is the real payload: byte-identical re-serialization.
  EXPECT_EQ(chaos::to_json(parsed->schedule), chaos::to_json(repro.schedule));
  EXPECT_EQ(chaos::to_json(*parsed), json);
}

TEST(ChaosRepro, RejectsMalformedInput) {
  EXPECT_FALSE(chaos::repro_from_json("not json").has_value());
  EXPECT_FALSE(chaos::repro_from_json("{}").has_value());
  EXPECT_FALSE(
      chaos::repro_from_json(R"({"config":{},"schedule":[]})").has_value());
  EXPECT_FALSE(chaos::schedule_from_json(R"({"crash_records":[-1]})")
                   .has_value());
  EXPECT_FALSE(chaos::schedule_from_json(R"({"mid_ckpt_crashes":[-1]})")
                   .has_value());
  EXPECT_FALSE(
      chaos::schedule_from_json(
          R"({"outages":{"x":[{"at":0,"duration":1,"mode":"melted"}]}})")
          .has_value());
}

/// A repro the reader accepts, with `schedule` substituted in and the
/// `config` members (each ending in a comma) placed first, so they win
/// over the defaults that follow.
std::string repro_text(const std::string& config, const std::string& schedule) {
  return R"({"config":{)" + config +
         R"("seed":7,"dag_count":3,"jobs_per_dag":6,)"
         R"("algorithm":"completion-time","horizon":86400},)"
         R"("violation":"","schedule":)" +
         schedule + "}";
}

TEST(ChaosRepro, AcceptsWhatTheCampaignWrites) {
  const auto parsed = chaos::repro_from_json(repro_text(
      R"("speculate":false,)",
      R"({"crash_records":[5,9],"net_windows":[{"at":0,"duration":60,)"
      R"("loss":1,"duplicate":0,"reorder":0.5,"spike":0}],)"
      R"("outages":{"ufgrid1":[{"at":0,"duration":0,"mode":"down"}]}})"));
  ASSERT_TRUE(parsed.has_value()) << parsed.error().to_string();
  EXPECT_EQ(parsed->config.seed, 7u);
  EXPECT_EQ(parsed->schedule.crash_records.size(), 2u);
}

TEST(ChaosRepro, RefusesNestingDeeperThanTheCap) {
  // 64 levels parse; a 65th is refused, and so is a document deep enough
  // to exhaust the stack of an uncapped recursive parser.
  EXPECT_TRUE(chaos::parse_json(std::string(64, '[') + std::string(64, ']'))
                  .has_value());
  EXPECT_FALSE(chaos::parse_json(std::string(65, '[') + std::string(65, ']'))
                   .has_value());
  EXPECT_FALSE(chaos::parse_json(std::string(100000, '[')).has_value());
  EXPECT_FALSE(
      chaos::repro_from_json(repro_text("", std::string(100000, '[')))
          .has_value());
}

TEST(ChaosRepro, RefusesSeedsAndCountsOutsideTheirType) {
  for (const char* config :
       {R"("dag_count":-3,)", R"("jobs_per_dag":2.5,)",
        R"("dag_count":3e9,)", R"("seed":-1,)", R"("seed":1.5,)",
        R"("seed":1e20,)", R"("seed":"7",)", R"("jobs_per_dag":1e300,)"}) {
    EXPECT_FALSE(chaos::repro_from_json(repro_text(config, "{}")).has_value())
        << config;
  }
  for (const char* schedule :
       {R"({"crash_records":[2.5]})", R"({"crash_records":[1e20]})",
        R"({"mid_ckpt_crashes":[0.5]})", R"({"crash_records":["3"]})"}) {
    EXPECT_FALSE(chaos::repro_from_json(repro_text("", schedule)).has_value())
        << schedule;
  }
}

TEST(ChaosRepro, RefusesNegativeTimes) {
  EXPECT_FALSE(
      chaos::repro_from_json(repro_text(R"("horizon":-1,)", "{}")).has_value());
  for (const char* schedule :
       {R"({"outages":{"ufgrid1":[{"at":0,"duration":-50,"mode":"down"}]}})",
        R"({"outages":{"ufgrid1":[{"at":-1,"duration":50,"mode":"down"}]}})",
        R"({"net_windows":[{"at":-5,"duration":60}]})",
        R"({"net_windows":[{"at":5,"duration":-60}]})",
        R"({"net_windows":[{"at":5,"duration":60,"spike":-1}]})"}) {
    EXPECT_FALSE(chaos::repro_from_json(repro_text("", schedule)).has_value())
        << schedule;
  }
}

TEST(ChaosRepro, RefusesProbabilitiesOutsideUnitInterval) {
  for (const char* schedule :
       {R"({"net_windows":[{"at":0,"duration":60,"loss":1.5}]})",
        R"({"net_windows":[{"at":0,"duration":60,"duplicate":-0.1}]})",
        R"({"net_windows":[{"at":0,"duration":60,"reorder":2}]})",
        R"({"net_windows":[{"at":0,"duration":60,"loss":"high"}]})"}) {
    EXPECT_FALSE(chaos::repro_from_json(repro_text("", schedule)).has_value())
        << schedule;
  }
}

TEST(ChaosRepro, RefusesOutagesOnSitesTheTestbedLacks) {
  const auto refused = chaos::repro_from_json(repro_text(
      "", R"({"outages":{"nowhere":[{"at":0,"duration":5,"mode":"down"}]}})"));
  ASSERT_FALSE(refused.has_value());
  EXPECT_NE(refused.error().to_string().find("nowhere"), std::string::npos);
}

// --- oracle end-to-end: injected divergence ---------------------------------

TEST(ChaosOracles, InjectedDivergenceMinimizesToReplayableRepro) {
  // Corrupt every recovery on purpose: the differential oracle must
  // fail, the campaign must auto-minimize, and the written repro must
  // replay to the same failure after a JSON round-trip.
  chaos::CampaignConfig config;
  config.base = tiny_chaos(7);
  config.base.inject_divergence = true;
  config.runs = 2;
  const chaos::CampaignResult campaign = chaos::run_campaign(config);
  EXPECT_GT(campaign.failures, 0);
  ASSERT_EQ(campaign.repros.size(), 1u);

  const chaos::ReproCase& repro = campaign.repros.front();
  EXPECT_FALSE(repro.violation.empty());
  // Minimization kept the failure reproducible and small: a corrupted
  // recovery needs exactly one crash, of either kind, and no outage at
  // all.
  ASSERT_EQ(repro.schedule.crash_records.size() +
                repro.schedule.mid_ckpt_crashes.size(),
            1u);
  EXPECT_EQ(repro.schedule.outage_count(), 0u);

  const auto parsed = chaos::repro_from_json(chaos::to_json(repro));
  ASSERT_TRUE(parsed.has_value()) << parsed.error().to_string();
  const chaos::ChaosRunResult replayed = chaos::replay(*parsed);
  EXPECT_FALSE(replayed.ok());
  EXPECT_EQ(replayed.violation(), repro.violation);
}

TEST(ChaosOracles, DifferentialReportsFirstDivergingLine) {
  chaos::ChaosRunConfig config = tiny_chaos(23);
  config.inject_divergence = true;
  chaos::ChaosSchedule schedule;
  schedule.crash_records = {60};
  const chaos::ChaosRunResult result = chaos::run_chaos_pair(config, schedule);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.invariants.ok) << result.invariants.violation;
  EXPECT_FALSE(result.differential.ok);
  EXPECT_NE(result.differential.violation.find("diverge"), std::string::npos)
      << result.differential.violation;
}

}  // namespace
}  // namespace sphinx
