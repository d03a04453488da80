#include "chaos/campaign.hpp"

#include <algorithm>
#include <exception>
#include <functional>
#include <utility>
#include <vector>

#include "chaos/json.hpp"
#include "chaos/minimize.hpp"
#include "common/contracts.hpp"
#include "exp/parallel.hpp"
#include "exp/scenario.hpp"
#include "obs/trace.hpp"

namespace sphinx::chaos {
namespace {

/// The straggler probe's fixed arm set-up: strategy, run horizon and
/// tracker timeout.  Outages in straggler_schedule_defaults() last longer
/// than the timeout, so without the defense a trapped job's only escape
/// is the timeout.
constexpr core::Algorithm kProbeAlgorithm = core::Algorithm::kCompletionTime;
constexpr SimTime kProbeHorizon = hours(24);
constexpr Duration kProbeJobTimeout = minutes(20);

/// The schedule's lossy-wire and partition windows as bus fault rules.
void add_net_faults(const ChaosSchedule& schedule,
                    exp::ScenarioConfig& scenario_config) {
  for (const NetFaultWindow& window : schedule.net_windows) {
    rpc::LinkFaultRule rule;
    rule.start = window.at;
    rule.end = window.at + window.duration;
    if (window.partition) {
      // Sever client<->server; rule matching is symmetric, so both
      // directions (and the "/out" reply endpoints) are covered.
      rule.from_prefix = "sphinx-client";
      rule.to_prefix = "sphinx-server";
      rule.partition = true;
    } else {
      rule.loss = window.loss;
      rule.duplicate = window.duplicate;
      rule.reorder = window.reorder;
      rule.reorder_spike = window.reorder_spike;
    }
    scenario_config.network_faults.rules.push_back(rule);
  }
}

/// Adds a run's one tenant as `label`, generates `dag_count` DAGs from
/// the `label` generator stream, starts the scenario and schedules the
/// tenant's submissions.  The DAGs returned must outlive the run: the
/// submit events refer to them.
std::vector<workflow::Dag> start_single_tenant(
    exp::Scenario& scenario, const std::string& label,
    const exp::TenantOptions& options, int jobs_per_dag, int dag_count) {
  scenario.add_tenant(label, options);
  workflow::WorkloadConfig workload;
  workload.jobs_per_dag = jobs_per_dag;
  auto generator = scenario.make_generator(label, workload);
  std::vector<workflow::Dag> dags = generator.generate_batch(label, dag_count);
  scenario.start();
  for (std::size_t k = 0; k < dags.size(); ++k) {
    const workflow::Dag& dag = dags[k];
    scenario.engine().schedule_at(
        exp::kFirstSubmitAt + static_cast<double>(k) * exp::kSubmitSpacing,
        "submit",
        [&scenario, &dag] { scenario.tenants()[0].client->submit(dag); });
  }
  return dags;
}

/// One simulation: the outage schedule always applies; crash points only
/// when `with_crashes` (the baseline runs the same grid uninterrupted).
RunArtifacts run_once(const ChaosRunConfig& config,
                      const ChaosSchedule& schedule, bool with_crashes,
                      std::size_t* crashes_executed) {
  exp::ScenarioConfig scenario_config;
  scenario_config.seed = config.seed;
  // The schedule owns all site misbehaviour; the seeded renewal process
  // stays off so the baseline/chaotic pair differs only in crashes.
  scenario_config.site_failures = false;
  scenario_config.background_load = config.background_load;
  scenario_config.outage_schedules = schedule.outages;
  // Network-fault windows apply to the chaotic AND the baseline run, so
  // the differential oracle checks crash recovery *under* a lossy wire
  // (same draws: the fault stream is seeded per scenario, and the two
  // runs issue identical sends).
  add_net_faults(schedule, scenario_config);
  exp::Scenario scenario(scenario_config);

  exp::TenantOptions options;
  options.algorithm = config.algorithm;
  options.checkpoint_every_records = config.checkpoint_every;
  options.speculate = config.speculate;
  // Single tenant: multiple tenants sweep at identical timestamps, and a
  // crash+recovery would reorder equal-time events across tenants --
  // byte-equality only holds within one tenant's event stream.
  const std::vector<workflow::Dag> dags = start_single_tenant(
      scenario, "chaos", options, config.jobs_per_dag, config.dag_count);

  // Crash chain: arm the next crash point on whatever server instance is
  // currently alive; the hook defers the actual kill to a fresh engine
  // event (a server cannot destroy itself from inside its own sweep),
  // then recovery re-arms the following point on the new instance.
  // Regular and mid-checkpoint points merge into one chain ordered by
  // record threshold (regular first on a tie: the stable sort keeps the
  // insertion order below).
  struct CrashPoint {
    std::size_t records;
    bool mid_checkpoint;
  };
  std::vector<CrashPoint> crash_points;
  crash_points.reserve(schedule.crash_records.size() +
                       schedule.mid_ckpt_crashes.size());
  for (const std::size_t records : schedule.crash_records) {
    crash_points.push_back({records, false});
  }
  for (const std::size_t records : schedule.mid_ckpt_crashes) {
    crash_points.push_back({records, true});
  }
  std::stable_sort(crash_points.begin(), crash_points.end(),
                   [](const CrashPoint& a, const CrashPoint& b) {
                     return a.records < b.records;
                   });
  std::size_t next_crash = 0;
  std::string crash_failure;
  std::function<void()> arm_next = [&] {
    if (!with_crashes || next_crash >= crash_points.size()) return;
    const CrashPoint& point = crash_points[next_crash];
    scenario.tenants()[0].server->arm_crash_hook(point.records, [&] {
      sim::Engine& engine = scenario.engine();
      engine.schedule_at(engine.now(), "chaos:crash", [&] {
        ++next_crash;
        if (const auto status = scenario.crash_and_recover_server(0);
            !status.ok()) {
          if (crash_failure.empty()) {
            crash_failure = "recovery failed: " + status.error().to_string();
          }
          return;
        }
        if (config.inject_divergence) {
          // Deliberate corruption for harness self-tests: one phantom
          // completion report the baseline never saw.
          scenario.tenants()[0].server->warehouse().record_completion(
              SiteId(1), 1234.5);
        }
        arm_next();
      });
    }, point.mid_checkpoint);
  };
  arm_next();

  const SimTime stopped = scenario.run(config.horizon);
  if (crashes_executed != nullptr) *crashes_executed = next_crash;

  const exp::Tenant& tenant = scenario.tenants()[0];
  RunArtifacts artifacts;
  artifacts.stopped_at = stopped;
  artifacts.dags_total = tenant.client->dag_outcomes().size();
  artifacts.dags_finished = tenant.client->dags_finished();
  artifacts.journal_text = tenant.server->warehouse().journal().serialize();
  artifacts.journal_records = static_cast<std::size_t>(
      tenant.server->warehouse().journal().next_seq());
  artifacts.journal_live_records = tenant.server->warehouse().journal().size();
  artifacts.trace_jsonl = scenario.recorder().trace().to_jsonl();
  // The recorder outlives every server instance the crash chain built,
  // so this counts the replicas all of them launched.
  artifacts.speculations = scenario.recorder().counter(
      "server.speculations", tenant.server->endpoint());
  artifacts.invariant_violation = crash_failure;
  if (artifacts.invariant_violation.empty()) {
    try {
      tenant.server->warehouse().check_invariants();
      scenario.engine().check_invariants();
    } catch (const std::exception& error) {
      artifacts.invariant_violation = error.what();
    }
  }
  return artifacts;
}

/// One straggler-probe arm: the outage schedule and lossy-wire windows
/// apply as in run_once, but there are no server crashes -- the A/B
/// isolates the defense, and crash coverage lives in `campaign
/// --speculate`.
StragglerArmResult run_straggler_arm(const StragglerProbeConfig& config,
                                     const ChaosSchedule& schedule,
                                     bool speculate) {
  exp::ScenarioConfig scenario_config;
  scenario_config.seed = config.seed;
  scenario_config.site_failures = false;
  scenario_config.background_load = false;
  scenario_config.outage_schedules = schedule.outages;
  add_net_faults(schedule, scenario_config);
  exp::Scenario scenario(scenario_config);

  exp::TenantOptions options;
  options.algorithm = kProbeAlgorithm;
  options.job_timeout = kProbeJobTimeout;
  options.speculate = speculate;
  const std::vector<workflow::Dag> dags = start_single_tenant(
      scenario, "straggler", options, config.jobs_per_dag, config.dag_count);
  scenario.run(kProbeHorizon);

  const exp::Tenant& tenant = scenario.tenants()[0];
  StragglerArmResult arm;
  arm.speculate = speculate;
  arm.dags_total = tenant.client->dag_outcomes().size();
  arm.dags_finished = tenant.client->dags_finished();
  for (const core::DagOutcome& outcome : tenant.client->dag_outcomes()) {
    if (outcome.done()) arm.dag_completions.push_back(outcome.completion_time());
  }
  const obs::Recorder& recorder = scenario.recorder();
  const std::string& server = tenant.server->endpoint();
  arm.timeouts =
      recorder.counter("tracker.timeouts", tenant.client->config().endpoint);
  arm.speculations = recorder.counter("server.speculations", server);
  arm.won_primary = recorder.counter("server.speculations_won_primary", server);
  arm.won_spec = recorder.counter("server.speculations_won_spec", server);
  arm.stale_skips = recorder.counter("detector.stale_skips", server);
  arm.digest = fnv1a(scenario.recorder().trace().to_jsonl(),
                     fnv1a(tenant.server->warehouse().journal().serialize()));
  return arm;
}

}  // namespace

ScheduleConfig straggler_schedule_defaults() {
  ScheduleConfig schedule;
  // Long-tail grid: mostly black-hole and degraded outages, across
  // enough sites that every run has several compromised ones.  The span
  // is compressed to the workload's active window -- the probe's DAGs
  // are in flight for the first hour at most, and an outage that starts
  // after the last job finished measures nothing.  Outages last longer
  // than the tracker timeout, so without the defense a trapped job's
  // only escape is the timeout.  No server crashes -- this schedule
  // measures the defense, not recovery.
  schedule.span = minutes(45);
  schedule.outages = 14;
  schedule.mean_duration = minutes(50);
  schedule.min_duration = minutes(10);
  schedule.weight_down = 0.2;
  schedule.weight_black_hole = 1.0;
  schedule.weight_degraded = 1.0;
  schedule.bursts = 1;
  schedule.burst_sites = 3;
  schedule.crashes = 0;
  schedule.mid_ckpt_crashes = 0;
  // One mild lossy window; no partitions (a severed control link stalls
  // both arms identically and only blurs the tail-latency signal).
  schedule.net_windows = 1;
  schedule.net_loss = 0.03;
  schedule.net_duplicate = 0.02;
  schedule.net_reorder = 0.03;
  schedule.net_partitions = 0;
  return schedule;
}

StragglerProbeResult run_straggler_probe(const StragglerProbeConfig& config) {
  const ChaosSchedule schedule =
      synthesize(config.seed, config.schedule, exp::Scenario::site_names());
  StragglerProbeResult result;
  result.seed = config.seed;
  result.off = run_straggler_arm(config, schedule, false);
  result.on = run_straggler_arm(config, schedule, true);
  return result;
}

ChaosSchedule synthesize_schedule(const ChaosRunConfig& config) {
  return synthesize(config.seed, config.schedule, exp::Scenario::site_names());
}

ChaosRunResult run_chaos_pair(const ChaosRunConfig& config,
                              const ChaosSchedule& schedule) {
  ChaosRunResult result;
  result.seed = config.seed;
  result.schedule = schedule;

  const RunArtifacts chaotic =
      run_once(config, schedule, true, &result.crashes_executed);
  const RunArtifacts baseline = run_once(config, schedule, false, nullptr);

  result.invariants = check_run_invariants(chaotic);
  result.differential = check_differential(chaotic, baseline);
  result.digest = fnv1a(chaotic.trace_jsonl, fnv1a(chaotic.journal_text));
  result.speculations = chaotic.speculations;
  result.journal_records = chaotic.journal_records;
  result.journal_live_records = chaotic.journal_live_records;
  return result;
}

CampaignResult run_campaign(const CampaignConfig& config) {
  std::vector<std::function<ChaosRunResult()>> tasks;
  tasks.reserve(static_cast<std::size_t>(config.runs));
  for (int i = 0; i < config.runs; ++i) {
    ChaosRunConfig run_config = config.base;
    run_config.seed = config.base.seed + static_cast<std::uint64_t>(i);
    tasks.emplace_back([run_config] {
      return run_chaos_pair(run_config, synthesize_schedule(run_config));
    });
  }

  CampaignResult campaign;
  campaign.runs = config.runs;
  campaign.results = exp::run_parallel(tasks, config.max_threads);

  std::uint64_t digest = fnv1a("sphinx-chaos-campaign");
  for (const ChaosRunResult& result : campaign.results) {
    if (!result.ok()) ++campaign.failures;
    digest = fnv1a(std::to_string(result.digest), digest);
  }
  campaign.digest = digest;

  if (campaign.failures > 0 && config.minimize_failures) {
    // Shrink the first failure only: minimization replays the run pair
    // per candidate schedule, so one repro per campaign keeps the cost
    // bounded while still leaving a deterministic artifact to replay.
    for (const ChaosRunResult& result : campaign.results) {
      if (result.ok()) continue;
      ChaosRunConfig run_config = config.base;
      run_config.seed = result.seed;
      const ChaosSchedule minimized = minimize_schedule(
          result.schedule, [&run_config](const ChaosSchedule& candidate) {
            return !run_chaos_pair(run_config, candidate).ok();
          });
      ReproCase repro;
      repro.config = run_config;
      repro.schedule = minimized;
      repro.violation = run_chaos_pair(run_config, minimized).violation();
      campaign.repros.push_back(std::move(repro));
      break;
    }
  }
  return campaign;
}

std::string to_json(const ReproCase& repro) {
  std::string out = "{\"config\":{";
  out += "\"seed\":" + std::to_string(repro.config.seed);
  out += ",\"dag_count\":" + std::to_string(repro.config.dag_count);
  out += ",\"jobs_per_dag\":" + std::to_string(repro.config.jobs_per_dag);
  out += ",\"algorithm\":\"";
  out += core::to_string(repro.config.algorithm);
  out += "\",\"horizon\":" + obs::format_double(repro.config.horizon);
  out += ",\"background_load\":";
  out += repro.config.background_load ? "true" : "false";
  out += ",\"checkpoint_every\":" +
         std::to_string(repro.config.checkpoint_every);
  out += ",\"speculate\":";
  out += repro.config.speculate ? "true" : "false";
  out += ",\"inject_divergence\":";
  out += repro.config.inject_divergence ? "true" : "false";
  out += "},\"violation\":\"" + obs::json_escape(repro.violation) + "\"";
  out += ",\"schedule\":" + to_json(repro.schedule);
  out += "}";
  return out;
}

Expected<ReproCase> repro_from_json(const std::string& text) {
  const auto bad = [](const std::string& what) {
    return Unexpected<Error>{Error{"bad_repro", what}};
  };
  auto doc = parse_json(text);
  if (!doc) return Unexpected<Error>{doc.error()};
  const JsonValue* config = doc->find("config");
  const JsonValue* schedule = doc->find("schedule");
  if (config == nullptr || !config->is_object() || schedule == nullptr) {
    return bad("expected {config, schedule}");
  }

  ReproCase repro;
  // A member that is present must hold a value the campaign could have
  // written: seeds and counts whole and in range, the horizon a
  // non-negative time.  An absent one keeps the ChaosRunConfig default.
  bool valid = true;
  const auto whole = [&]<typename Int>(const char* key, Int& out) {
    if (const JsonValue* value = config->find(key)) {
      const auto number = whole_number<Int>(*value);
      valid = valid && number.has_value();
      out = number.value_or(out);
    }
  };
  const auto flag = [&](const char* key) {
    const JsonValue* value = config->find(key);
    return value != nullptr && value->type == JsonValue::Type::kBool &&
           value->boolean;
  };
  whole("seed", repro.config.seed);
  whole("dag_count", repro.config.dag_count);
  whole("jobs_per_dag", repro.config.jobs_per_dag);
  whole("checkpoint_every", repro.config.checkpoint_every);
  if (const JsonValue* horizon = config->find("horizon")) {
    const auto value = bounded_number(*horizon);
    valid = valid && value.has_value();
    repro.config.horizon = value.value_or(repro.config.horizon);
  }
  if (!valid) {
    return bad("seed, counts: whole non-negative numbers in range; horizon: "
               "a non-negative time");
  }
  repro.config.background_load = flag("background_load");
  repro.config.speculate = flag("speculate");
  repro.config.inject_divergence = flag("inject_divergence");
  if (const JsonValue* algorithm = config->find("algorithm")) {
    if (!algorithm->is_string()) return bad("algorithm: string");
    if (algorithm->text == "round-robin") {
      repro.config.algorithm = core::Algorithm::kRoundRobin;
    } else if (algorithm->text == "num-cpus") {
      repro.config.algorithm = core::Algorithm::kNumCpus;
    } else if (algorithm->text == "queue-length") {
      repro.config.algorithm = core::Algorithm::kQueueLength;
    } else if (algorithm->text == "completion-time") {
      repro.config.algorithm = core::Algorithm::kCompletionTime;
    } else {
      return bad("unknown algorithm: " + algorithm->text);
    }
  }
  if (const JsonValue* violation = doc->find("violation");
      violation != nullptr && violation->is_string()) {
    repro.violation = violation->text;
  }

  auto parsed = schedule_from_value(*schedule);
  if (!parsed) return Unexpected<Error>{parsed.error()};
  repro.schedule = std::move(*parsed);
  const std::vector<std::string> sites = exp::Scenario::site_names();
  for (const auto& [site, outages] : repro.schedule.outages) {
    if (std::find(sites.begin(), sites.end(), site) == sites.end()) {
      return bad("outage on a site the testbed lacks: " + site);
    }
  }
  return repro;
}

ChaosRunResult replay(const ReproCase& repro) {
  return run_chaos_pair(repro.config, repro.schedule);
}

}  // namespace sphinx::chaos
