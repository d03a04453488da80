#include "chaos/failover.hpp"

#include <exception>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/contracts.hpp"
#include "ctrl/coordinator.hpp"
#include "ctrl/heartbeat.hpp"
#include "ctrl/shard.hpp"
#include "exp/scenario.hpp"

namespace sphinx::chaos {
namespace {

constexpr int kJobsPerDag = 6;
constexpr core::Algorithm kAlgorithm = core::Algorithm::kCompletionTime;
/// Fail-stop time and shard of the crashed scheduler.  Just after the
/// shard's sweep at 120.0, so the dead window holds in-flight outbox
/// state.
constexpr SimTime kCrashAt = 120.1;
constexpr std::size_t kCrashShard = 0;
/// Client-server partition window.
constexpr SimTime kPartitionStart = 119.8;
constexpr SimTime kPartitionEnd = 124.8;
constexpr SimTime kHorizon = hours(12);
/// First-beat offset: off the integer grid the monitor (x.5) and the
/// sweeps (multiples of 2.5) occupy, so no ctrl event ever shares an
/// engine timestamp with a core one.
constexpr Duration kHeartbeatPhase = 0.25;
constexpr Duration kMonitorPhase = 0.5;

// The partition opens at least one maximum bus latency before the crash,
// so every send made before it delivers in both runs ...
static_assert(kPartitionStart + exp::kBusLatency + exp::kBusJitter <= kCrashAt,
              "partition must open a max bus latency before the crash");
// ... and closes after the latest adoption: the dead owner's lease runs
// out at most kLeaseTtl after the crash, and the next monitor sweep
// adopts it, so no send ever targets the dark endpoint.
static_assert(kCrashAt + ctrl::kLeaseTtl + ctrl::kMonitorPeriod < kPartitionEnd,
              "partition must close after the latest adoption");

struct FailoverArtifacts {
  RunArtifacts run;
  std::size_t adoptions = 0;
  std::size_t expirations = 0;
};

FailoverArtifacts run_once(const FailoverConfig& config, bool with_crash) {
  SPHINX_PRECONDITION(config.shards >= 2,
                      "failover needs a surviving peer to adopt the shard");

  exp::ScenarioConfig scenario_config;
  scenario_config.seed = config.seed;
  // The failover harness owns all misbehaviour: no seeded site failures,
  // and the only network fault is the planned partition window, applied
  // to the chaotic AND the baseline run so the pair differs only in the
  // crash itself.
  scenario_config.site_failures = false;
  scenario_config.background_load = false;
  {
    rpc::LinkFaultRule rule;
    rule.from_prefix = "sphinx-client";
    rule.to_prefix = "sphinx-server";
    rule.start = kPartitionStart;
    rule.end = kPartitionEnd;
    rule.partition = true;
    scenario_config.network_faults.rules.push_back(rule);
  }
  exp::Scenario scenario(scenario_config);

  // One tenant per shard, sweep phases staggered across the period so no
  // two shards sweep at the same engine timestamp (see file comment).
  std::unordered_map<std::string, std::size_t> shard_index;
  for (std::size_t i = 0; i < config.shards; ++i) {
    exp::TenantOptions options;
    options.algorithm = kAlgorithm;
    options.sweep_phase =
        static_cast<double>(i) *
        (core::kSweepPeriod / static_cast<double>(config.shards));
    scenario.add_tenant("failover#" + std::to_string(i), options);
    shard_index.emplace(ctrl::shard_name(i), i);
  }

  ctrl::LeaseCoordinator coordinator(scenario.bus(), kMonitorPhase);
  coordinator.set_recorder(&scenario.recorder());

  const rpc::Proxy ctrl_proxy(
      rpc::Identity{"/CN=sphinx-control-plane"},
      ctrl::kControlVo, {}, scenario.engine().now(), hours(24 * 365));

  std::vector<std::unique_ptr<ctrl::HeartbeatAgent>> agents(config.shards);
  for (std::size_t i = 0; i < config.shards; ++i) {
    const std::uint64_t epoch =
        coordinator.grant(ctrl::shard_name(i), ctrl::scheduler_name(i));
    agents[i] = std::make_unique<ctrl::HeartbeatAgent>(
        scenario.bus(), ctrl::shard_name(i), ctrl::scheduler_name(i), epoch,
        kHeartbeatPhase, ctrl_proxy);
  }

  std::string failure;
  coordinator.set_adopt_handler(
      [&](const std::string& shard, const std::string& /*dead_owner*/,
          const std::string& /*new_owner*/) -> StatusOrError {
        const std::size_t idx = shard_index.at(shard);
        // Mark the deliberate ownership transfer before the endpoint
        // comes back: any drop in the (here instantaneous) window reads
        // "endpoint_handoff", not "endpoint_unregistered".
        scenario.bus().expect_handoff("sphinx-server/failover#" +
                                      std::to_string(idx));
        auto recovered = scenario.recover_server(idx);
        if (!recovered.ok() && failure.empty()) {
          failure = "adoption failed: " + recovered.error().to_string();
        }
        return recovered;
      });
  coordinator.set_adopted_callback([&](const std::string& shard,
                                       const std::string& new_owner,
                                       std::uint64_t epoch) {
    // The adopter starts heartbeating the shard under the new epoch; the
    // dead owner's agent object is already gone (the crash destroyed it).
    const std::size_t idx = shard_index.at(shard);
    agents[idx] = std::make_unique<ctrl::HeartbeatAgent>(
        scenario.bus(), shard, new_owner, epoch, kHeartbeatPhase, ctrl_proxy);
    agents[idx]->start();
  });

  // Workload: DAGs routed round-robin across the shards.
  workflow::WorkloadConfig workload;
  workload.jobs_per_dag = kJobsPerDag;
  auto generator = scenario.make_generator("failover", workload);
  const std::vector<workflow::Dag> dags =
      generator.generate_batch("failover", config.dag_count);

  scenario.start();
  coordinator.start();
  for (auto& agent : agents) agent->start();

  for (std::size_t k = 0; k < dags.size(); ++k) {
    const workflow::Dag& dag = dags[k];
    const std::size_t shard = ctrl::shard_of(k, config.shards);
    scenario.engine().schedule_at(
        exp::kFirstSubmitAt + static_cast<double>(k) * exp::kSubmitSpacing,
        "submit", [&scenario, &dag, shard] {
          scenario.tenants()[shard].client->submit(dag);
        });
  }

  if (with_crash) {
    scenario.engine().schedule_at(
        kCrashAt, "failover:crash", [&scenario, &agents] {
          // Fail-stop of the whole scheduler process: the server AND its
          // heartbeat agent die together -- the ensuing lease silence is
          // exactly what the monitor detects.
          agents[kCrashShard].reset();
          scenario.crash_server(kCrashShard);
        });
  }

  const SimTime stopped = scenario.run(kHorizon);

  FailoverArtifacts out;
  out.run.stopped_at = stopped;
  out.run.invariant_violation = failure;
  out.adoptions = scenario.recorder().counter("ctrl.shard_adoptions", "ctrl");
  out.expirations = scenario.recorder().counter("ctrl.lease_expired", "ctrl");
  for (const exp::Tenant& tenant : scenario.tenants()) {
    out.run.dags_total += tenant.client->dag_outcomes().size();
    out.run.dags_finished += tenant.client->dags_finished();
    if (tenant.server == nullptr) {
      if (out.run.invariant_violation.empty()) {
        out.run.invariant_violation =
            "shard " + tenant.label + " was never adopted";
      }
      continue;
    }
    out.run.journal_text += "== " + tenant.label + " ==\n";
    out.run.journal_text += tenant.server->warehouse().journal().serialize();
    out.run.journal_records += static_cast<std::size_t>(
        tenant.server->warehouse().journal().next_seq());
    out.run.journal_live_records += tenant.server->warehouse().journal().size();
  }
  out.run.trace_jsonl = scenario.recorder().trace().to_jsonl();
  if (out.run.invariant_violation.empty()) {
    try {
      for (const exp::Tenant& tenant : scenario.tenants()) {
        tenant.server->warehouse().check_invariants();
      }
      coordinator.leases().check_invariants();
      scenario.engine().check_invariants();
    } catch (const std::exception& error) {
      out.run.invariant_violation = error.what();
    }
  }
  return out;
}

}  // namespace

std::string FailoverRunResult::violation() const {
  if (!invariants.ok) return invariants.violation;
  if (!differential.ok) return differential.violation;
  if (adoptions == 0) return "no shard adoption occurred in the chaotic run";
  if (baseline_adoptions != 0) return "baseline run adopted a shard";
  return "";
}

FailoverRunResult run_failover_pair(const FailoverConfig& config) {
  FailoverRunResult result;
  result.seed = config.seed;

  const FailoverArtifacts chaotic = run_once(config, true);
  const FailoverArtifacts baseline = run_once(config, false);

  result.invariants = check_run_invariants(chaotic.run);
  result.differential = check_failover_differential(chaotic.run, baseline.run);
  result.adoptions = chaotic.adoptions;
  result.expirations = chaotic.expirations;
  result.baseline_adoptions = baseline.adoptions;
  result.journal_records = chaotic.run.journal_records;
  result.stopped_at = chaotic.run.stopped_at;
  result.digest = fnv1a(chaotic.run.trace_jsonl, fnv1a(chaotic.run.journal_text));
  return result;
}

}  // namespace sphinx::chaos
