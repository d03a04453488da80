// sphinx_chaos: seeded chaos campaigns and repro replay.
//
//   sphinx_chaos campaign [--runs N] [--seed S] [--threads T]
//                         [--crashes C] [--mid-ckpt-crashes M]
//                         [--dags K] [--repro PATH]
//                         [--net-windows W] [--net-partitions P]
//                         [--speculate]
//                         [--inject-divergence] [--no-minimize]
//   sphinx_chaos failover [--runs N] [--seed S] [--shards H] [--dags K]
//   sphinx_chaos straggler [--runs N] [--seed S] [--dags K] [--jobs J]
//                          [--json PATH]
//   sphinx_chaos replay --repro PATH
//
// `straggler` is the straggler-defense acceptance gate: each run
// synthesizes one degraded-heavy outage schedule (long black-hole and
// degraded windows over several sites) and executes it twice with the
// same seed -- speculation OFF, then ON.  It reports per-run and pooled
// p50/p99 DAG completion times and tracker timeout counts, optionally
// exports the pooled numbers as JSON (--json, the BENCH_straggler.json
// schema), and exits 1 unless speculation improved pooled p99 AND did
// not increase pooled timeouts.  Deterministic stdout, same as campaign.
//
// `failover` runs N seeded multi-scheduler failover pairs (scheduler
// crash + client<->server partition during shard handoff vs the same
// seed uninterrupted) and demands every pair pass the failover
// differential oracle: adoption must be byte-invisible to the
// scheduling layer.  Same report determinism contract as `campaign`.
//
// `campaign` sweeps N seeded chaos runs (randomized outage schedules,
// lossy-wire windows + client<->server partitions, and
// mid-run server crash/recovery -- from the server's own checkpoints,
// including crash points that land between checkpoint publication and
// journal truncation) and checks every run against the
// invariant and differential oracles.  The report is deterministic:
// same flags -> byte-identical stdout (tools/check.sh diffs two
// invocations).  On failure the first failing run is minimized and
// written to --repro as chaos_repro.json; `replay` re-executes such a
// file exactly.  Exit status: 0 all green, 1 oracle violation, 2 usage.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "chaos/campaign.hpp"
#include "chaos/failover.hpp"
#include "common/hash.hpp"
#include "common/stats.hpp"
#include "obs/trace.hpp"

namespace {

void print_run(const sphinx::chaos::ChaosRunResult& result) {
  std::printf("  seed=%llu outages=%zu net=%zu crashes=%zu spec=%zu "
              "digest=%016llx %s",
              static_cast<unsigned long long>(result.seed),
              result.schedule.outage_count(), result.schedule.net_windows.size(),
              result.crashes_executed, result.speculations,
              static_cast<unsigned long long>(result.digest),
              result.ok() ? "ok" : "FAIL");
  if (!result.ok()) std::printf(" (%s)", result.violation().c_str());
  std::printf("\n");
}

int usage() {
  std::fprintf(
      stderr,
      "usage: sphinx_chaos campaign [--runs N] [--seed S] [--threads T]\n"
      "                             [--crashes C] [--mid-ckpt-crashes M]\n"
      "                             [--dags K] [--repro PATH]\n"
      "                             [--net-windows W] [--net-partitions P]\n"
      "                             [--speculate]\n"
      "                             [--inject-divergence] [--no-minimize]\n"
      "       sphinx_chaos failover [--runs N] [--seed S] [--shards H]\n"
      "                             [--dags K]\n"
      "       sphinx_chaos straggler [--runs N] [--seed S] [--dags K]\n"
      "                              [--jobs J] [--json PATH]\n"
      "       sphinx_chaos replay --repro PATH\n");
  return 2;
}

/// Pooled tail stats of one probe arm across runs.
struct ArmSummary {
  std::vector<double> completions;
  std::size_t finished = 0;
  std::size_t total = 0;
  std::size_t timeouts = 0;
  std::size_t speculations = 0;
  std::size_t won_primary = 0;
  std::size_t won_spec = 0;
  std::size_t stale_skips = 0;

  void add(const sphinx::chaos::StragglerArmResult& arm) {
    completions.insert(completions.end(), arm.dag_completions.begin(),
                       arm.dag_completions.end());
    finished += arm.dags_finished;
    total += arm.dags_total;
    timeouts += arm.timeouts;
    speculations += arm.speculations;
    won_primary += arm.won_primary;
    won_spec += arm.won_spec;
    stale_skips += arm.stale_skips;
  }
  [[nodiscard]] double p50() const { return sphinx::percentile(completions, 0.5); }
  [[nodiscard]] double p99() const { return sphinx::percentile(completions, 0.99); }
  [[nodiscard]] double mean() const {
    if (completions.empty()) return 0.0;
    double sum = 0.0;
    for (const double value : completions) sum += value;
    return sum / static_cast<double>(completions.size());
  }
};

std::string arm_json(const ArmSummary& arm) {
  using sphinx::obs::format_double;
  std::string out = "{";
  out += "\"p50\":" + format_double(arm.p50());
  out += ",\"p99\":" + format_double(arm.p99());
  out += ",\"mean\":" + format_double(arm.mean());
  out += ",\"dags_finished\":" + std::to_string(arm.finished);
  out += ",\"dags_total\":" + std::to_string(arm.total);
  out += ",\"timeouts\":" + std::to_string(arm.timeouts);
  out += ",\"speculations\":" + std::to_string(arm.speculations);
  out += ",\"won_primary\":" + std::to_string(arm.won_primary);
  out += ",\"won_spec\":" + std::to_string(arm.won_spec);
  out += ",\"stale_skips\":" + std::to_string(arm.stale_skips);
  out += "}";
  return out;
}

int run_straggler(int argc, char** argv) {
  int runs = 3;
  std::string json_path;
  sphinx::chaos::StragglerProbeConfig base;
  base.schedule = sphinx::chaos::straggler_schedule_defaults();
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = (i + 1 < argc) ? argv[i + 1] : nullptr;
    if (arg == "--runs" && value != nullptr) {
      runs = std::atoi(value);
      ++i;
    } else if (arg == "--seed" && value != nullptr) {
      base.seed = std::strtoull(value, nullptr, 10);
      ++i;
    } else if (arg == "--dags" && value != nullptr) {
      base.dag_count = std::atoi(value);
      ++i;
    } else if (arg == "--jobs" && value != nullptr) {
      base.jobs_per_dag = std::atoi(value);
      ++i;
    } else if (arg == "--json" && value != nullptr) {
      json_path = value;
      ++i;
    } else {
      return usage();
    }
  }

  std::printf("sphinx_chaos straggler: runs=%d dags=%d jobs=%d\n", runs,
              base.dag_count, base.jobs_per_dag);
  ArmSummary off;
  ArmSummary on;
  for (int k = 0; k < runs; ++k) {
    sphinx::chaos::StragglerProbeConfig config = base;
    config.seed = base.seed + static_cast<std::uint64_t>(k);
    const sphinx::chaos::StragglerProbeResult result =
        sphinx::chaos::run_straggler_probe(config);
    off.add(result.off);
    on.add(result.on);
    std::printf(
        "  seed=%llu off: finished=%zu/%zu p99=%.3f timeouts=%zu "
        "digest=%016llx\n",
        static_cast<unsigned long long>(result.seed),
        result.off.dags_finished, result.off.dags_total,
        sphinx::percentile(result.off.dag_completions, 0.99),
        result.off.timeouts,
        static_cast<unsigned long long>(result.off.digest));
    std::printf(
        "  seed=%llu on:  finished=%zu/%zu p99=%.3f timeouts=%zu "
        "spec=%zu won=%zu+%zu stale_skips=%zu digest=%016llx\n",
        static_cast<unsigned long long>(result.seed),
        result.on.dags_finished, result.on.dags_total,
        sphinx::percentile(result.on.dag_completions, 0.99),
        result.on.timeouts, result.on.speculations, result.on.won_primary,
        result.on.won_spec, result.on.stale_skips,
        static_cast<unsigned long long>(result.on.digest));
  }

  const bool improved =
      on.p99() < off.p99() && on.timeouts <= off.timeouts &&
      on.finished >= off.finished;
  std::printf(
      "sphinx_chaos straggler: off p50=%.3f p99=%.3f timeouts=%zu | "
      "on p50=%.3f p99=%.3f timeouts=%zu spec=%zu | %s\n",
      off.p50(), off.p99(), off.timeouts, on.p50(), on.p99(), on.timeouts,
      on.speculations, improved ? "improved" : "NOT IMPROVED");

  if (!json_path.empty()) {
    std::string json = "{\"bench\":\"straggler\"";
    json += ",\"runs\":" + std::to_string(runs);
    json += ",\"seed\":" + std::to_string(base.seed);
    json += ",\"dags\":" + std::to_string(base.dag_count);
    json += ",\"jobs\":" + std::to_string(base.jobs_per_dag);
    json += ",\"off\":" + arm_json(off);
    json += ",\"on\":" + arm_json(on);
    json += ",\"improved\":";
    json += improved ? "true" : "false";
    json += "}";
    std::ofstream out(json_path, std::ios::trunc);
    out << json << "\n";
    std::printf("  summary -> %s\n", json_path.c_str());
  }
  return improved ? 0 : 1;
}

int run_failover(int argc, char** argv) {
  int runs = 1;
  sphinx::chaos::FailoverConfig base;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = (i + 1 < argc) ? argv[i + 1] : nullptr;
    if (arg == "--runs" && value != nullptr) {
      runs = std::atoi(value);
      ++i;
    } else if (arg == "--seed" && value != nullptr) {
      base.seed = std::strtoull(value, nullptr, 10);
      ++i;
    } else if (arg == "--shards" && value != nullptr) {
      base.shards = static_cast<std::size_t>(std::atoi(value));
      ++i;
    } else if (arg == "--dags" && value != nullptr) {
      base.dag_count = static_cast<std::size_t>(std::atoi(value));
      ++i;
    } else {
      return usage();
    }
  }

  int failures = 0;
  std::uint64_t digest = sphinx::kFnv1aOffset;
  std::printf("sphinx_chaos failover: runs=%d shards=%zu dags=%zu\n", runs,
              base.shards, base.dag_count);
  for (int k = 0; k < runs; ++k) {
    sphinx::chaos::FailoverConfig config = base;
    config.seed = base.seed + static_cast<std::uint64_t>(k);
    const sphinx::chaos::FailoverRunResult result =
        sphinx::chaos::run_failover_pair(config);
    if (!result.ok()) ++failures;
    digest ^= result.digest;
    std::printf(
        "  seed=%llu adoptions=%zu expirations=%zu records=%zu "
        "stopped_at=%.3f digest=%016llx %s",
        static_cast<unsigned long long>(result.seed), result.adoptions,
        result.expirations, result.journal_records, result.stopped_at,
        static_cast<unsigned long long>(result.digest),
        result.ok() ? "ok" : "FAIL");
    if (!result.ok()) std::printf(" (%s)", result.violation().c_str());
    std::printf("\n");
  }
  std::printf("sphinx_chaos failover: failures=%d digest=%016llx\n", failures,
              static_cast<unsigned long long>(digest));
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  if (command == "failover") return run_failover(argc, argv);
  if (command == "straggler") return run_straggler(argc, argv);

  sphinx::chaos::CampaignConfig config;
  std::string repro_path = "chaos_repro.json";
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = (i + 1 < argc) ? argv[i + 1] : nullptr;
    if (arg == "--runs" && value != nullptr) {
      config.runs = std::atoi(value);
      ++i;
    } else if (arg == "--seed" && value != nullptr) {
      config.base.seed = std::strtoull(value, nullptr, 10);
      ++i;
    } else if (arg == "--threads" && value != nullptr) {
      config.max_threads = static_cast<unsigned>(std::atoi(value));
      ++i;
    } else if (arg == "--crashes" && value != nullptr) {
      config.base.schedule.crashes = std::atoi(value);
      ++i;
    } else if (arg == "--mid-ckpt-crashes" && value != nullptr) {
      config.base.schedule.mid_ckpt_crashes = std::atoi(value);
      ++i;
    } else if (arg == "--dags" && value != nullptr) {
      config.base.dag_count = std::atoi(value);
      ++i;
    } else if (arg == "--net-windows" && value != nullptr) {
      config.base.schedule.net_windows = std::atoi(value);
      ++i;
    } else if (arg == "--net-partitions" && value != nullptr) {
      config.base.schedule.net_partitions = std::atoi(value);
      ++i;
    } else if (arg == "--repro" && value != nullptr) {
      repro_path = value;
      ++i;
    } else if (arg == "--speculate") {
      config.base.speculate = true;
    } else if (arg == "--inject-divergence") {
      config.base.inject_divergence = true;
    } else if (arg == "--no-minimize") {
      config.minimize_failures = false;
    } else {
      return usage();
    }
  }

  using namespace sphinx;
  if (command == "replay") {
    std::ifstream in(repro_path);
    if (!in) {
      std::fprintf(stderr, "sphinx_chaos: cannot read %s\n",
                   repro_path.c_str());
      return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    const auto repro = chaos::repro_from_json(text.str());
    if (!repro) {
      std::fprintf(stderr, "sphinx_chaos: bad repro %s: %s\n",
                   repro_path.c_str(), repro.error().to_string().c_str());
      return 2;
    }
    const chaos::ChaosRunResult result = chaos::replay(*repro);
    std::printf("sphinx_chaos replay: %s\n", repro_path.c_str());
    print_run(result);
    return result.ok() ? 0 : 1;
  }

  if (command != "campaign") return usage();
  const chaos::CampaignResult campaign = chaos::run_campaign(config);
  std::printf("sphinx_chaos campaign: runs=%d failures=%d digest=%016llx\n",
              campaign.runs, campaign.failures,
              static_cast<unsigned long long>(campaign.digest));
  for (const chaos::ChaosRunResult& result : campaign.results) {
    print_run(result);
  }
  if (!campaign.repros.empty()) {
    const std::string json = chaos::to_json(campaign.repros.front());
    std::ofstream out(repro_path, std::ios::trunc);
    out << json << "\n";
    std::printf("  minimized repro -> %s\n", repro_path.c_str());
  }
  return campaign.failures == 0 ? 0 : 1;
}
