// perfbench_unit: executes one unit of a perfbench workload once and
// prints one JSON line describing the execution.
//
//   perfbench_unit --workload fig5|fig3|chaos --seed N [--profile]
//
// Units:
//   fig5   the Figure 5 panel (bench/fig5_algorithms_120): four
//          strategies, 120 DAGs each, on the paper's 15-site grid with
//          its monitoring, site failures and background load;
//   fig3   the same panel at 30 DAGs each (bench/fig3_algorithms_30; fig2
//          and the ablations run this size too);
//   chaos  the chaos campaign of the tools/check.sh gate: kChaosRuns runs
//          with the default ChaosRunConfig, each a crash-recovered
//          simulation byte-diffed against its uninterrupted baseline.
// For the panels N picks the DAG stream (see workload_stream) and the
// grid stays the figure benches' own; for chaos, run i uses seed N + i,
// as in the gate.
//
// A unit is timed in granules of identical work on every execution of
// the same seed: 60 s simulated-time slices for the panels, one chaos run
// for chaos.  Every set-up and every granule is followed by one pass of
// the host-speed probe (see probe_pass_ms), timed on its own.
//
// The line carries set-up, granule and probe times, correctness verdicts,
// a digest of the outputs (same seed, same digest) and journal counts;
// with --profile it also carries the CPU time sampled in each SPHINX
// module during the granules (see profiler.hpp).

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "chaos/campaign.hpp"
#include "chaos/oracle.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "profiler.hpp"

namespace {

using namespace sphinx;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

// Figure panels: grid seed, submission spacing and horizon of
// bench/bench_common.hpp's paper_config, and the simulated time one
// granule covers.
constexpr std::uint64_t kPaperSeed = 20050404;
constexpr Duration kPanelSpacing = 15.0;
constexpr SimTime kPanelHorizon = hours(48);
constexpr Duration kPanelSlice = 60.0;
// Runs of the tools/check.sh chaos gate (`sphinx_chaos campaign --runs 8`).
constexpr int kChaosRuns = 8;
// Set-ups timed per execution; the last one is run.
constexpr int kSetupReps = 5;
// Profiler sampling period: one kernel tick at the common HZ=1000.
constexpr long kProfilePeriodUs = 1000;

volatile std::uint64_t g_probe_sink = 0;

/// Host-speed probe: times one pass of a fixed loop, in milliseconds.
/// On a shared host the same code runs up to 60% slower for seconds to
/// minutes at a time, as other tenants load the shared caches and memory
/// (an ALU-only loop keeps its speed), and no hardware counters are
/// exposed to count instructions instead.  So every timed section is
/// followed by one pass, and run.py reports times relative to it.  The
/// pass builds fresh string-keyed hash and tree maps and sorts, as the
/// simulation's tables do; over a few seconds its time follows the
/// simulation's through those swings to within a few percent.  It must
/// never change: it is the yardstick.
double probe_pass_ms() {
  constexpr int kSteps = 8000;
  constexpr std::uint64_t kKeys = 20000;
  const auto start = Clock::now();
  std::mt19937_64 rng(12345);
  std::unordered_map<std::string, std::uint64_t> table;
  std::map<std::uint64_t, std::string> ordered;
  std::vector<double> values;
  for (int i = 0; i < kSteps; ++i) {
    std::string key = "job:" + std::to_string(rng() % kKeys) + "@site" +
                      std::to_string(i % 15);
    table[key] += static_cast<std::uint64_t>(i);
    if (i % 3 == 0) ordered.emplace(rng(), key);
    values.push_back(static_cast<double>(rng() % 100000) * 0.5);
  }
  std::sort(values.begin(), values.end());
  std::uint64_t sum = 0;
  for (const auto& [key, value] : table) sum ^= value * key.size();
  for (const auto& [key, value] : ordered) sum += key ^ value.size();
  g_probe_sink = sum + static_cast<std::uint64_t>(values[values.size() / 2]);
  return ms_since(start);
}

struct Execution {
  std::vector<double> setup_ms;
  std::vector<double> setup_probe_ms;  ///< probe pass after each set-up
  std::vector<double> granule_ms;
  std::vector<double> probe_ms;        ///< probe pass after each granule
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> problems;
  std::uint64_t digest = chaos::fnv1a("perfbench");
  double journal_records = 0.0;
  double peak_rss_mb = 0.0;  ///< at the end of the granules
  /// Samples from the first granule to the last when set.  Probe passes
  /// fall in that span but hold no SPHINX frame, so no module is charged.
  perfbench::Profiler* profiler = nullptr;

  void check(bool ok, const std::string& what) {
    if (!ok) problems.push_back(what);
  }

  /// Runs and times `step` as one set-up; returns its result.
  template <typename Step>
  auto timed_setup(const Step& step) {
    const auto start = Clock::now();
    auto result = step();
    setup_ms.push_back(ms_since(start));
    setup_probe_ms.push_back(probe_pass_ms());
    return result;
  }

  /// Runs and times `step` as one granule.
  template <typename Step>
  void timed_granule(const Step& step) {
    if (granule_ms.empty() && profiler != nullptr) {
      profiler->start(kProfilePeriodUs);
    }
    const auto start = Clock::now();
    step();
    granule_ms.push_back(ms_since(start));
    probe_ms.push_back(probe_pass_ms());
  }

  void end_granules() {
    if (profiler != nullptr) profiler->stop();
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  }
};

/// The figure scenario (bench/bench_common.hpp's paper_config): Grid3-like
/// testbed with failures and background load, era-faithful monitoring.
exp::ScenarioConfig paper_scenario() {
  exp::ScenarioConfig config;
  config.seed = kPaperSeed;
  config.site_failures = true;
  config.background_load = true;
  config.monitor.poll_period = minutes(20);
  config.monitor.report_latency = minutes(2);
  config.monitor.noise = 0.5;
  return config;
}

/// The panel's DAG stream: seed 0 is the figure benches' own, any other
/// seed an independent stream of the same workload model.  Varying only
/// the DAGs keeps the grid's failures and background load, which set most
/// of a panel's cost, the same for every input.
std::string workload_stream(std::uint64_t seed) {
  return seed == 0 ? "shared" : "shared/" + std::to_string(seed);
}

/// A started panel: one tenant per strategy of exp::standard_panel, each
/// holding structurally identical DAGs submitted kPanelSpacing apart from
/// t = 10 s, built the way exp::Experiment::run builds it.
struct Panel {
  std::unique_ptr<exp::Scenario> scenario;
  std::vector<std::vector<workflow::Dag>> workloads;
};

Panel build_panel(std::uint64_t seed, int dag_count) {
  Panel panel;
  panel.scenario = std::make_unique<exp::Scenario>(paper_scenario());
  exp::Scenario& scenario = *panel.scenario;
  for (const exp::TenantSpec& spec : exp::standard_panel()) {
    scenario.add_tenant(spec.label, spec.options);
    auto generator =
        scenario.make_generator(workload_stream(seed), workflow::WorkloadConfig{});
    panel.workloads.push_back(generator.generate_batch(spec.label, dag_count));
  }
  scenario.start();
  for (std::size_t t = 0; t < panel.workloads.size(); ++t) {
    for (std::size_t k = 0; k < panel.workloads[t].size(); ++k) {
      const workflow::Dag& dag = panel.workloads[t][k];
      scenario.engine().schedule_at(
          10.0 + static_cast<double>(k) * kPanelSpacing, "submit:" + dag.name(),
          [&scenario, t, &dag] { scenario.tenants()[t].client->submit(dag); });
    }
  }
  return panel;
}

/// Checks every tenant's delivery contract, digests the outputs and
/// counts journal records.
void harvest(Execution& run, exp::Scenario& scenario, std::size_t dags_each) {
  for (const exp::Tenant& tenant : scenario.tenants()) {
    const core::SphinxClient& client = *tenant.client;
    run.attempted += dags_each;
    run.failed += dags_each - client.dags_finished();
    run.check(client.dag_outcomes().size() == dags_each,
              tenant.label + ": not every DAG was submitted");
    run.check(client.all_dags_finished(), tenant.label + ": unfinished DAGs");
    run.check(client.tracker_stats().submissions == client.unique_submissions(),
              tenant.label + ": a plan executed twice");
    try {
      tenant.server->warehouse().check_invariants();
    } catch (const std::exception& error) {
      run.check(false, tenant.label + ": " + error.what());
    }
    const db::Journal& journal = tenant.server->warehouse().journal();
    run.journal_records += static_cast<double>(journal.next_seq());
    run.digest = chaos::fnv1a(journal.serialize(), run.digest);
  }
  run.digest = chaos::fnv1a(scenario.recorder().trace().to_jsonl(), run.digest);
}

/// Builds the panel kSetupReps times, then runs the last build in
/// kPanelSlice steps until every tenant finished every DAG (or the
/// horizon).  run_until adds no events and draws no randomness, so
/// slicing leaves the simulation exactly as one uninterrupted run.
void run_panel(Execution& run, std::uint64_t seed, int dag_count) {
  Panel panel;
  for (int i = 0; i < kSetupReps; ++i) {
    panel = Panel{};  // tear the previous build down untimed
    panel = run.timed_setup([&] { return build_panel(seed, dag_count); });
  }
  exp::Scenario& scenario = *panel.scenario;
  const auto finished = [&scenario] {
    for (const exp::Tenant& tenant : scenario.tenants()) {
      if (!tenant.client->all_dags_finished()) return false;
    }
    return true;
  };
  const SimTime last_submit = 10.0 + (dag_count - 1) * kPanelSpacing;
  for (SimTime until = kPanelSlice; until <= kPanelHorizon; until += kPanelSlice) {
    run.timed_granule([&] { scenario.engine().run_until(until); });
    if (until > last_submit && finished()) break;
  }
  run.end_granules();
  harvest(run, scenario, static_cast<std::size_t>(dag_count));
}

void run_fig5(Execution& run, std::uint64_t seed) { run_panel(run, seed, 120); }
void run_fig3(Execution& run, std::uint64_t seed) { run_panel(run, seed, 30); }

/// Run i of the campaign is run_chaos_pair on seed + i with its
/// synthesized schedule, as chaos::run_campaign runs it (here in order,
/// on one thread).  The set-up is the synthesis of every run's schedule.
void run_chaos(Execution& run, std::uint64_t seed) {
  std::vector<chaos::ChaosRunConfig> configs(kChaosRuns);
  for (int i = 0; i < kChaosRuns; ++i) {
    configs[static_cast<std::size_t>(i)].seed = seed + static_cast<std::uint64_t>(i);
  }
  std::vector<chaos::ChaosSchedule> schedules;
  for (int i = 0; i < kSetupReps; ++i) {
    schedules = run.timed_setup([&] {
      std::vector<chaos::ChaosSchedule> out;
      for (const chaos::ChaosRunConfig& config : configs) {
        out.push_back(chaos::synthesize_schedule(config));
      }
      return out;
    });
  }

  double crashes = 0.0;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    chaos::ChaosRunResult result;
    run.timed_granule(
        [&] { result = chaos::run_chaos_pair(configs[i], schedules[i]); });
    ++run.attempted;
    if (!result.ok()) {
      ++run.failed;
      run.check(false, "seed " + std::to_string(configs[i].seed) + ": " +
                           result.violation());
    }
    run.digest = chaos::fnv1a(std::to_string(result.digest), run.digest);
    crashes += static_cast<double>(result.crashes_executed);
    run.journal_records += static_cast<double>(result.journal_records);
  }
  run.end_granules();
  run.check(crashes > 0, "no crash point fired in the whole campaign");
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string json_number(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.9g", value);
  return buffer;
}

std::string json_list(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += json_number(values[i]);
  }
  return out + "]";
}

std::string to_json(const std::string& workload, std::uint64_t seed,
                    const Execution& run, const perfbench::Profiler* profiler) {
  char digest[17];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(run.digest));
  std::string out = "{\"workload\":" + json_string(workload);
  out += ",\"seed\":" + std::to_string(seed);
  out += ",\"setup_ms\":" + json_list(run.setup_ms);
  out += ",\"setup_probe_ms\":" + json_list(run.setup_probe_ms);
  out += ",\"granule_ms\":" + json_list(run.granule_ms);
  out += ",\"probe_ms\":" + json_list(run.probe_ms);
  out += ",\"attempted\":" + std::to_string(run.attempted);
  out += ",\"failed\":" + std::to_string(run.failed);
  out += ",\"peak_rss_mb\":" + json_number(run.peak_rss_mb);
  out += ",\"journal_records\":" + json_number(run.journal_records);
  out += ",\"problems\":[";
  for (std::size_t i = 0; i < run.problems.size(); ++i) {
    out += (i > 0 ? "," : "") + json_string(run.problems[i]);
  }
  out += "],\"digest\":\"" + std::string(digest) + "\"";
  if (profiler != nullptr) {
    out += ",\"layer_ms\":{";
    for (std::size_t i = 0; i < perfbench::kLayers.size(); ++i) {
      out += (i > 0 ? "," : "") + json_string(perfbench::kLayers[i]) + ":" +
             json_number(1e3 * profiler->layer_seconds(i));
    }
    out += "}";
  }
  return out + "}";
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_unit --workload fig5|fig3|chaos --seed N "
               "[--profile]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 0;
  bool have_seed = false;
  bool profile = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--profile") {
      profile = true;
    } else if (arg == "--workload" && i + 1 < argc) {
      workload = argv[++i];
    } else if (arg == "--seed" && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else {
      return usage();
    }
  }
  void (*unit)(Execution&, std::uint64_t) = nullptr;
  if (workload == "fig5") unit = run_fig5;
  if (workload == "fig3") unit = run_fig3;
  if (workload == "chaos") unit = run_chaos;
  if (unit == nullptr || !have_seed) return usage();

  perfbench::Profiler profiler;
  Execution run;
  if (profile) {
    std::string error;
    if (!profiler.load_symbols(argv[0], error)) {
      std::fprintf(stderr, "perfbench_unit: %s\n", error.c_str());
      return 1;
    }
    run.profiler = &profiler;
  }
  try {
    unit(run, seed);
  } catch (const std::exception& error) {
    run.end_granules();
    run.check(false, std::string("exception: ") + error.what());
  }
  std::printf("%s\n",
              to_json(workload, seed, run, profile ? &profiler : nullptr).c_str());
  return 0;
}
