/// Microbenchmarks for the scheduling core itself: strategy decision
/// cost, warehouse sweep building blocks, and full end-to-end simulation
/// throughput (events per second of one complete experiment).

#include <benchmark/benchmark.h>

#include "core/algorithms.hpp"
#include "exp/scenario.hpp"
#include "workflow/generator.hpp"

namespace {

using namespace sphinx;

core::PlanningContext synthetic_context(int sites) {
  core::PlanningContext ctx;
  Rng rng(7);
  for (int i = 0; i < sites; ++i) {
    core::CandidateSite site;
    site.id = SiteId(static_cast<std::uint64_t>(i + 1));
    site.cpus = static_cast<int>(rng.uniform_int(8, 256));
    site.outstanding = rng.uniform_int(0, 40);
    site.monitored = true;
    site.mon_queued = static_cast<int>(rng.uniform_int(0, 80));
    site.mon_running = static_cast<int>(rng.uniform_int(0, 200));
    site.samples = rng.uniform_int(1, 50);
    site.completed = site.samples;
    site.avg_completion = rng.uniform(60.0, 1500.0);
    ctx.sites.push_back(site);
  }
  return ctx;
}

void BM_StrategyDecision(benchmark::State& state) {
  const auto algorithm =
      core::make_algorithm(static_cast<core::Algorithm>(state.range(1)));
  const auto ctx = synthetic_context(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(algorithm->select(ctx));
  }
  state.SetLabel(algorithm->name());
}
BENCHMARK(BM_StrategyDecision)
    ->ArgsProduct({{15, 100}, {0, 1, 2, 3}});

void BM_EndToEndExperiment(benchmark::State& state) {
  // One full single-tenant run: N DAGs x 10 jobs on the quiet grid.
  const int dags = static_cast<int>(state.range(0));
  for (auto _ : state) {
    exp::ScenarioConfig config;
    config.seed = 5;
    config.site_failures = false;
    config.background_load = false;
    exp::Scenario scenario(config);
    exp::Tenant& tenant = scenario.add_tenant("bench", exp::TenantOptions{});
    auto generator =
        scenario.make_generator("bench", workflow::WorkloadConfig{});
    const auto batch = generator.generate_batch("bench", dags);
    scenario.start();
    scenario.engine().schedule_at(1.0, "submit", [&] {
      for (const auto& dag : batch) tenant.client->submit(dag);
    });
    scenario.run(hours(24));
    benchmark::DoNotOptimize(tenant.client->dags_finished());
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<std::int64_t>(
                                scenario.engine().events_fired()));
  }
  state.SetLabel("items = engine events");
}
BENCHMARK(BM_EndToEndExperiment)->Arg(5)->Arg(20)->Unit(benchmark::kMillisecond);

workflow::Dag one_job_dag(std::uint64_t base, const std::string& input) {
  workflow::Dag dag(DagId(base), "sweep-" + std::to_string(base));
  workflow::JobSpec job;
  job.id = JobId(base * 10 + 1);
  job.name = "j";
  job.compute_time = 60.0;
  job.inputs = {input};
  job.output = "lfn://sweep-out/" + std::to_string(base);
  dag.add_job(job);
  return dag;
}

/// one_job_dag plus a child consuming the first job's output.
workflow::Dag chain_dag(std::uint64_t base) {
  workflow::Dag dag = one_job_dag(base, "lfn://sweep-in");
  workflow::JobSpec child;
  child.id = JobId(base * 10 + 2);
  child.name = "child";
  child.compute_time = 60.0;
  child.inputs = {"lfn://sweep-out/" + std::to_string(base)};
  child.output = "lfn://sweep-final/" + std::to_string(base);
  dag.add_job(child);
  dag.add_edge(JobId(base * 10 + 1), child.id);
  return dag;
}

/// Sweep cost must be O(changed work): N planning DAGs with nothing to
/// plan sit in the warehouse while a fixed handful stays blocked (inputs
/// with no replicas), so every sweep retries only the blocked ones.
/// Growing N 100x should leave the per-sweep time roughly flat.  The
/// idle DAGs are either fully planned (`parent_blocked` false) or
/// two-job chains whose child waits on its planned parent.
void sweep_cost(benchmark::State& state, bool parent_blocked) {
  const std::uint64_t idle = static_cast<std::uint64_t>(state.range(0));
  constexpr std::uint64_t kActive = 8;
  exp::ScenarioConfig config;
  config.seed = 5;
  config.site_failures = false;
  config.background_load = false;
  exp::Scenario scenario(config);
  exp::Tenant& tenant = scenario.add_tenant("bench", exp::TenantOptions{});
  core::DataWarehouse& wh = tenant.server->warehouse();
  for (std::uint64_t i = 1; i <= idle; ++i) {
    wh.insert_dag(parent_blocked ? chain_dag(i)
                                 : one_job_dag(i, "lfn://sweep-in"),
                  "bench", UserId(1), 0.0);
    wh.set_dag_state(DagId(i), core::DagState::kPlanning);
    wh.set_job_planned(JobId(i * 10 + 1), SiteId(1), 0.0);
  }
  for (std::uint64_t i = idle + 1; i <= idle + kActive; ++i) {
    // Unplanned job whose input has no replica: blocked every sweep.
    wh.insert_dag(one_job_dag(i, "lfn://nowhere/" + std::to_string(i)),
                  "bench", UserId(1), 0.0);
    wh.set_dag_state(DagId(i), core::DagState::kPlanning);
  }
  tenant.server->sweep();  // settle: the idle DAGs drain and stay idle
  for (auto _ : state) {
    tenant.server->sweep();
  }
  state.SetLabel(std::string(parent_blocked ? "parent_blocked=" : "idle=") +
                 std::to_string(idle) + " active=8");
}

void BM_SweepCost(benchmark::State& state) { sweep_cost(state, false); }
BENCHMARK(BM_SweepCost)
    ->Arg(100)
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMicrosecond);

void BM_SweepCostParentBlocked(benchmark::State& state) {
  sweep_cost(state, true);
}
BENCHMARK(BM_SweepCostParentBlocked)
    ->Arg(100)
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
