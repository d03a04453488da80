/// Microbenchmarks for the scheduling core itself: strategy decision
/// cost, warehouse sweep building blocks, and full end-to-end simulation
/// throughput (events per second of one complete experiment).

#include <benchmark/benchmark.h>

#include <memory>

#include "core/algorithms.hpp"
#include "core/message_handler.hpp"
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

/// ns per tracker completion report on a warehouse of 1,000 ten-job
/// DAGs, through MessageHandler::apply_report: the report's job lookup,
/// its state write, and the DAG-finished check the server runs on each
/// completion (its hook).  Jobs report in job-table order, so the k-th
/// job of a DAG finds the k - 1 before it completed, as when a DAG's jobs
/// finish in dependency order.  With timing paused, each batch of 100
/// jobs is planned and set running before it reports, so the running
/// state's index bucket stays near a figure run's size, and a fresh
/// warehouse replaces a fully reported one.
void BM_CompletionReport(benchmark::State& state) {
  constexpr std::uint64_t kDags = 1000;
  constexpr std::uint64_t kJobsPerDag = 10;
  constexpr std::uint64_t kJobs = kDags * kJobsPerDag;
  constexpr std::uint64_t kBatch = 100;
  const auto job_id = [](std::uint64_t k) {
    return JobId((k / kJobsPerDag + 1) * 100 + k % kJobsPerDag + 1);
  };
  const core::ServerConfig config;
  struct Store {
    core::DataWarehouse warehouse;
    std::unique_ptr<core::MessageHandler> handler;
  };
  const auto fresh_store = [&] {
    auto store = std::make_unique<Store>();
    core::DataWarehouse& wh = store->warehouse;
    for (std::uint64_t d = 1; d <= kDags; ++d) {
      workflow::Dag dag(DagId(d), "report-" + std::to_string(d));
      for (std::uint64_t j = 0; j < kJobsPerDag; ++j) {
        workflow::JobSpec job;
        job.id = job_id((d - 1) * kJobsPerDag + j);
        job.name = "j" + std::to_string(j);
        job.output = "lfn://report-out/" + std::to_string(job.id.value());
        dag.add_job(job);
        if (j > 0) dag.add_edge(job_id((d - 1) * kJobsPerDag + j - 1), job.id);
      }
      wh.insert_dag(dag, "bench", UserId(1), 0.0);
      wh.set_dag_state(DagId(d), core::DagState::kPlanning);
    }
    store->handler = std::make_unique<core::MessageHandler>(
        wh, config, [&wh](DagId dag) {
          const auto row = wh.dag(dag);
          benchmark::DoNotOptimize(row &&
                                   row->state != core::DagState::kFinished &&
                                   wh.all_jobs_completed(dag));
        });
    return store;
  };
  auto store = fresh_store();
  std::uint64_t next = 0;  // the next job to report, in table order
  core::TrackerReport report;
  report.kind = core::ReportKind::kCompleted;
  report.site = SiteId(1);
  report.completion_time = 60.0;
  report.attempt = 1;
  for (auto _ : state) {
    if (next % kBatch == 0) {
      state.PauseTiming();
      if (next == kJobs) {
        store = fresh_store();
        next = 0;
      }
      for (std::uint64_t k = next; k < next + kBatch; ++k) {
        store->warehouse.set_job_planned(job_id(k), SiteId(1), 0.0);
        store->warehouse.set_job_state(job_id(k), core::JobState::kRunning);
      }
      state.ResumeTiming();
    }
    report.job = job_id(next++);
    benchmark::DoNotOptimize(store->handler->apply_report(report));
  }
  state.SetLabel("dags=1000 jobs_per_dag=10");
}
BENCHMARK(BM_CompletionReport);

}  // namespace
