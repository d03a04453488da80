// Tests for the experiment layer: scenario determinism, the group-wise
// runner, report rendering and the parallel sweep pool.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <thread>

#include "exp/parallel.hpp"
#include "exp/report.hpp"
#include "exp/runner.hpp"

namespace sphinx::exp {
namespace {

ExperimentConfig tiny_config(std::uint64_t seed) {
  ExperimentConfig config;
  config.scenario.seed = seed;
  config.scenario.site_failures = false;
  config.scenario.background_load = false;
  config.workload.jobs_per_dag = 5;
  config.dag_count = 2;
  config.horizon = hours(12);
  return config;
}

TEST(ExperimentDeterminism, SameSeedSameNumbers) {
  const auto run_once = [](std::uint64_t seed) {
    Experiment experiment(tiny_config(seed));
    return experiment.run(standard_panel());
  };
  const auto a = run_once(17);
  const auto b = run_once(17);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].avg_dag_completion, b[i].avg_dag_completion);
    EXPECT_DOUBLE_EQ(a[i].avg_job_idle, b[i].avg_job_idle);
    EXPECT_EQ(a[i].timeouts, b[i].timeouts);
    EXPECT_EQ(a[i].plans, b[i].plans);
  }
}

TEST(ExperimentDeterminism, DifferentSeedsDiffer) {
  Experiment a(tiny_config(1));
  Experiment b(tiny_config(2));
  const auto ra = a.run(standard_panel());
  const auto rb = b.run(standard_panel());
  // At least one headline number differs across seeds.
  bool any_difference = false;
  for (std::size_t i = 0; i < ra.size(); ++i) {
    if (ra[i].avg_dag_completion != rb[i].avg_dag_completion) {
      any_difference = true;
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST(ExperimentRunner, StandardPanelShape) {
  const auto panel = standard_panel();
  ASSERT_EQ(panel.size(), 4u);
  std::set<core::Algorithm> algorithms;
  for (const auto& spec : panel) {
    algorithms.insert(spec.options.algorithm);
    EXPECT_TRUE(spec.options.use_feedback);
    EXPECT_FALSE(spec.options.use_policy);
  }
  EXPECT_EQ(algorithms.size(), 4u);
}

TEST(ExperimentRunner, QuotasProduceRejections) {
  ExperimentConfig config = tiny_config(5);
  config.quota_cpu_fraction = 0.25;  // ~2 jobs per site: forces spreading
  std::vector<TenantSpec> specs;
  TenantOptions options;
  options.algorithm = core::Algorithm::kNumCpus;
  options.use_policy = true;
  specs.push_back({"quota", options});
  Experiment experiment(config);
  const auto results = experiment.run(specs);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].dags_finished, 2u);
  EXPECT_GT(results[0].policy_rejections, 0u);
}

TEST(Reports, RenderAllForms) {
  TenantResult r;
  r.label = "completion-time";
  r.dags_total = 30;
  r.dags_finished = 30;
  r.avg_dag_completion = 1234.5;
  r.avg_job_execution = 60.1;
  r.avg_job_idle = 200.2;
  r.timeouts = 12;
  r.replans = 15;
  r.per_site = {{"acdc", 10, 300.0}, {"ll3", 0, 0.0}};
  const std::vector<TenantResult> results{r};

  const std::string dag = render_dag_completion("DAGs:", results);
  EXPECT_NE(dag.find("completion-time"), std::string::npos);
  EXPECT_NE(dag.find("1234.5"), std::string::npos);

  const std::string exec = render_exec_idle("Exec:", results);
  EXPECT_NE(exec.find("60.1"), std::string::npos);
  EXPECT_NE(exec.find("260.3"), std::string::npos);  // total column

  const std::string sites = render_site_distribution("Sites:", r);
  EXPECT_NE(sites.find("acdc"), std::string::npos);
  EXPECT_NE(sites.find("-"), std::string::npos);  // ll3 has no data

  const std::string summary = render_summary(results);
  EXPECT_NE(summary.find("30/30"), std::string::npos);
  EXPECT_NE(summary.find("15"), std::string::npos);
}

TEST(ParallelSweep, ResultsInInputOrder) {
  std::vector<std::function<int()>> tasks;
  for (int i = 0; i < 50; ++i) {
    tasks.push_back([i] { return i * i; });
  }
  const auto results = run_parallel(tasks, 8);
  ASSERT_EQ(results.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(results[static_cast<std::size_t>(i)], i * i);
}

TEST(ParallelSweep, PropagatesExceptions) {
  std::vector<std::function<int()>> tasks;
  tasks.push_back([] { return 1; });
  tasks.push_back([]() -> int {
    throw std::runtime_error(  // sphinx-lint-allow(naked-throw): propagation
        "boom");
  });
  EXPECT_THROW((void)run_parallel(tasks, 2), std::runtime_error);
}

TEST(ParallelSweep, EveryTaskRunsDespiteAThrow) {
  // One task failing must not strand the rest: the pool drains the
  // whole queue before the exception is rethrown, so results (and side
  // effects) of healthy tasks are complete.
  std::atomic<int> ran{0};
  std::vector<std::function<int()>> tasks;
  for (int i = 0; i < 12; ++i) {
    if (i == 3 || i == 7) {
      tasks.push_back([]() -> int {
        throw std::runtime_error(  // sphinx-lint-allow(naked-throw): test payload
            "boom");
      });
    } else {
      tasks.push_back([&ran] { return ++ran; });
    }
  }
  EXPECT_THROW((void)run_parallel(tasks, 3), std::runtime_error);
  EXPECT_EQ(ran.load(), 10);
}

TEST(ParallelSweep, LowestIndexedExceptionWinsUnderContention) {
  // Two tasks fail: a slow one at index 1 and an instant one at index
  // 6.  Whichever thread *finishes* first is a race, but the rethrown
  // exception is pinned to the lowest failing index -- reports stay
  // deterministic across runs.
  for (int attempt = 0; attempt < 5; ++attempt) {
    std::vector<std::function<int()>> tasks;
    for (int i = 0; i < 8; ++i) {
      if (i == 1) {
        tasks.push_back([]() -> int {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          throw std::runtime_error(  // sphinx-lint-allow(naked-throw): test payload
              "slow-low-index");
        });
      } else if (i == 6) {
        tasks.push_back([]() -> int {
          throw std::runtime_error(  // sphinx-lint-allow(naked-throw): test payload
              "fast-high-index");
        });
      } else {
        tasks.push_back([i] { return i; });
      }
    }
    std::string message;
    try {
      (void)run_parallel(tasks, 8);
    } catch (const std::runtime_error& error) {
      message = error.what();
    }
    EXPECT_EQ(message, "slow-low-index") << "attempt " << attempt;
  }
}

TEST(ParallelSweep, SingleThreadMatchesSerialOrder) {
  std::vector<std::function<int()>> tasks;
  for (int i = 0; i < 16; ++i) tasks.push_back([i] { return 100 - i; });
  const auto results = run_parallel(tasks, 1);
  ASSERT_EQ(results.size(), 16u);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(results[static_cast<std::size_t>(i)], 100 - i);
  }
}

TEST(ParallelSweep, MoreTasksThanThreads) {
  std::vector<std::function<std::uint64_t()>> tasks;
  for (std::uint64_t seed = 1; seed <= 9; ++seed) {
    tasks.push_back([seed] {
      Rng rng(seed);
      std::uint64_t acc = 0;
      for (int i = 0; i < 1000; ++i) {
        acc += static_cast<std::uint64_t>(rng.uniform_int(0, 100));
      }
      return acc;
    });
  }
  const auto results = run_parallel(tasks, 2);
  // Parallel execution must match serial execution exactly.
  for (std::uint64_t seed = 1; seed <= 9; ++seed) {
    Rng rng(seed);
    std::uint64_t acc = 0;
    for (int i = 0; i < 1000; ++i) {
      acc += static_cast<std::uint64_t>(rng.uniform_int(0, 100));
    }
    EXPECT_EQ(results[seed - 1], acc);
  }
}

TEST(ParallelSweep, RealScenariosInParallelAreDeterministic) {
  // Running simulations on the pool must give the same numbers as running
  // them serially -- simulations share nothing mutable.
  std::vector<std::function<double()>> tasks;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    tasks.push_back([seed] {
      Experiment experiment(tiny_config(seed));
      std::vector<TenantSpec> specs;
      specs.push_back({"ct", TenantOptions{}});
      return experiment.run(specs)[0].avg_dag_completion;
    });
  }
  const auto parallel = run_parallel(tasks, 4);
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Experiment experiment(tiny_config(seed));
    std::vector<TenantSpec> specs;
    specs.push_back({"ct", TenantOptions{}});
    const double serial = experiment.run(specs)[0].avg_dag_completion;
    EXPECT_DOUBLE_EQ(parallel[seed - 1], serial);
  }
}

}  // namespace
}  // namespace sphinx::exp
