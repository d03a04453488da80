#pragma once
/// \file runner.hpp
/// Group-wise experiment harness reproducing the paper's protocol.
///
/// "Each of these scheduling algorithms is executed on multiple instances
/// of SPHINX servers ... started at the same time so that they can
/// compete for the same set of grid resources.  It is believed as the
/// fairest way to compare the performance of different algorithms in a
/// dynamically changing environment" (section 4.2).  The Experiment class
/// builds one shared grid, one tenant per strategy, hands every tenant a
/// structurally identical workload, runs the simulation and extracts the
/// per-tenant metrics each figure plots.

#include <memory>
#include <string>
#include <vector>

#include "exp/scenario.hpp"
#include "workflow/generator.hpp"

namespace sphinx::exp {

/// One strategy under test.
struct TenantSpec {
  std::string label;
  TenantOptions options;
};

/// Figure-6 style per-site observation.
struct SiteFigure {
  std::string site;
  std::size_t completed = 0;
  double avg_completion = 0.0;
};

/// Everything the figures need about one tenant's run.
struct TenantResult {
  std::string label;
  std::size_t dags_total = 0;
  std::size_t dags_finished = 0;
  double avg_dag_completion = 0.0;  ///< Figures 2, 3a, 4a, 5a, 7a
  double avg_job_execution = 0.0;   ///< Figures 3b, 4b, 5b, 7b
  double avg_job_idle = 0.0;        ///< Figures 3b, 4b, 5b, 7b
  std::size_t timeouts = 0;         ///< Figure 8
  std::size_t extensions = 0;       ///< progress-aware timeout deferrals
  std::size_t held_or_failed = 0;
  std::size_t plans = 0;             ///< speculative replicas included
  std::size_t replans = 0;
  std::size_t policy_rejections = 0;
  /// Reliable-RPC accounting (lossy-network smoke gate): submissions and
  /// the distinct (job, attempt) pairs ever handed to the gateway must
  /// agree, or a duplicate delivery executed a plan twice.
  std::size_t submissions = 0;
  std::size_t unique_submissions = 0;
  std::size_t duplicate_plans = 0;       ///< re-deliveries skipped by the guard
  std::size_t duplicate_dags = 0;        ///< server-side duplicate submissions
  std::vector<SiteFigure> per_site;  ///< Figure 6
};

/// Experiment-level configuration.
struct ExperimentConfig {
  ScenarioConfig scenario;
  workflow::WorkloadConfig workload;
  int dag_count = 30;             ///< 30 / 60 / 120 in the paper
  SimTime horizon = hours(48);    ///< hard stop
  /// Figure 7: per-user per-site usage quotas, as a fraction of the total
  /// workload demand.  0 disables quota installation.
  double quota_cpu_fraction = 0.0;
  double quota_disk_fraction = 0.0;
  /// Flight-recorder export: written after run() when non-empty
  /// ("-" = stdout).  Same-seed runs produce byte-identical files.
  std::string trace_path;
  std::string metrics_path;
};

class Experiment {
 public:
  explicit Experiment(ExperimentConfig config) : config_(std::move(config)) {}

  /// Runs the group-wise comparison and returns one result per tenant.
  [[nodiscard]] std::vector<TenantResult> run(
      const std::vector<TenantSpec>& specs);

  /// Simulated time at which the run stopped (after run()).
  [[nodiscard]] SimTime stopped_at() const noexcept { return stopped_at_; }

  /// The run's flight recorder (valid after run(); the scenario stays
  /// alive so figures can derive their numbers from the recorded trace
  /// and metrics instead of ad-hoc counters).
  [[nodiscard]] const obs::Recorder& recorder() const;

 private:
  ExperimentConfig config_;
  SimTime stopped_at_ = 0.0;
  std::unique_ptr<Scenario> scenario_;
};

/// Convenience: the four-strategy panel used by Figures 3-5 (all with
/// feedback, no policy).
[[nodiscard]] std::vector<TenantSpec> standard_panel();

}  // namespace sphinx::exp
