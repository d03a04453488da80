#pragma once
/// \file planner.hpp
/// Planner module: strategy + prediction + policy filter (paper section
/// 3.2) behind one narrow interface.
///
/// The planner consumes planning-state DAGs off the warehouse's dirty
/// list.  For every ready, unplanned job it assembles an immutable
/// PlanningContext snapshot -- policy-feasible sites with their static
/// catalog data, live outstanding counters, monitored queue depths, and
/// tracker feedback -- delegates the site choice to the configured
/// strategy, resolves input replicas through the RLS, and persists the
/// decision.  It returns the execution plans instead of sending them: the
/// outgoing RPC channel belongs to the composite server.

#include <memory>
#include <optional>
#include <vector>

#include "common/time.hpp"
#include "core/algorithms.hpp"
#include "core/codec.hpp"
#include "core/config.hpp"
#include "core/warehouse.hpp"
#include "data/gridftp.hpp"
#include "data/rls.hpp"
#include "monitor/service.hpp"
#include "obs/recorder.hpp"

namespace sphinx::core {

class Planner {
 public:
  Planner(DataWarehouse& warehouse, std::vector<CatalogSite> catalog,
          data::ReplicaLocationService& rls, data::TransferService& transfers,
          const monitor::MonitoringService* monitoring,
          const ServerConfig& config);

  /// What one planning pass over a DAG produced.
  struct Outcome {
    /// Plans persisted this pass, in decision order; the server delivers
    /// them to the client.
    std::vector<ExecutionPlan> plans;
    /// True when a ready job could not be placed (an input has no
    /// replica, or no site is feasible).  The server re-marks the DAG
    /// dirty so those jobs are retried next sweep.  Jobs still waiting on
    /// parents do not count: a parent's completion re-marks the DAG.
    bool jobs_left_unplanned = false;
  };

  /// Plans every ready job (DataWarehouse::ready_jobs) of a
  /// planning-state DAG.
  [[nodiscard]] Outcome plan_dag(const DagRecord& dag, SimTime now);

  /// Straggler defense: plans a speculative replica of a still-live
  /// (kSubmitted/kRunning) job onto the best feasible site *other than*
  /// the one the suspected straggler runs on, through the same strategy
  /// interface as regular planning.  Persists the race in the warehouse
  /// (speculate_job) and returns the plan for the server to deliver;
  /// nullopt when no alternative feasible site exists right now.
  [[nodiscard]] std::optional<ExecutionPlan> plan_speculative(
      const DagRecord& dag, const JobRecord& job, SimTime now);

  /// Attaches the server's flight recorder: a plan whose candidate set
  /// the quota filter narrowed counts "server.policy_rejections" under
  /// the server's endpoint.  Observation only.
  void set_recorder(obs::Recorder* recorder) noexcept { recorder_ = recorder; }

 private:
  /// Plans one job and persists the decision: a regular plan
  /// (set_job_planned) or, with `speculative`, a replica racing the live
  /// attempt on another site (speculate_job).  nullopt when an input has
  /// no replica or no feasible site exists right now.
  [[nodiscard]] std::optional<ExecutionPlan> assemble_plan(
      const DagRecord& dag, const JobRecord& job, SimTime now,
      bool speculative);
  /// Journals the strategy's cursor if a plan moved it since the last
  /// write, so a recovered planner resumes where this one left off.
  /// Called at the end of every planning entry point.
  void journal_algorithm_state();
  /// Fills context_.sites with the strategy's immutable view of the
  /// feasible sites.
  void collect_feasible_sites(const DagRecord& dag, const JobRecord& job);

  DataWarehouse& warehouse_;
  std::vector<CatalogSite> catalog_;
  data::ReplicaLocationService& rls_;
  data::TransferService& transfers_;
  const monitor::MonitoringService* monitoring_;  ///< may be null
  const ServerConfig& config_;
  std::unique_ptr<SchedulingAlgorithm> algorithm_;
  /// Last strategy state persisted to the warehouse; skips the table
  /// lookup when a pass changed nothing.
  std::string saved_algorithm_state_;
  /// The strategy's input, and the unreliable sites kept for its
  /// starvation fallback: buffers reused from one plan to the next.
  PlanningContext context_;
  std::vector<CandidateSite> unreliable_;
  obs::Recorder* recorder_ = nullptr;
};

}  // namespace sphinx::core
