#pragma once
/// \file dagman.hpp
/// DAGMan-style dependency-driven DAG execution.
///
/// Runs one abstract DAG against the grid through a Condor-G gateway:
/// releases a job when all its parents have completed, consults a
/// *callout* just before submission to decide the execution site and
/// replica sources (the extension point the paper highlights: "DAGMan has
/// been extended to provide a call-out to a customizable, external
/// procedure just before job execution", section 5).  Used standalone it
/// reproduces "the way things are done today" baselines; SPHINX plugs its
/// server-side planner into the same callout shape.

#include <functional>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "submit/condor_g.hpp"
#include "workflow/dag.hpp"

namespace sphinx::submit {

/// Decision returned by the callout for one ready job.
struct Placement {
  SiteId site;
  std::vector<StagedInput> inputs;  ///< resolved replica sources
};

/// The pre-submission callout: picks where a ready job runs.  Returning
/// nullopt defers the job; DAGMan retries it on the next progress event.
using PlacementCallout = std::function<std::optional<Placement>(
    const workflow::JobSpec&)>;

/// Completion notification for the whole DAG.
using DagDoneCallback = std::function<void(DagId, SimTime finished_at)>;

class DagMan {
 public:
  /// \param max_retries per-job resubmission budget on held/failed events.
  DagMan(CondorG& gateway, workflow::Dag dag, UserId user, std::string vo,
         PlacementCallout callout, DagDoneCallback on_done,
         int max_retries = 3);

  /// Releases the root jobs.  \param now current simulation time.
  void start(SimTime now);

  [[nodiscard]] bool finished() const noexcept {
    return completed_.size() == dag_.size();
  }
  [[nodiscard]] bool failed() const noexcept { return failed_; }
  [[nodiscard]] std::size_t resubmissions() const noexcept { return retries_; }
  [[nodiscard]] const workflow::Dag& dag() const noexcept { return dag_; }

 private:
  void release_ready(SimTime now);
  void submit_job(JobId id, SimTime now);
  void on_event(const GatewayEvent& event);

  CondorG& gateway_;
  workflow::Dag dag_;
  UserId user_;
  std::string vo_;
  PlacementCallout callout_;
  DagDoneCallback on_done_;
  int max_retries_;

  std::unordered_set<JobId> completed_;
  std::unordered_set<JobId> active_;
  std::unordered_map<JobId, int> attempts_;
  std::size_t retries_ = 0;
  bool failed_ = false;
  bool done_notified_ = false;
};

}  // namespace sphinx::submit
