#pragma once
/// \file types.hpp
/// Shared vocabulary types for the grid fabric.

#include <functional>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "common/time.hpp"

namespace sphinx::grid {

/// Lifecycle of a job as seen by a site's local batch system
/// (condor_q/PBS-style states).
enum class RemoteJobState {
  kQueued,     ///< accepted, waiting for a CPU ("idle" in condor_q)
  kStaging,    ///< CPU allocated, input files being transferred
  kRunning,    ///< computing
  kCompleted,  ///< finished successfully
  kHeld,       ///< stopped by the site (failure, policy); needs intervention
  kCancelled,  ///< removed on user request (condor_rm)
};

[[nodiscard]] const char* to_string(RemoteJobState state) noexcept;

/// True for states a job never leaves.
[[nodiscard]] constexpr bool is_terminal(RemoteJobState s) noexcept {
  return s == RemoteJobState::kCompleted || s == RemoteJobState::kHeld ||
         s == RemoteJobState::kCancelled;
}

/// A job as handed to a site by the submission layer.
struct RemoteJob {
  SubmissionId submission;   ///< assigned by the site on submit
  JobId job;                 ///< global (SPHINX) job id; may be invalid for
                             ///< background load
  UserId user;
  std::string vo;            ///< VO the submitter's proxy asserts
  Duration compute_time = 60.0;  ///< nominal seconds on a speed-1.0 CPU
  double priority = 0.0;     ///< local batch priority (higher runs first)
  /// Per-job stage-in action, installed by the submission layer: invoked
  /// when a CPU is allocated; compute starts when `done` is called.
  /// Null = no staging.
  std::function<void(std::function<void()> done)> stage;
};

/// Status-change notification from a site to the submission layer.
struct JobEvent {
  SubmissionId submission;
  RemoteJobState state = RemoteJobState::kQueued;
  SimTime at = 0.0;
};

/// Callback the submitter registers to observe one submission.
using JobEventCallback = std::function<void(const JobEvent&)>;

/// condor_q-style queue snapshot a site reports when queried.
struct QueueStatus {
  int cpus = 0;        ///< total CPUs at the site
  int queued = 0;      ///< jobs waiting for a CPU (all VOs)
  int running = 0;     ///< jobs staging or computing (all VOs)
  int free_cpus = 0;   ///< cpus - running
};

}  // namespace sphinx::grid
