#pragma once
/// \file site.hpp
/// One grid site: CPUs + local batch scheduler + health state.
///
/// A site accepts job submissions into a priority queue (VO priority
/// decides order, FIFO within a priority), dispatches them onto free CPUs,
/// runs the job's own stage-in action (if any) before computing, and emits condor-like
/// status events.  Health states model the failure modes the paper's
/// evaluation depends on: honest sites, sites that are down (unresponsive,
/// jobs lost), black holes (accept jobs, never run them) and degraded
/// sites (CPUs slowed).
///
/// A site keeps only its live submissions: an entry leaves once its
/// kCompleted or kCancelled event has been delivered, and go_down drops
/// every entry it loses, so a site's memory follows its queue and CPUs,
/// not its history.  A finished submission answers like an unknown one.

#include <deque>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>

#include "common/ids.hpp"
#include "common/rng.hpp"
#include "grid/types.hpp"
#include "sim/engine.hpp"

namespace sphinx::grid {

/// Site health, driven by the failure model.
enum class SiteHealth {
  kHealthy,
  kDown,       ///< unresponsive: loses jobs, answers no queries
  kBlackHole,  ///< responsive but never dispatches jobs
  kDegraded,   ///< responsive, CPUs run slower
};

[[nodiscard]] const char* to_string(SiteHealth health) noexcept;

/// CPU speed multiplier while a site is kDegraded.
inline constexpr double kDegradedSpeed = 0.3;

/// Static configuration of a site.
struct SiteConfig {
  std::string name;
  int cpus = 16;
  double cpu_speed = 1.0;      ///< relative speed; runtime = nominal / speed
  double runtime_noise = 0.1;  ///< lognormal sigma on job runtimes
  /// Local batch priority by VO name; unlisted VOs get priority 0.
  std::map<std::string, double> vo_priority;
};

class Site {
 public:
  Site(sim::Engine& engine, SiteId id, SiteConfig config, Rng rng);

  [[nodiscard]] SiteId id() const noexcept { return id_; }
  [[nodiscard]] const std::string& name() const noexcept { return config_.name; }
  [[nodiscard]] const SiteConfig& config() const noexcept { return config_; }
  [[nodiscard]] SiteHealth health() const noexcept { return health_; }  // sphinx-lint-allow(test-only): tests check the failure transitions

  /// Submits a job.  The site assigns and returns the submission id (ids
  /// are scoped to this site).  Returns nullopt if the site is down: the
  /// gatekeeper does not respond and the submission is lost.  The callback
  /// observes every later state change of this submission.
  std::optional<SubmissionId> submit(RemoteJob job, JobEventCallback callback);

  /// condor_rm: cancels a queued/staging/running job.  Queued jobs leave
  /// the queue; running jobs free their CPU.  Emits kCancelled.  Returns
  /// false if the submission is unknown, already finished, or the site is
  /// down (an unresponsive gatekeeper cannot process the remove -- the
  /// job is already lost anyway).  A submission's own callback may cancel
  /// it.
  bool cancel(SubmissionId submission);

  /// condor_q: the live queue snapshot, or nullopt if the site is down.
  [[nodiscard]] std::optional<QueueStatus> query() const;

  /// --- health transitions (driven by FailureModel) -------------------
  /// Takes the site down: queued/staging/running jobs are silently lost
  /// (no events -- an unresponsive site cannot notify anyone) and their
  /// entries dropped.
  void go_down();
  /// Turns the site into a black hole: it keeps accepting submissions and
  /// answering queries but never dispatches.
  void become_black_hole();
  /// Degrades CPU speed (running jobs finish at the degraded rate from
  /// their original schedule; new dispatches use the degraded speed).
  void degrade();
  /// Restores a healthy site.
  void recover();

 private:
  /// Batch queue order: (-priority, arrival sequence).
  using QueueKey = std::pair<double, std::uint64_t>;

  struct Entry {
    RemoteJob job;
    RemoteJobState state = RemoteJobState::kQueued;
    JobEventCallback callback;
    QueueKey queue_key;           ///< its place in queue_ while kQueued
    sim::EventHandle completion;  ///< pending compute-finish event
  };

  /// Moves the entry to `state` and tells its submitter; a terminal state
  /// retires the entry once the callback returns.  The callback may cancel
  /// the submission or take the site down, so a caller must look the entry
  /// up again by id afterwards.
  void emit(Entry& entry, RemoteJobState state);
  void try_dispatch();
  void start_job(SubmissionId submission);
  void begin_compute(SubmissionId submission);
  [[nodiscard]] double effective_speed() const noexcept;

  sim::Engine& engine_;
  SiteId id_;
  SiteConfig config_;
  Rng rng_;
  SiteHealth health_ = SiteHealth::kHealthy;

  // Queue of waiting submissions ordered by (priority desc, arrival).
  std::map<QueueKey, SubmissionId> queue_;
  std::uint64_t arrival_seq_ = 0;
  IdGenerator<SubmissionId> submission_ids_;
  int busy_cpus_ = 0;
  /// Live submissions only: queued, staging or running.
  std::unordered_map<SubmissionId, Entry> entries_;
};

}  // namespace sphinx::grid
