#pragma once
/// \file condor_g.hpp
/// Condor-G style grid submission gateway.
///
/// One gateway serves one client (user/VO): it submits a planned job to
/// the chosen site's gatekeeper, stages input replicas with GridFTP when
/// the site allocates a CPU, registers the output in the RLS on success,
/// and relays the condor-style state events back to the caller (the
/// SPHINX client's job tracker).
///
/// The gateway keeps only live attempts.  An attempt is retired once the
/// callback of its terminal event (completed, held, removed, failed) has
/// returned; from then on it answers like an unknown one, and the same
/// (job, attempt) may be submitted again.

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/ids.hpp"
#include "data/gridftp.hpp"
#include "data/rls.hpp"
#include "grid/grid.hpp"

namespace sphinx::submit {

/// One resolved input: where to pull the file from.
struct StagedInput {
  data::Lfn lfn;
  SiteId source;
  double bytes = 0.0;
};

/// A fully planned job, ready to submit.
struct SubmitRequest {
  JobId job;
  std::string name;
  UserId user;
  std::string vo = "uscms";
  SiteId site;                      ///< execution site (SPHINX's decision)
  double priority = 0.0;            ///< within-VO batch priority nudge
  Duration compute_time = 60.0;
  std::vector<StagedInput> inputs;  ///< chosen transfer sources
  data::Lfn output;                 ///< published to the RLS on success
  double output_bytes = 0.0;
  /// Which attempt of the job this submission carries.  Speculation races
  /// two attempts of the same JobId through the same gateway, so the
  /// gateway tracks submissions per (job, attempt).
  int attempt = 1;
};

/// Gateway-level view of a submission.
enum class GatewayJobState {
  kSubmitted,  ///< handed to the remote gatekeeper
  kIdle,       ///< queued at the site
  kStaging,
  kRunning,
  kCompleted,
  kHeld,
  kRemoved,    ///< cancelled via condor_rm
  kFailed,     ///< submission itself failed (site down)
};

[[nodiscard]] const char* to_string(GatewayJobState state) noexcept;

/// Status events relayed to the owner of the submission.
struct GatewayEvent {
  JobId job;
  GatewayJobState state = GatewayJobState::kSubmitted;
  SimTime at = 0.0;
  int attempt = 1;  ///< which attempt of the job the event describes
};

using GatewayCallback = std::function<void(const GatewayEvent&)>;

class CondorG {
 public:
  CondorG(grid::Grid& grid, data::TransferService& transfers,
          data::ReplicaLocationService& rls, std::string name);

  /// Submits a planned job.  Returns false when the gatekeeper is down
  /// (the caller sees a kFailed event first).  The callback observes
  /// every state change; it may cancel the attempt, or submit the same
  /// (job, attempt) again from its terminal event, as DAGMan does.
  bool submit(const SubmitRequest& request, GatewayCallback callback);

  /// condor_rm: cancels a job (kills in-flight stage-in transfers too).
  /// Returns false if the job is unknown, finished, or the site is down.
  /// The JobId-only form targets the latest live attempt; the qualified
  /// form cancels one specific attempt of a racing pair.
  bool cancel(JobId job);
  bool cancel(JobId job, int attempt);

  /// Per-job state while the attempt is live (inside its terminal event's
  /// callback too), nullopt once it is retired or if it never existed.
  /// JobId-only forms resolve the latest live attempt.
  [[nodiscard]] std::optional<GatewayJobState> state_of(JobId job) const;
  [[nodiscard]] std::optional<GatewayJobState> state_of(JobId job,
                                                        int attempt) const;

  /// True when the gatekeeper of the attempt's execution site still
  /// answers status queries (condor_q against the remote jobmanager).
  /// False for unknown or retired attempts, or down sites.
  [[nodiscard]] bool site_responsive(JobId job, int attempt) const;
  /// Whether the grid this gateway submits to has site `id`.
  [[nodiscard]] bool has_site(SiteId id) const noexcept {
    return grid_.has_site(id);
  }

  /// Third-party replication (globus-url-copy style): copies an existing
  /// replica to `destination` and registers it in the RLS.  `done(true)`
  /// on success; `done(false)` if no source replica exists or the
  /// destination already has the file.
  void replicate(const data::Lfn& lfn, SiteId destination,
                 std::function<void(bool)> done);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

 private:
  /// One live attempt: what the gateway reads after submit() returns.
  struct Record {
    JobId job;
    int attempt = 1;
    SiteId site;
    SubmissionId submission;  ///< named by the site's kQueued event
    GatewayJobState state = GatewayJobState::kSubmitted;
    GatewayCallback callback;
    std::vector<StagedInput> inputs;
    data::Lfn output;
    double output_bytes = 0.0;
    std::vector<TransferId> active_transfers;
    /// Owns the stage-in continuation chain; dropping the record (or the
    /// gateway) tears the chain down without dangling callbacks.
    std::shared_ptr<std::function<void(std::size_t)>> stage_chain;
  };

  /// Records are held under a gateway-local id, which the site and
  /// transfer callbacks carry: with `this` it fits std::function's inline
  /// buffer, so the copy a site calls allocates nothing.  `attempts_`
  /// finds a record by (job, attempt).
  using Records = std::unordered_map<std::uint64_t, Record>;
  using Key = std::pair<std::uint64_t, int>;

  void on_site_event(std::uint64_t id, const grid::JobEvent& event);
  /// Moves the record to `state` and tells its owner; a terminal state
  /// retires the record once the callback returns.
  void relay(Records::iterator record, GatewayJobState state, SimTime at);
  void stage_inputs(std::uint64_t id, std::function<void()> done);
  void on_completed(const Record& record);
  [[nodiscard]] const Record* find(JobId job, int attempt) const;
  /// Latest live attempt's record of a job, or nullptr.
  [[nodiscard]] const Record* find_latest(JobId job) const;

  grid::Grid& grid_;
  data::TransferService& transfers_;
  data::ReplicaLocationService& rls_;
  std::string name_;
  Records records_;
  /// Live attempts by (job, attempt).  Ordered, so the attempts of one job
  /// are contiguous and "latest live attempt" is a range scan.
  std::map<Key, std::uint64_t> attempts_;
  std::uint64_t last_id_ = 0;
};

}  // namespace sphinx::submit
