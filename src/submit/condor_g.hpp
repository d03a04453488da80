#pragma once
/// \file condor_g.hpp
/// Condor-G style grid submission gateway.
///
/// One gateway serves one client (user/VO): it submits a planned job to
/// the chosen site's gatekeeper, stages input replicas with GridFTP when
/// the site allocates a CPU, registers the output in the RLS on success,
/// and relays the condor-style state events back to the caller (the
/// SPHINX client's job tracker).

#include <functional>
#include <map>
#include <memory>
#include <string>
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
  /// every state change.
  bool submit(const SubmitRequest& request, GatewayCallback callback);

  /// condor_rm: cancels a job (kills in-flight stage-in transfers too).
  /// Returns false if the job is unknown, terminal, or the site is down.
  /// The JobId-only form targets the latest attempt; the qualified form
  /// cancels one specific attempt of a racing pair.
  bool cancel(JobId job);
  bool cancel(JobId job, int attempt);

  /// Per-job state, if the gateway knows the job.  JobId-only forms
  /// resolve the latest attempt.
  [[nodiscard]] std::optional<GatewayJobState> state_of(JobId job) const;
  [[nodiscard]] std::optional<GatewayJobState> state_of(JobId job,
                                                        int attempt) const;

  /// True when the gatekeeper of the attempt's execution site still
  /// answers status queries (condor_q against the remote jobmanager).
  /// False for unknown attempts or down sites.
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
  struct Record {
    SubmitRequest request;
    SiteId site;
    SubmissionId submission;
    GatewayJobState state = GatewayJobState::kSubmitted;
    GatewayCallback callback;
    std::vector<TransferId> active_transfers;
    /// Owns the stage-in continuation chain; dropping the record (or the
    /// gateway) tears the chain down without dangling callbacks.
    std::shared_ptr<std::function<void(std::size_t)>> stage_chain;
  };

  /// Submissions are tracked per (job, attempt); an ordered map keeps the
  /// attempts of one job contiguous so "latest attempt" is a range scan.
  using Key = std::pair<std::uint64_t, int>;

  void relay(Record& record, GatewayJobState state, SimTime at);
  void stage_inputs(Key key, std::function<void()> done);
  void on_completed(Record& record);
  /// Latest-attempt record of a job, or records_.end() if unknown.
  [[nodiscard]] std::map<Key, Record>::iterator find_latest(JobId job);
  [[nodiscard]] std::map<Key, Record>::const_iterator find_latest(
      JobId job) const;

  grid::Grid& grid_;
  data::TransferService& transfers_;
  data::ReplicaLocationService& rls_;
  std::string name_;
  std::map<Key, Record> records_;
};

}  // namespace sphinx::submit
