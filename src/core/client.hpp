#pragma once
/// \file client.hpp
/// The SPHINX client: lightweight scheduling agent + job tracker.
///
/// "The client is a lightweight portable scheduling agent that represents
/// the server for processing scheduling requests" (paper section 3.1).
/// It submits abstract DAGs to the server, receives per-job execution
/// plans, turns them into Condor-G submissions, and runs the *job
/// tracker*: watching execution status, reporting completion times back
/// to the server, cancelling jobs that exceed their timeout and
/// requesting replanning -- the mechanism behind every fault-tolerance
/// result in the paper (Figures 2 and 8).  The tracker follows each
/// attempt until it ends and then forgets it, keeping only the few fields
/// of the plan it reads afterwards.

#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/ids.hpp"
#include "common/log.hpp"
#include "common/stats.hpp"
#include "core/codec.hpp"
#include "obs/recorder.hpp"
#include "rpc/clarens.hpp"
#include "submit/condor_g.hpp"
#include "workflow/dag.hpp"

namespace sphinx::core {

struct ClientConfig {
  std::string endpoint = "sphinx-client";
  std::string server = "sphinx-server";
  UserId user = UserId(1);
  std::string vo = "uscms";
  /// Tracker timeout: a job that has made no visible progress this long
  /// after submission is cancelled and replanning is requested.  A job
  /// observed staging or computing on a responsive site is granted a few
  /// further periods first (kMaxTimeoutExtensions in client.cpp).
  Duration job_timeout = minutes(30);
};

/// Completion record for one DAG (client-side timing).
struct DagOutcome {
  DagOutcome(DagId dag, std::string dag_name, SimTime submitted_at,
             SimTime due)
      : id(dag),
        name(std::move(dag_name)),
        deadline(due),
        submitted_at_(submitted_at) {}

  DagId id;
  std::string name;
  SimTime finished_at = kNever;
  SimTime deadline = kNever;  ///< QoS deadline; kNever = best effort
  [[nodiscard]] bool done() const noexcept { return finished_at < kNever; }
  [[nodiscard]] Duration completion_time() const noexcept {
    return finished_at - submitted_at_;
  }
  /// True when a QoS deadline existed and was met.
  [[nodiscard]] bool deadline_met() const noexcept {  // sphinx-lint-allow(test-only): the deadline tally in this pair reads it
    return deadline < kNever && done() && finished_at <= deadline;
  }

 private:
  SimTime submitted_at_ = 0.0;
};

/// The tracker's one count outside the recorder: plans handed to the
/// gateway, which unique_submissions() must match on a healthy run.  The
/// tracker's other counts (timeouts, extensions, completions, ...) live
/// only in the recorder as "tracker.*\@<endpoint>".
struct TrackerStats {
  std::size_t submissions = 0;
};

class SphinxClient {
 public:
  SphinxClient(rpc::MessageBus& bus, submit::CondorG& gateway,
               ClientConfig config, rpc::Proxy proxy);
  ~SphinxClient();

  SphinxClient(const SphinxClient&) = delete;
  SphinxClient& operator=(const SphinxClient&) = delete;

  /// Sends an abstract DAG to the server for scheduling.  Higher
  /// `priority` requests are planned first when resources are contended;
  /// a finite `deadline` (absolute sim time) requests QoS: among equal
  /// priorities the server plans earliest-deadline DAGs first.
  void submit(const workflow::Dag& dag, double priority = 0.0,
              SimTime deadline = kNever);

  /// DAGs with a deadline that finished on time / in total.
  [[nodiscard]] std::pair<std::size_t, std::size_t> deadline_hits() const;

  // --- observability ----------------------------------------------------
  [[nodiscard]] const std::vector<DagOutcome>& dag_outcomes() const noexcept {
    return outcomes_;
  }
  [[nodiscard]] std::size_t dags_finished() const noexcept;
  [[nodiscard]] bool all_dags_finished() const noexcept;
  /// Average DAG completion time over finished DAGs (Figures 2-5a, 7a).
  [[nodiscard]] double avg_dag_completion() const;
  /// Average job execution time over completed attempts (Figures 3-5b).
  [[nodiscard]] double avg_job_execution() const;
  /// Average idle (queuing) time over completed attempts (Figures 3-5b).
  [[nodiscard]] double avg_job_idle() const;
  [[nodiscard]] const TrackerStats& tracker_stats() const noexcept {
    return tracker_;
  }
  /// Per-site completed-job counts and mean completion times as this
  /// client observed them (Figure 6).
  struct SiteObservation {
    std::size_t completed = 0;
    RunningStats completion_times;
  };
  [[nodiscard]] const std::unordered_map<SiteId, SiteObservation>&
  site_observations() const noexcept {
    return per_site_;
  }

  [[nodiscard]] const ClientConfig& config() const noexcept { return config_; }

  /// Attaches a flight recorder: tracker timeouts, extensions and
  /// completion observations are traced and counted under this client's
  /// endpoint.  Observation only.
  void set_recorder(obs::Recorder* recorder);

  /// Jobs currently tracked (terminal entries are erased as their
  /// lifecycle ends, so this does not grow with run length).
  [[nodiscard]] std::size_t tracked_jobs() const noexcept {  // sphinx-lint-allow(test-only): tests check that attempts are untracked
    return tracked_.size();
  }

  /// Distinct (job, attempt) pairs ever handed to the gateway.  On a
  /// healthy run this equals tracker_stats().submissions -- the lossy
  /// smoke gate asserts exactly that to prove no plan executed twice.
  [[nodiscard]] std::size_t unique_submissions() const noexcept {
    return submitted_attempts_.size();
  }

 private:
  /// One live attempt: what the tracker reads after handing the plan to
  /// the gateway.
  struct Tracked {
    SiteId site;
    /// Planner step 4: where the output is archived once the job
    /// completes (invalid: it stays put), and the output itself.
    SiteId archive_site;
    data::Lfn output;
    SimTime submitted_at = 0.0;
    SimTime started_at = kNever;
    sim::EventHandle timeout;
    int extensions = 0;
    bool speculative = false;
    bool terminal = false;
  };

  /// Tracker entries are keyed per (job, attempt): a speculation race has
  /// two live attempts of one JobId at once.
  using Key = std::pair<std::uint64_t, int>;
  struct KeyHash {
    std::size_t operator()(const Key& key) const noexcept {
      return std::hash<std::uint64_t>{}(
          key.first * 0x9e3779b97f4a7c15ull ^
          static_cast<std::uint64_t>(key.second));
    }
  };

  Expected<bool> handle_execute_plan(const ExecutionPlan& plan);
  Expected<bool> handle_dag_done(DagId dag);
  Expected<bool> handle_cancel_attempt(const AttemptCancel& cancel);
  void on_gateway_event(const submit::GatewayEvent& event);
  void on_timeout(JobId job, int attempt);
  void report(const TrackerReport& report);
  void finish_tracking(Tracked& tracked);
  void erase_tracked(Key key);

  rpc::MessageBus& bus_;
  submit::CondorG& gateway_;
  ClientConfig config_;
  std::unique_ptr<rpc::ClarensService> service_;
  std::unique_ptr<rpc::ClarensClient> rpc_;
  /// Live attempts only: an entry leaves when its attempt ends.
  std::unordered_map<Key, Tracked, KeyHash> tracked_;
  /// Jobs whose first completion has already been observed; a sibling
  /// attempt completing later is the race loser and is arbitrated away.
  std::unordered_set<std::uint64_t> completed_jobs_;
  /// Speculative attempts currently tracked, for the budget contract.
  std::size_t racing_now_ = 0;  // sphinx-lint: derived(handle_execute_plan, erase_tracked)
  /// Every (job, attempt) accepted for submission, for the duplicate-plan
  /// guard.  Legitimate replans always carry a fresh attempt number, so
  /// a repeat pair can only be a duplicate delivery.
  std::set<std::pair<std::uint64_t, int>> submitted_attempts_;
  std::unordered_map<DagId, std::size_t> outcome_index_;
  std::vector<DagOutcome> outcomes_;
  TrackerStats tracker_;
  RunningStats exec_times_;
  RunningStats idle_times_;
  std::unordered_map<SiteId, SiteObservation> per_site_;
  obs::Recorder* recorder_ = nullptr;
  /// This client's endpoint and "job" in the recorder's trace.
  obs::Name source_name_{};
  obs::Name job_name_{};
  Logger log_{"sphinx-client"};
};

}  // namespace sphinx::core
