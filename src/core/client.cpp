#include "core/client.hpp"

#include "core/config.hpp"

namespace sphinx::core {
namespace {

/// Timeout periods granted to an attempt observed staging or computing
/// on a responsive site before the hard kill: slow is not dead, and
/// cancelling a half-staged job only to restage it elsewhere makes
/// congestion worse.
constexpr int kMaxTimeoutExtensions = 3;

}  // namespace

SphinxClient::SphinxClient(rpc::MessageBus& bus, submit::CondorG& gateway,
                           ClientConfig config, rpc::Proxy proxy)
    : bus_(bus), gateway_(gateway), config_(std::move(config)) {
  // The client endpoint only accepts calls from authenticated peers; the
  // server presents its host proxy (VO "ivdgl").
  rpc::AuthzPolicy policy;
  policy.allow_vo("ivdgl");
  policy.allow_vo(config_.vo);
  service_ = std::make_unique<rpc::ClarensService>(bus_, config_.endpoint,
                                                   std::move(policy));
  service_->register_method(
      "sphinx_client.execute_plan", &decode_plan, &write_flag,
      [this](const ExecutionPlan& plan, const rpc::Proxy&) {
        return handle_execute_plan(plan);
      });
  service_->register_method(
      "sphinx_client.dag_done", &decode_dag_done, &write_flag,
      [this](const DagId& dag, const rpc::Proxy&) {
        return handle_dag_done(dag);
      });
  service_->register_method(
      "sphinx_client.cancel_attempt", &decode_cancel_attempt, &write_flag,
      [this](const AttemptCancel& cancel, const rpc::Proxy&) {
        return handle_cancel_attempt(cancel);
      });
  rpc_ = std::make_unique<rpc::ClarensClient>(bus_, config_.endpoint + "/out",
                                              std::move(proxy));
}

SphinxClient::~SphinxClient() = default;

void SphinxClient::set_recorder(obs::Recorder* recorder) {
  recorder_ = recorder;
  if (recorder_ == nullptr) return;
  source_name_ = recorder_->name(config_.endpoint);
  job_name_ = recorder_->name("job");
}

void SphinxClient::submit(const workflow::Dag& dag, double priority,
                          SimTime deadline) {
  outcome_index_[dag.id()] = outcomes_.size();
  outcomes_.emplace_back(dag.id(), dag.name(), bus_.engine().now(), deadline);

  rpc_->call(config_.server,
             encode_dag(config_.endpoint, config_.user, dag, priority,
                        deadline),
             &read_dag_id, [this](Expected<DagId> result) {
               if (!result.has_value()) {
                 log_.error("dag submission rejected: ",
                            result.error().to_string());
               }
             });
}

Expected<bool> SphinxClient::handle_execute_plan(const ExecutionPlan& plan) {
  // A plan for a site this client's grid does not have cannot run, nor
  // can one staging an input from such a site or archiving its output to
  // one; refuse it before anything is tracked or submitted.
  if (!gateway_.has_site(plan.site)) {
    return make_error("bad_request", "unknown site " +
                                         std::to_string(plan.site.value()));
  }
  for (const PlannedInput& input : plan.inputs) {
    if (!gateway_.has_site(input.source)) {
      return make_error("bad_request",
                        "input " + input.lfn + " from unknown site " +
                            std::to_string(input.source.value()));
    }
  }
  if (plan.persistent_site.valid() &&
      !gateway_.has_site(plan.persistent_site)) {
    return make_error("bad_request",
                      "output archived to unknown site " +
                          std::to_string(plan.persistent_site.value()));
  }
  // Duplicate-delivery guard: a replanned job always carries a fresh
  // attempt number, so a repeated (job, attempt) pair is a re-delivered
  // plan.  Acknowledge it without touching the tracker or the gateway --
  // a plan must never execute twice.
  if (!submitted_attempts_.emplace(plan.job.value(), plan.attempt).second) {
    if (recorder_ != nullptr) {
      recorder_->count(config_.endpoint, "tracker.duplicate_plans");
    }
    return true;
  }
  if (recorder_ != nullptr) {
    recorder_->count(config_.endpoint, "tracker.plans_received");
  }
  if (plan.speculative) {
    if (recorder_ != nullptr) {
      recorder_->count(config_.endpoint, "tracker.speculative_plans");
    }
  }

  // Turn the server's decision into a gateway submission.
  submit::SubmitRequest request;
  request.job = plan.job;
  request.name = plan.job_name;
  request.user = config_.user;
  request.vo = config_.vo;
  request.site = plan.site;
  request.priority = plan.batch_priority;
  request.compute_time = plan.compute_time;
  request.attempt = plan.attempt;
  for (const PlannedInput& input : plan.inputs) {
    request.inputs.push_back(
        submit::StagedInput{input.lfn, input.source, input.bytes});
  }
  request.output = plan.output;
  request.output_bytes = plan.output_bytes;

  const SimTime now = bus_.engine().now();
  const JobId job = plan.job;
  const int attempt = plan.attempt;
  // Each attempt gets its own entry, so a resubmission starts with a
  // *fresh* extensions budget -- the previous attempt's used-up
  // extensions must not count against the new attempt (Figure 8's timeout
  // counts depend on this).  A speculative plan coexists with the still
  // racing primary attempt instead of replacing it.  The duplicate guard
  // above means the key is new.
  const auto [slot, fresh] = tracked_.try_emplace(Key{job.value(), attempt});
  SPHINX_ASSERT(fresh, "attempt already tracked");
  Tracked& tracked = slot->second;
  tracked.site = plan.site;
  if (plan.persist_output && plan.persistent_site.valid() &&
      plan.persistent_site != plan.site) {
    tracked.archive_site = plan.persistent_site;
    tracked.output = plan.output;
  }
  tracked.submitted_at = now;
  tracked.speculative = plan.speculative;
  if (plan.speculative) {
    ++racing_now_;
    // Cross-layer contract: the server enforces its speculation budgets
    // *before* sending a plan; more concurrent racers than its global
    // budget means that enforcement is broken.
    SPHINX_ASSERT(racing_now_ <= kSpeculationMaxGlobal,
                  "speculation budget exceeded at the client");
  }
  tracked.timeout = bus_.engine().schedule_in(
      config_.job_timeout, "client:timeout",
      [this, job, attempt] { on_timeout(job, attempt); });

  ++tracker_.submissions;
  const bool accepted = gateway_.submit(
      request,
      [this](const submit::GatewayEvent& event) { on_gateway_event(event); });
  if (accepted) {
    report(TrackerReport{job, ReportKind::kSubmitted, plan.site, now, 0, 0, 0,
                         attempt});
  }
  // If not accepted, the kFailed gateway event already ran on_gateway_event
  // and requested replanning.
  return true;
}

Expected<bool> SphinxClient::handle_dag_done(DagId dag) {
  const auto it = outcome_index_.find(dag);
  if (it == outcome_index_.end()) {
    return make_error("unknown_dag", "client never submitted this dag");
  }
  DagOutcome& outcome = outcomes_[it->second];
  if (outcome.done()) {
    // Duplicate notification: keep the first delivery's finish time so
    // completion-time metrics are not skewed by the retransmission.
    if (recorder_ != nullptr) {
      recorder_->count(config_.endpoint, "tracker.duplicate_dag_done");
    }
    return true;
  }
  outcome.finished_at = bus_.engine().now();
  if (recorder_ != nullptr) {
    recorder_->count(config_.endpoint, "tracker.dags_done");
    recorder_->observe(config_.endpoint, "dag.completion_time",
                       outcome.completion_time());
  }
  return true;
}

void SphinxClient::finish_tracking(Tracked& tracked) {
  tracked.terminal = true;
  bus_.engine().cancel(tracked.timeout);
}

void SphinxClient::erase_tracked(Key key) {
  const auto it = tracked_.find(key);
  if (it == tracked_.end()) return;
  if (it->second.speculative) {
    SPHINX_ASSERT(racing_now_ > 0, "racing counter underflow");
    --racing_now_;
  }
  tracked_.erase(it);
}

Expected<bool> SphinxClient::handle_cancel_attempt(
    const AttemptCancel& cancel) {
  const Key key{cancel.job.value(), cancel.attempt};
  // Idempotent: the loser attempt may already be gone (it completed or
  // failed before the cancel arrived, or this is a retransmission).  The
  // server has already settled the race either way.
  const auto it = tracked_.find(key);
  if (it == tracked_.end() || it->second.terminal) return true;
  Tracked& tracked = it->second;
  finish_tracking(tracked);
  if (recorder_ != nullptr) {
    recorder_->count(config_.endpoint, "tracker.race_cancels");
  }
  gateway_.cancel(cancel.job, cancel.attempt);
  // No report: the server initiated this cancellation when it settled the
  // race and has already retired the attempt.
  erase_tracked(key);
  return true;
}

void SphinxClient::on_gateway_event(const submit::GatewayEvent& event) {
  const Key key{event.job.value(), event.attempt};
  const auto it = tracked_.find(key);
  if (it == tracked_.end()) return;
  Tracked& tracked = it->second;
  if (tracked.terminal) return;
  const SimTime now = bus_.engine().now();
  const SiteId site = tracked.site;
  const int attempt = event.attempt;

  switch (event.state) {
    case submit::GatewayJobState::kRunning: {
      tracked.started_at = now;
      TrackerReport r{event.job, ReportKind::kRunning, site, now, 0, 0, 0,
                      attempt};
      r.idle_time = now - tracked.submitted_at;
      report(r);
      return;
    }
    case submit::GatewayJobState::kCompleted: {
      finish_tracking(tracked);
      // First-completion-wins arbitration: when the sibling attempt of a
      // speculation race already completed, this one is the loser whose
      // cancel lost the race to its own completion.  Swallow it -- no
      // stats, no report -- the job is already done.
      if (!completed_jobs_.insert(event.job.value()).second) {
        if (recorder_ != nullptr) {
          recorder_->count(config_.endpoint, "tracker.duplicate_completions");
        }
        erase_tracked(key);
        return;
      }
      TrackerReport r{event.job, ReportKind::kCompleted, site, now, 0, 0, 0,
                      attempt};
      r.completion_time = now - tracked.submitted_at;
      if (tracked.started_at < kNever) {
        r.execution_time = now - tracked.started_at;
        r.idle_time = tracked.started_at - tracked.submitted_at;
      }
      exec_times_.add(r.execution_time);
      idle_times_.add(r.idle_time);
      auto& obs = per_site_[site];
      ++obs.completed;
      obs.completion_times.add(r.completion_time);
      // Planner step 4: archive final outputs to persistent storage.
      if (tracked.archive_site.valid()) {
        gateway_.replicate(tracked.output, tracked.archive_site, [](bool) {});
      }
      if (recorder_ != nullptr) {
        recorder_->count(config_.endpoint, "tracker.completions");
        recorder_->observe(config_.endpoint, "job.completion_time",
                           r.completion_time);
      }
      report(r);
      erase_tracked(key);  // terminal: drop the tracker entry
      return;
    }
    case submit::GatewayJobState::kHeld:
    case submit::GatewayJobState::kFailed: {
      // Site-initiated failure: clean up the remote side and request
      // replanning ("the client also sends the job cancellation message
      // to the remote sites on which the held jobs are located").
      finish_tracking(tracked);
      gateway_.cancel(event.job, attempt);
      TrackerReport r{event.job, ReportKind::kHeld, site, now, 0, 0, 0,
                      attempt};
      r.completion_time = now - tracked.submitted_at;  // censored
      if (recorder_ != nullptr) {
        recorder_->count(config_.endpoint, "tracker.held_or_failed");
      }
      report(r);
      erase_tracked(key);  // terminal: drop the tracker entry
      return;
    }
    case submit::GatewayJobState::kRemoved: {
      if (!tracked.terminal) {
        // Removed by someone other than our timeout path: treat as held.
        finish_tracking(tracked);
        TrackerReport r{event.job, ReportKind::kHeld, site, now, 0, 0, 0,
                        attempt};
        r.completion_time = now - tracked.submitted_at;  // censored
        report(r);
        erase_tracked(key);
      }
      // Terminal entries are left for the initiating path (on_timeout or
      // the held branch above) to erase -- it still holds a reference.
      return;
    }
    default:
      return;  // kSubmitted/kIdle/kStaging carry no tracker action
  }
}

void SphinxClient::on_timeout(JobId job, int attempt) {
  const Key key{job.value(), attempt};
  const auto it = tracked_.find(key);
  if (it == tracked_.end() || it->second.terminal) return;
  Tracked& tracked = it->second;
  // Progress check before killing: a job visibly staging or computing on
  // a responsive site is slow, not lost.  Grant it another period (up to
  // kMaxTimeoutExtensions) instead of cancelling and re-staging it
  // somewhere else.
  const auto state = gateway_.state_of(job, attempt);
  const bool progressing =
      state.has_value() && (*state == submit::GatewayJobState::kStaging ||
                            *state == submit::GatewayJobState::kRunning);
  if (progressing && gateway_.site_responsive(job, attempt) &&
      tracked.extensions < kMaxTimeoutExtensions) {
    ++tracked.extensions;
    // Rearm relative to *this observation*, not the original schedule:
    // the next check fires one full timeout period from now, so repeated
    // extensions never accumulate drift against the submission time.
    tracked.timeout = bus_.engine().schedule_in(
        config_.job_timeout, "client:timeout",
        [this, job, attempt] { on_timeout(job, attempt); });
    if (recorder_ != nullptr) {
      recorder_->event(obs::TraceKind::kTrackerExtension, source_name_,
                       {job_name_, job.value()},
                       recorder_->name("site:", tracked.site.value()),
                       static_cast<double>(tracked.extensions));
      recorder_->count(config_.endpoint, "tracker.extensions");
    }
    return;
  }
  finish_tracking(tracked);
  log_.debug("timeout for job ", job.value(), " on site ",
             tracked.site.value(), "; cancelling and replanning");
  if (recorder_ != nullptr) {
    recorder_->event(obs::TraceKind::kTrackerTimeout, source_name_,
                     {job_name_, job.value()},
                     recorder_->name("site:", tracked.site.value()),
                     static_cast<double>(tracked.extensions));
    recorder_->count(config_.endpoint, "tracker.timeouts");
  }
  gateway_.cancel(job, attempt);  // condor_rm (or forced removal)
  TrackerReport r{job, ReportKind::kCancelled, tracked.site,
                  bus_.engine().now(), 0, 0, 0, attempt};
  // The attempt had been outstanding for the full timeout: report that as
  // a censored (lower-bound) completion-time observation.
  r.completion_time = bus_.engine().now() - tracked.submitted_at;
  report(r);
  // Terminal: drop the entry.  The replacement plan (if the server
  // replans) re-inserts a fresh one with a zeroed extensions budget.
  erase_tracked(key);
}

void SphinxClient::report(const TrackerReport& r) {
  rpc_->call(config_.server, encode_report(r), &read_flag,
             [this](Expected<bool> result) {
               if (!result.has_value()) {
                 log_.warn("report rejected: ", result.error().to_string());
               }
             });
}

std::size_t SphinxClient::dags_finished() const noexcept {
  std::size_t n = 0;
  for (const DagOutcome& outcome : outcomes_) {
    if (outcome.done()) ++n;
  }
  return n;
}

bool SphinxClient::all_dags_finished() const noexcept {
  return !outcomes_.empty() && dags_finished() == outcomes_.size();
}

double SphinxClient::avg_dag_completion() const {
  RunningStats stats;
  for (const DagOutcome& outcome : outcomes_) {
    if (outcome.done()) stats.add(outcome.completion_time());
  }
  return stats.mean();
}

std::pair<std::size_t, std::size_t> SphinxClient::deadline_hits() const {
  std::size_t met = 0;
  std::size_t total = 0;
  for (const DagOutcome& outcome : outcomes_) {
    if (outcome.deadline >= kNever) continue;
    ++total;
    if (outcome.deadline_met()) ++met;
  }
  return {met, total};
}

double SphinxClient::avg_job_execution() const { return exec_times_.mean(); }
double SphinxClient::avg_job_idle() const { return idle_times_.mean(); }

}  // namespace sphinx::core
