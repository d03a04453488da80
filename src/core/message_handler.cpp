#include "core/message_handler.hpp"

#include <utility>

#include "core/straggler.hpp"

namespace sphinx::core {

MessageHandler::MessageHandler(DataWarehouse& warehouse,
                               const ServerConfig& config,
                               JobCompletedHook on_job_completed)
    : warehouse_(warehouse),
      config_(config),
      on_job_completed_(std::move(on_job_completed)) {}

bool MessageHandler::accept_dag(const workflow::Dag& dag,
                                const std::string& client, UserId user,
                                SimTime now, double priority,
                                SimTime deadline) {
  if (warehouse_.dag(dag.id()) != nullptr) return false;
  warehouse_.insert_dag(dag, client, user, now, priority, deadline);
  return true;
}

namespace {

/// Whether a report's attempt number names the job's live attempt.  The
/// job row tracks one attempt; while a race is open its primary attempt
/// is live too, and after kSpecDead (the replica died, the job row kept
/// the replica's burnt attempt number) the surviving primary still
/// reports under its own.
[[nodiscard]] bool matches_live(int attempt, const JobRecord& job,
                                const std::optional<SpeculationRecord>& race) {
  if (attempt == job.attempt) return true;
  if (!race.has_value()) return false;
  if (race->state == SpeculationState::kRacing) {
    return attempt == race->primary_attempt;
  }
  return race->state == SpeculationState::kSpecDead &&
         race->spec_attempt == job.attempt &&
         attempt == race->primary_attempt;
}

}  // namespace

void MessageHandler::settle_race(const JobRecord& job,
                                 const SpeculationRecord& race,
                                 SpeculationState final_state,
                                 const TrackerReport& report) {
  warehouse_.resolve_speculation(job.id, final_state);
  // Loser bookkeeping: the retired attempt had been outstanding on its
  // site since it was planned/launched; fold that in as a censored
  // duration so the reliability filter (cancelled > completed) still
  // sees black holes that only ever lose races.
  const bool primary_retired = final_state == SpeculationState::kSpecWon ||
                               final_state == SpeculationState::kPrimaryDead;
  const SiteId loser_site =
      primary_retired ? race.primary_site : race.spec_site;
  const Duration censored = primary_retired
                                ? report.at - race.primary_planned_at
                                : report.at - race.launched_at;
  warehouse_.record_cancellation(loser_site, censored);
  if (config_.use_policy) {
    if (const DagRecord* dag = warehouse_.dag(job.dag); dag != nullptr) {
      warehouse_.refund_quota(dag->user, loser_site, "cpu_seconds",
                              job.compute_time);
      warehouse_.refund_quota(dag->user, loser_site, "disk_bytes",
                              job.output_bytes);
    }
  }
  if (on_speculation_resolved_) on_speculation_resolved_(race, final_state);
}

StatusOrError MessageHandler::apply_report(const TrackerReport& report) {
  // The job's live row: the writes below change its state (and, for a
  // settled race, its site), while the fields read after them -- id, dag,
  // compute time, output size -- never change.
  const JobRecord* job = warehouse_.job(report.job);
  if (job == nullptr) {
    return make_error("unknown_job",
                      "no job " + std::to_string(report.job.value()));
  }
  // The open race, if any; resolved races still matter to matches_live.
  const auto racing = warehouse_.active_speculation(report.job);
  const auto latest = racing.has_value()
                          ? racing
                          : warehouse_.latest_speculation(report.job);

  switch (report.kind) {
    case ReportKind::kSubmitted:
      if (!matches_live(report.attempt, *job, latest)) break;
      if (job->state == JobState::kPlanned) {
        warehouse_.set_job_state(job->id, JobState::kSubmitted,
                                 "report:submitted");
      }
      break;
    case ReportKind::kRunning:
      if (!matches_live(report.attempt, *job, latest)) break;
      if (job->state == JobState::kSubmitted ||
          job->state == JobState::kPlanned) {
        warehouse_.set_job_state(job->id, JobState::kRunning,
                                 "report:running");
      }
      break;
    case ReportKind::kCompleted: {
      if (job->state == JobState::kCompleted) {
        // Duplicate completion report: folding it in again would double
        // count the site's statistics and re-run the DAG finish check.
        break;
      }
      // First completion wins, whichever attempt it came from.  A
      // completion needs no live-attempt guard: every attempt reports at
      // most one terminal event, so a completion from a retired attempt
      // can only be the race loser finishing before its cancel landed --
      // the client's own arbitration already swallowed it.
      if (racing.has_value()) {
        settle_race(*job, *racing,
                    report.attempt == racing->spec_attempt
                        ? SpeculationState::kSpecWon
                        : SpeculationState::kPrimaryWon,
                    report);
      }
      warehouse_.set_job_state(job->id, JobState::kCompleted,
                               "report:completed");
      // Feedback: fold the completion time into the site's EWMA (the
      // prediction module's knowledge base, eq. 3).
      warehouse_.record_completion(report.site, report.completion_time);
      // The straggler detector learns (site, class) runtime percentiles
      // from genuine completions.  Journaled, so only paid when the
      // defense is on.
      if (config_.speculate) {
        warehouse_.record_runtime_sample(report.site,
                                         job_class_of(job->compute_time),
                                         report.completion_time);
      }
      if (on_job_completed_) on_job_completed_(job->dag);
      break;
    }
    case ReportKind::kCancelled:
    case ReportKind::kHeld: {
      if (job->state == JobState::kCompleted ||
          job->state == JobState::kUnplanned) {
        // Stale report: the job already finished, or the attempt was
        // already torn down and is waiting for the planner.  Acting on
        // it would double-refund quota and skew the site's statistics.
        break;
      }
      if (racing.has_value() && report.attempt == racing->primary_attempt &&
          report.attempt != job->attempt) {
        // The suspected straggler died mid-race (tracker timeout or site
        // hold).  The replica keeps running as the job's only attempt;
        // no replan -- settling the race *is* the recovery.
        settle_race(*job, *racing, SpeculationState::kPrimaryDead, report);
        break;
      }
      if (racing.has_value() && report.attempt == racing->spec_attempt) {
        // The replica died mid-race.  The primary keeps running; the job
        // row is retargeted back at it (keeping the replica's burnt
        // attempt number -- see resolve_speculation).
        settle_race(*job, *racing, SpeculationState::kSpecDead, report);
        break;
      }
      // Any other report against an open race is stale (a retired
      // generation) or attempt-less and ambiguous; the race paths above
      // own every properly attributed death.
      if (racing.has_value()) break;
      if (!matches_live(report.attempt, *job, latest)) break;
      // The tracker killed or observed the death of this attempt.  Return
      // the reserved quota and queue the job for replanning.
      warehouse_.set_job_state(job->id,
                               report.kind == ReportKind::kHeld
                                   ? JobState::kHeld
                                   : JobState::kCancelled,
                               report.kind == ReportKind::kHeld
                                   ? "report:held"
                                   : "report:cancelled");
      warehouse_.record_cancellation(report.site, report.completion_time);
      if (config_.use_policy) {
        if (const DagRecord* dag = warehouse_.dag(job->dag); dag != nullptr) {
          warehouse_.refund_quota(dag->user, report.site, "cpu_seconds",
                                  job->compute_time);
          warehouse_.refund_quota(dag->user, report.site, "disk_bytes",
                                  job->output_bytes);
        }
      }
      // Back to the planner on the next sweep (the unplanned transition
      // re-enqueues the DAG on the dirty list).
      warehouse_.set_job_state(job->id, JobState::kUnplanned,
                               "replan-queued");
      break;
    }
  }
  return {};
}

}  // namespace sphinx::core
