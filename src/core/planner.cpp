#include "core/planner.hpp"

#include <algorithm>
#include <utility>

#include "common/contracts.hpp"
#include "data/replication.hpp"

namespace sphinx::core {

Planner::Planner(DataWarehouse& warehouse, std::vector<CatalogSite> catalog,
                 data::ReplicaLocationService& rls,
                 data::TransferService& transfers,
                 const monitor::MonitoringService* monitoring,
                 const ServerConfig& config)
    : warehouse_(warehouse),
      catalog_(std::move(catalog)),
      rls_(rls),
      transfers_(transfers),
      monitoring_(monitoring),
      config_(config),
      algorithm_(make_algorithm(config.algorithm)) {
  SPHINX_ASSERT(!catalog_.empty(), "planner needs a non-empty site catalog");
  // Strategy cursors are journaled soft state: pick up where a crashed
  // planner left off (no-op on a fresh warehouse -- "" restores nothing).
  saved_algorithm_state_ =
      warehouse_.scheduler_state("algorithm:" + algorithm_->name());
  algorithm_->restore_state(saved_algorithm_state_);
}

Planner::Outcome Planner::plan_dag(const DagRecord& dag, SimTime now) {
  Outcome outcome;
  for (const JobRecord* job : warehouse_.ready_jobs(dag.id)) {
    if (auto plan = assemble_plan(dag, *job, now, /*speculative=*/false)) {
      outcome.plans.push_back(std::move(*plan));
    } else {
      outcome.jobs_left_unplanned = true;
    }
  }
  journal_algorithm_state();
  return outcome;
}

void Planner::journal_algorithm_state() {
  if (std::string state = algorithm_->save_state();
      state != saved_algorithm_state_) {
    warehouse_.set_scheduler_state("algorithm:" + algorithm_->name(), state);
    saved_algorithm_state_ = std::move(state);
  }
}

void Planner::collect_feasible_sites(const DagRecord& dag,
                                     const JobRecord& job) {
  std::vector<CandidateSite>& reliable = context_.sites;
  reliable.clear();
  unreliable_.clear();
  bool policy_rejected_any = false;
  for (const CatalogSite& entry : catalog_) {
    // Policy filter (eq. 4): quota_i^s >= required_i^s for every resource.
    if (config_.use_policy) {
      const double cpu_quota =
          warehouse_.quota_remaining(dag.user, entry.id, "cpu_seconds");
      const double disk_quota =
          warehouse_.quota_remaining(dag.user, entry.id, "disk_bytes");
      if (cpu_quota < job.compute_time || disk_quota < job.output_bytes) {
        policy_rejected_any = true;
        continue;
      }
    }
    const SiteStats stats = warehouse_.site_stats(entry.id);

    CandidateSite site;
    site.id = entry.id;
    site.cpus = entry.cpus;
    // Eq. 1/2's "planned + unfinished" term, served by the warehouse's
    // live counter (maintained on job transitions, no table scan).
    site.outstanding = warehouse_.outstanding_on_site(entry.id);
    site.completed = stats.completed;
    site.cancelled = stats.cancelled;
    site.avg_completion = stats.avg_completion;
    site.samples = stats.samples;
    if (monitoring_ != nullptr) {
      if (const auto snap = monitoring_->snapshot(entry.id); snap.has_value()) {
        site.monitored = true;
        site.mon_queued = snap->queued;
        site.mon_running = snap->running;
      }
    }
    // Feedback filter: "sites having more number of cancelled jobs than
    // completed jobs are marked unreliable".
    if (config_.use_feedback && !stats.reliable()) {
      unreliable_.push_back(site);
    } else {
      reliable.push_back(site);
    }
  }
  if (policy_rejected_any && recorder_ != nullptr) {
    recorder_->count(config_.endpoint, "server.policy_rejections");
  }
  // Starvation guard: if feedback flagged every policy-feasible site,
  // fall back to the full list rather than deadlock the DAG.
  if (reliable.empty()) reliable.swap(unreliable_);
}

std::optional<ExecutionPlan> Planner::plan_speculative(const DagRecord& dag,
                                                       const JobRecord& job,
                                                       SimTime now) {
  SPHINX_ASSERT(job.state == JobState::kSubmitted ||
                    job.state == JobState::kRunning,
                "speculation replicates a live attempt");
  auto plan = assemble_plan(dag, job, now, /*speculative=*/true);
  journal_algorithm_state();
  return plan;
}

std::optional<ExecutionPlan> Planner::assemble_plan(const DagRecord& dag,
                                                    const JobRecord& job,
                                                    SimTime now,
                                                    bool speculative) {
  // Input availability: every input must have at least one replica (not
  // yet produced, or lost since a speculated job was planned).  The
  // names are views of the job_inputs rows, which planning never inserts.
  const auto inputs = warehouse_.job_inputs(job.id);
  const auto located = rls_.locate_bulk(inputs);
  for (const auto& replicas : located) {
    if (replicas.empty()) return std::nullopt;
  }

  context_.now = now;
  collect_feasible_sites(dag, job);
  if (speculative) {
    // Same strategy, same immutable snapshot -- minus the site the
    // suspect attempt already occupies.  Racing two replicas on one site
    // would only double the load that made the first one slow.
    std::erase_if(context_.sites,
                  [&](const CandidateSite& s) { return s.id == job.site; });
  }
  const auto site = algorithm_->select(context_);
  if (!site.has_value()) return std::nullopt;  // no feasible site right now

  // Choose the optimal transfer source for each input (planner step 3).
  ExecutionPlan plan;
  plan.job = job.id;
  plan.dag = dag.id;
  plan.job_name = job.name;
  plan.site = *site;
  plan.compute_time = job.compute_time;
  plan.output = job.output;
  plan.output_bytes = job.output_bytes;
  plan.speculative = speculative;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const auto choice = data::select_replica(located[i], *site, transfers_);
    SPHINX_ASSERT(choice.has_value(), "located input lost its replicas");
    plan.inputs.push_back(
        PlannedInput{data::Lfn(inputs[i]), choice->site, choice->size_bytes});
  }

  // QoS: deadline requests jump within-VO batch queues; explicit request
  // priority adds a smaller bounded nudge.
  if (config_.use_qos_ordering) {
    plan.batch_priority = std::clamp(dag.priority / 10.0, -0.4, 0.4) +
                          (dag.deadline < kNever ? 0.5 : 0.0);
  }

  // Planner step 4: final outputs (no consumer within the DAG) go to
  // persistent storage; intermediates stay on their execution site.
  if (config_.persistent_site.valid() &&
      warehouse_.job_children(job.id).empty()) {
    plan.persist_output = true;
    plan.persistent_site = config_.persistent_site;
  }

  // A replica opens a race next to the live attempt; a regular plan
  // moves the job to planned.  Either way the plan carries a fresh
  // attempt number, read before the write: `job` is the live row, and
  // both writes advance its attempt.
  plan.attempt = job.attempt + 1;
  if (speculative) {
    warehouse_.speculate_job(job.id, *site, now);
  } else {
    warehouse_.set_job_planned(job.id, *site, now);
  }
  if (config_.use_policy) {
    // A replica reserves its own quota; the race loser's share is
    // refunded when the race settles.
    warehouse_.consume_quota(dag.user, *site, "cpu_seconds",
                             job.compute_time);
    warehouse_.consume_quota(dag.user, *site, "disk_bytes",
                             job.output_bytes);
  }
  return plan;
}

}  // namespace sphinx::core
