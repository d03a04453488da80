#include "core/server.hpp"

#include "common/contracts.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <unordered_map>

namespace sphinx::core {
namespace {

/// VOs authorized to talk to the server (GSI ACL).
constexpr const char* kAllowedVos[] = {"uscms", "atlas", "ivdgl"};

}  // namespace

SphinxServer::SphinxServer(rpc::MessageBus& bus,
                           std::vector<CatalogSite> catalog,
                           data::ReplicaLocationService& rls,
                           data::TransferService& transfers,
                           const monitor::MonitoringService* monitoring,
                           ServerConfig config)
    : SphinxServer(bus, std::move(catalog), rls, transfers, monitoring,
                   std::move(config), std::make_unique<DataWarehouse>()) {}

SphinxServer::SphinxServer(rpc::MessageBus& bus,
                           std::vector<CatalogSite> catalog,
                           data::ReplicaLocationService& rls,
                           data::TransferService& transfers,
                           const monitor::MonitoringService* monitoring,
                           ServerConfig config,
                           std::unique_ptr<DataWarehouse> warehouse)
    : bus_(bus),
      config_(std::move(config)),
      warehouse_(std::move(warehouse)) {
  SPHINX_ASSERT(!catalog.empty(), "server needs a non-empty site catalog");

  // The pipeline modules share the warehouse; the work queue inside it is
  // how one stage hands a DAG to the next.
  message_handler_ = std::make_unique<MessageHandler>(
      *warehouse_, config_, [this](DagId dag) { maybe_finish_dag(dag); });
  message_handler_->set_on_speculation_resolved(
      [this](const SpeculationRecord& race, SpeculationState final_state) {
        on_speculation_resolved(race, final_state);
      });
  reducer_ = std::make_unique<DagReducer>(*warehouse_, rls);
  planner_ = std::make_unique<Planner>(*warehouse_, std::move(catalog), rls,
                                       transfers, monitoring, config_);
  detector_ = std::make_unique<StragglerDetector>(*warehouse_, monitoring);
  // The detector cursor is journaled soft state like the strategy
  // cursors: a recovered server resumes the crashed instance's cadence.
  if (const std::string stored =
          warehouse_->scheduler_state("speculation.last_check");
      !stored.empty()) {
    last_speculation_check_ = std::strtod(stored.c_str(), nullptr);
  }

  rpc::AuthzPolicy policy;
  for (const char* vo : kAllowedVos) policy.allow_vo(vo);
  service_ = std::make_unique<rpc::ClarensService>(bus_, config_.endpoint,
                                                   std::move(policy));
  // The server's own outgoing identity (host certificate proxy).
  const rpc::Proxy host_proxy(
      rpc::Identity{"/CN=" + config_.endpoint}, "ivdgl", {},
      bus_.engine().now(), hours(24 * 365));
  out_ = std::make_unique<rpc::ClarensClient>(bus_, config_.endpoint + "/out",
                                              host_proxy);
  // Outbound calls are journaled (rpc_outbox) so a journal-recovered
  // server re-arms the identical retry schedule its predecessor had in
  // flight; the sequence counter is persisted on each first transmission
  // (retransmissions only refresh the existing row).
  out_->set_outbox(
      [this](std::uint64_t seq, const std::string& service,
             const std::string& payload, int attempt, SimTime at) {
        if (attempt == 1) {
          warehouse_->set_scheduler_state("rpc.out_seq", std::to_string(seq));
        }
        warehouse_->outbox_upsert(seq, service, payload, attempt, at);
      },
      [this](std::uint64_t seq) { warehouse_->outbox_erase(seq); });
  if (const std::string stored = warehouse_->scheduler_state("rpc.out_seq");
      !stored.empty()) {
    out_->set_next_seq(std::strtoull(stored.c_str(), nullptr, 10) + 1);
  }
  for (const OutboxEntry& entry : warehouse_->outbox_entries()) {
    out_->restore_call(entry.seq, entry.service, entry.payload, entry.attempt,
                       entry.last_sent_at, [this](StatusOrError result) {
                         if (!result.ok()) {
                           log_.warn("restored call failed: ",
                                     result.error().to_string());
                         }
                       });
  }
  register_methods();

  control_ = std::make_unique<sim::PeriodicProcess>(
      bus_.engine(), "server:sweep", kSweepPeriod,
      [this] { sweep(); }, config_.sweep_phase);
}

Expected<std::unique_ptr<SphinxServer>> SphinxServer::recover(
    rpc::MessageBus& bus, std::vector<CatalogSite> catalog,
    data::ReplicaLocationService& rls, data::TransferService& transfers,
    const monitor::MonitoringService* monitoring, ServerConfig config,
    const db::Journal& journal,
    const std::optional<CheckpointImage>& checkpoint) {
  auto warehouse = DataWarehouse::recover_from(journal, checkpoint);
  if (!warehouse) return Unexpected<Error>{warehouse.error()};
  // The recovered warehouse carries everything: tables, indexes, rebuilt
  // work queue and outstanding counters, and the last image.
  // In-flight plans were already sent; jobs stuck in kPlanned will be
  // re-reported by the client tracker (or time out and be replanned), so
  // no plan is lost permanently.
  return std::unique_ptr<SphinxServer>(new SphinxServer(
      bus, std::move(catalog), rls, transfers, monitoring, std::move(config),
      std::move(*warehouse)));
}

SphinxServer::~SphinxServer() = default;

void SphinxServer::start() { control_->start(); }
void SphinxServer::start_at(SimTime t) { control_->start_at(t); }
void SphinxServer::stop() { control_->stop(); }

SimTime SphinxServer::next_sweep_at() const noexcept {
  return control_->next_fire_at();
}

void SphinxServer::arm_crash_hook(std::size_t journal_records,
                                  std::function<void()> hook,
                                  bool mid_checkpoint) {
  (mid_checkpoint ? crash_mid_checkpoint_ : crash_) =
      CrashTrigger{journal_records, std::move(hook)};
}

bool SphinxServer::fire_crash(CrashTrigger& trigger) {
  // Thresholds count total records ever appended (next_seq), not the
  // retained suffix, so a crash point means the same thing whether or
  // not compaction ran before it.
  if (trigger.hook == nullptr ||
      warehouse_->journal().next_seq() < trigger.at_records) {
    return false;
  }
  // Move-out first: the hook typically schedules this server's own
  // destruction, and no trigger may fire after it.
  std::function<void()> hook = std::move(trigger.hook);
  crash_ = {};
  crash_mid_checkpoint_ = {};
  hook();
  return true;
}

void SphinxServer::maybe_crash() { fire_crash(crash_); }

void SphinxServer::maybe_checkpoint() {
  if (!warehouse_->checkpoint_due()) return;
  warehouse_->checkpoint(
      [this](const CheckpointImage& image) {
        // Observability rides publication, before the mid-checkpoint kill
        // window below, so baseline and crashed-here traces agree on
        // every event up to the crash itself.
        if (recorder_ != nullptr) {
          const auto compacted =
              static_cast<double>(warehouse_->journal().size());
          recorder_->event(obs::TraceKind::kCheckpoint, source_name_, {},
                           recorder_->name("seq:", image.seq), compacted);
          recorder_->count(config_.endpoint, "server.checkpoints");
          recorder_->observe(config_.endpoint,
                             "server.checkpoint_snapshot_bytes",
                             static_cast<double>(image.database.size()));
          recorder_->observe(config_.endpoint, "server.checkpoint_compacted",
                             compacted);
        }
        // Crashing here leaves the journal untruncated.
        return fire_crash(crash_mid_checkpoint_);
      });
}

void SphinxServer::register_methods() {
  service_->register_method(
      "sphinx.submit_dag", &decode_dag, &write_dag_id,
      [this](const DagSubmission& submission, const rpc::Proxy& proxy) {
        return handle_submit_dag(submission, proxy);
      });
  service_->register_method(
      "sphinx.report", &decode_report, &write_flag,
      [this](const TrackerReport& report, const rpc::Proxy&) {
        return handle_report(report);
      });
}

Expected<DagId> SphinxServer::handle_submit_dag(
    const DagSubmission& submission, const rpc::Proxy& proxy) {
  const workflow::Dag& dag = submission.dag;
  const bool accepted = message_handler_->accept_dag(
      dag, submission.client, submission.user, bus_.engine().now(),
      submission.priority, submission.deadline);
  if (!accepted) {
    // Duplicate delivery (a retransmission, or a re-send after a crash):
    // the DAG is already stored.  Re-acknowledge with the identical reply
    // and leave journal, trace and work queue untouched.
    if (recorder_ != nullptr) {
      recorder_->count(config_.endpoint, "server.duplicate_dags");
    }
    return dag.id();
  }
  if (recorder_ != nullptr) {
    recorder_->event(obs::TraceKind::kDagReceived, source_name_,
                     {dag_name_, dag.id().value()}, recorder_->name(dag.name()),
                     static_cast<double>(dag.size()));
    recorder_->count(config_.endpoint, "server.dags_received");
  }
  log_.debug("received dag ", dag.name(), " (", dag.size(), " jobs) from ",
             submission.client, " [", proxy.principal(), "]");
  maybe_crash();
  return dag.id();
}

Expected<bool> SphinxServer::handle_report(const TrackerReport& report) {
  if (const auto status = message_handler_->apply_report(report);
      !status.ok()) {
    return Unexpected<Error>{status.error()};
  }
  maybe_crash();
  return true;
}

void SphinxServer::set_quota(UserId user, SiteId site,
                             const std::string& resource, double limit) {
  warehouse_->set_quota(user, site, resource, limit);
}

void SphinxServer::set_recorder(obs::Recorder* recorder) {
  recorder_ = recorder;
  warehouse_->set_recorder(recorder, config_.endpoint);
  planner_->set_recorder(recorder);
  if (recorder_ == nullptr) return;
  source_name_ = recorder_->name(config_.endpoint);
  job_name_ = recorder_->name("job");
  dag_name_ = recorder_->name("dag");
}

void SphinxServer::sweep() {
  // Control process: drain the dirty-DAG work queue once, then walk each
  // drained DAG through the pipeline stages.  DAGs the queue does not
  // name are guaranteed idle -- every transition that creates work
  // enqueues its DAG -- and the drain yields only the queued DAGs with
  // pending work, so the sweep costs O(changed work).  No other event
  // can interleave while a sweep runs, so the drained snapshot stays
  // consistent across the stages.
  std::vector<DagRecord> drained = warehouse_->drain_dirty_dags();

  // Idle sweeps (the overwhelming majority on a long run) are not traced;
  // the begin/end pair brackets sweeps that had work, with the number of
  // drained DAGs on begin and the plan count on end.
  if (recorder_ != nullptr && !drained.empty()) {
    recorder_->event(obs::TraceKind::kSweepBegin, source_name_, {}, {},
                     static_cast<double>(drained.size()));
  }
  // Plans this sweep sent, speculative replicas included: the value of
  // its sweep_end trace event.
  std::size_t plans_sent = 0;

  // Stage 1: the reducer consumes received DAGs.  A fully-reduced DAG can
  // finish right here (all outputs already existed).
  for (const DagRecord& dag : drained) {
    if (dag.state != DagState::kReceived) continue;
    const std::size_t reduced = reducer_->reduce(dag);
    if (reduced > 0 && recorder_ != nullptr) {
      recorder_->count(config_.endpoint, "server.jobs_reduced", reduced);
    }
    maybe_finish_dag(dag.id);
  }

  // Stage 2: reduced DAGs advance to planning.  Re-fetch each record:
  // stage 1 may have changed its state (reduced or even finished).
  for (DagRecord& dag : drained) {
    const auto fresh = warehouse_->dag(dag.id);
    SPHINX_ASSERT(fresh.has_value(), "drained dag vanished mid-sweep");
    dag = *fresh;
    if (dag.state == DagState::kReduced) {
      warehouse_->set_dag_state(dag.id, DagState::kPlanning);
      dag.state = DagState::kPlanning;
    }
  }

  // Stage 3: the planner consumes planning DAGs.  Requests are planned by
  // priority, then submission order -- the server "provides functionality
  // for scheduling jobs from multiple users concurrently based on the
  // policy and priorities of these jobs" (paper section 5).
  std::vector<DagRecord> planning;
  planning.reserve(drained.size());
  for (const DagRecord& dag : drained) {
    if (dag.state == DagState::kPlanning) planning.push_back(dag);
  }
  if (config_.use_qos_ordering) {
    // Priority first, then earliest deadline first among equals.  The
    // drained queue is in submission order, so the stable sort leaves
    // equal-key DAGs in the same relative order a full table scan gave.
    std::stable_sort(planning.begin(), planning.end(),
                     [](const DagRecord& a, const DagRecord& b) {
                       if (a.priority != b.priority) {
                         return a.priority > b.priority;
                       }
                       return a.deadline < b.deadline;
                     });
  }
  const SimTime now = bus_.engine().now();
  for (const DagRecord& dag : planning) {
    Planner::Outcome outcome = planner_->plan_dag(dag, now);
    plans_sent += outcome.plans.size();
    for (const ExecutionPlan& plan : outcome.plans) {
      send_plan(dag.client, plan);
      if (recorder_ != nullptr) {
        recorder_->event(obs::TraceKind::kPlanSent, source_name_,
                         {job_name_, plan.job.value()},
                         recorder_->name("site:", plan.site.value()),
                         static_cast<double>(plan.attempt));
        recorder_->count(config_.endpoint, "server.plans");
        if (plan.attempt > 1) {
          recorder_->count(config_.endpoint, "server.replans");
        } else {
          // Planning latency for first attempts: submission -> plan.
          // Replans are excluded; their latency measures the failure
          // path, not the planner.
          recorder_->observe(config_.endpoint, "server.plan_latency",
                             now - dag.received_at);
        }
      }
    }
    // Ready jobs the planner could not place are retried every sweep.
    // Jobs waiting on parents are not: the parent's completion re-marks
    // the DAG (DataWarehouse::set_job_state).
    if (outcome.jobs_left_unplanned) warehouse_->mark_dag_dirty(dag.id);
  }

  // Straggler defense: after regular planning, scan the in-flight jobs
  // for stragglers and race replicas against them (its own cadence; a
  // no-op when speculation is off).
  plans_sent += maybe_speculate();

  if (recorder_ != nullptr && !drained.empty()) {
    recorder_->event(obs::TraceKind::kSweepEnd, source_name_, {}, {},
                     static_cast<double>(plans_sent));
    recorder_->observe(config_.endpoint, "server.sweep_depth",
                       static_cast<double>(drained.size()));
  }

  // Every sweep leaves the DAGs it touched in a sound state; scoped to
  // the touched DAGs so the check is also O(changed work).  Compiled out
  // with the rest of the contracts layer.
  for (const DagRecord& dag : drained) {
    warehouse_->check_dag_invariants(dag.id);
  }

  // Checkpoint before the crash point: a sweep that crosses a checkpoint
  // trigger publishes its image even if a fail-stop lands on the same
  // boundary -- matching a real server, which checkpoints as part of its
  // sweep and can die right after.
  maybe_checkpoint();

  // Chaos fail-stop point: crashes happen at event boundaries, after the
  // sweep committed its journal records, never mid-transaction.
  maybe_crash();
}

std::size_t SphinxServer::maybe_speculate() {
  if (!config_.speculate) return 0;
  const SimTime now = bus_.engine().now();
  if (now < last_speculation_check_ + kSpeculationCheckPeriod) {
    return 0;
  }
  last_speculation_check_ = now;
  // Round-trip-exact persistence: the recovered server must compare the
  // identical cursor value or its cadence drifts off the baseline's.
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", now);
  warehouse_->set_scheduler_state("speculation.last_check", buf);

  const auto racing = warehouse_->racing_speculations();
  std::size_t global = racing.size();
  std::size_t launched = 0;
  std::unordered_map<std::uint64_t, std::size_t> per_dag;
  for (const SpeculationRecord& r : racing) ++per_dag[r.dag.value()];

  for (const JobState state : {JobState::kSubmitted, JobState::kRunning}) {
    if (global >= kSpeculationMaxGlobal) break;
    for (const JobRecord& job : warehouse_->jobs_in_state(state)) {
      if (global >= kSpeculationMaxGlobal) break;
      // A job already racing is tracked by its replica attempt; never
      // stack a second replica on it.
      if (warehouse_->active_speculation(job.id).has_value()) continue;
      const StragglerVerdict verdict = detector_->classify(job, now);
      if (verdict == StragglerVerdict::kStaleMonitor) {
        if (recorder_ != nullptr) {
          recorder_->count(config_.endpoint, "detector.stale_skips");
        }
        continue;
      }
      if (verdict != StragglerVerdict::kStraggler) continue;
      if (per_dag[job.dag.value()] >= kSpeculationMaxPerDag) {
        continue;
      }
      const auto dag = warehouse_->dag(job.dag);
      SPHINX_ASSERT(dag.has_value(), "straggler's dag vanished");
      const auto plan = planner_->plan_speculative(*dag, job, now);
      if (!plan.has_value()) continue;  // no alternative feasible site
      ++global;
      ++per_dag[job.dag.value()];
      ++launched;
      if (recorder_ != nullptr) {
        recorder_->event(obs::TraceKind::kSpeculationLaunched, source_name_,
                         {job_name_, job.id.value()},
                         recorder_->name("site:", job.site.value(), "->",
                                         plan->site.value()),
                         static_cast<double>(plan->attempt));
        recorder_->count(config_.endpoint, "server.speculations");
      }
      send_plan(dag->client, *plan);
    }
  }

  // Fan-out budget contract: a detector pass never leaves more open
  // races than the budgets allow.
  const bool budgets_respected = [&] {
    const auto open = warehouse_->racing_speculations();
    if (open.size() > kSpeculationMaxGlobal) return false;
    std::unordered_map<std::uint64_t, std::size_t> by_dag;
    for (const SpeculationRecord& r : open) {
      if (++by_dag[r.dag.value()] > kSpeculationMaxPerDag) {
        return false;
      }
    }
    return true;
  }();
  SPHINX_POSTCONDITION(budgets_respected,
                       "speculation fan-out budgets respected after detector pass");
  return launched;
}

void SphinxServer::on_speculation_resolved(const SpeculationRecord& race,
                                           SpeculationState final_state) {
  const bool primary_won = final_state == SpeculationState::kPrimaryWon;
  const bool won = primary_won || final_state == SpeculationState::kSpecWon;
  const int retired_attempt =
      (final_state == SpeculationState::kSpecWon ||
       final_state == SpeculationState::kPrimaryDead)
          ? race.primary_attempt
          : race.spec_attempt;
  if (recorder_ != nullptr) {
    if (won) {
      recorder_->event(obs::TraceKind::kSpeculationWon, source_name_,
                       {job_name_, race.job.value()},
                       recorder_->name(primary_won ? "primary" : "spec"),
                       static_cast<double>(primary_won ? race.primary_attempt
                                                       : race.spec_attempt));
      recorder_->count(config_.endpoint,
                       primary_won ? "server.speculations_won_primary"
                                   : "server.speculations_won_spec");
    }
    recorder_->event(
        obs::TraceKind::kSpeculationCancelled, source_name_,
        {job_name_, race.job.value()},
        recorder_->name(won ? "loser-cancel"
                        : final_state == SpeculationState::kPrimaryDead
                            ? "primary_dead"
                            : "spec_dead"),
        static_cast<double>(retired_attempt));
  }
  if (!won) return;  // the dead side's tracker entry is already gone
  // First completion won: tell the client to kill the loser attempt.
  // Idempotent on the client, journaled in the outbox like every
  // server -> client call, so a crash cannot lose the cancel.
  if (recorder_ != nullptr) {
    recorder_->count(config_.endpoint, "server.speculation_cancels");
  }
  if (const auto dag = warehouse_->dag(race.dag); dag.has_value()) {
    out_->call(dag->client, encode_cancel_attempt(race.job, retired_attempt),
               &read_flag, [](Expected<bool>) {});
  }
}

void SphinxServer::send_plan(const std::string& client,
                             const ExecutionPlan& plan) {
  out_->call(client, encode_plan(plan), &read_flag,
             [this, job = plan.job](Expected<bool> result) {
               if (!result.has_value()) {
                 // Client unreachable: the job stays kPlanned; the
                 // client's tracker (or its absence) will eventually
                 // surface as a cancellation and a replan.
                 log_.warn("plan delivery failed for job ", job.value(), ": ",
                           result.error().to_string());
               }
             });
}

void SphinxServer::maybe_finish_dag(DagId dag_id) {
  const auto dag = warehouse_->dag(dag_id);
  if (!dag.has_value() || dag->state == DagState::kFinished) return;
  const auto jobs = warehouse_->jobs_of_dag(dag_id);
  const bool all_done =
      std::all_of(jobs.begin(), jobs.end(), [](const JobRecord& job) {
        return job.state == JobState::kCompleted;
      });
  if (!all_done) return;
  const SimTime now = bus_.engine().now();
  warehouse_->set_dag_finished(dag_id, now);
  if (recorder_ != nullptr) {
    recorder_->event(obs::TraceKind::kDagFinished, source_name_,
                     {dag_name_, dag_id.value()}, recorder_->name(dag->name),
                     now - dag->received_at);
    recorder_->observe(config_.endpoint, "dag.turnaround",
                       now - dag->received_at);
  }
  out_->call(dag->client, encode_dag_done(dag_id), &read_flag,
             [](Expected<bool>) {});
}

}  // namespace sphinx::core
