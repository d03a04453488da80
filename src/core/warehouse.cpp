#include "core/warehouse.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "common/contracts.hpp"
#include "obs/recorder.hpp"

namespace sphinx::core {

namespace {
// EWMA weight for completion-time tracking: recent behaviour dominates on
// a dynamic grid, but not so sharply that one outlier flips the ranking.
constexpr double kEwmaAlpha = 0.3;
// Straggler detector sample rings: runtime observations retained per
// (site, job-class) key.  Bounded so the journal and the percentile scan
// both stay O(1) per key while the distribution still adapts.
constexpr std::size_t kMaxRuntimeSamples = 32;
}  // namespace

DataWarehouse::DataWarehouse()
    : dags_(db_.create_table<DagRecord>("dags")),
      jobs_(db_.create_table<JobRecord>("jobs")),
      job_inputs_(db_.create_table<JobInput>("job_inputs")),
      job_deps_(db_.create_table<JobDep>("job_deps")),
      site_stats_(db_.create_table<SiteStats>("site_stats")),
      quotas_(db_.create_table<Quota>("quotas")),
      scheduler_state_(db_.create_table<Setting>("scheduler_state")),
      rpc_outbox_(db_.create_table<OutboxEntry>("rpc_outbox")),
      speculations_(db_.create_table<SpeculationRecord>("speculations")),
      runtime_samples_(db_.create_table<RuntimeSample>("runtime_samples")) {}

Expected<std::unique_ptr<DataWarehouse>> DataWarehouse::recover_from(
    const db::DurableState& state) {
  // A fresh warehouse declares the tables and their indexes; the image
  // and the journal records after it fill them, indexes included.  Only
  // the derived work state needs explicit reconstruction.
  auto warehouse = std::make_unique<DataWarehouse>();
  if (const auto status = warehouse->db_.recover(state); !status.ok()) {
    return Unexpected<Error>{status.error()};
  }
  warehouse->rebuild_work_state();
  // Every cell was read into its column, but the rows can still disagree
  // with each other (a job count, a negative counter) or with the
  // store's structure: recovery refuses a store the live warehouse could
  // not have reached.  This one sweep covers the database's too.
  try {
    warehouse->check_invariants();
  } catch (const ContractViolation& violation) {
    return make_error("recover_invariant", violation.what());
  }
  return warehouse;
}

void DataWarehouse::rebuild_work_state() {
  outstanding_ = scan_outstanding_by_site();
  // The live queue is a superset of the DAGs with pending work, and a
  // drain yields only those, so queueing exactly them reproduces every
  // later drain of the crashed server.  What the live queue holds beyond
  // them (a DAG queued by a completion that readied no child) no drain
  // would ever yield.
  dirty_rows_.clear();
  dags_.for_each([&](db::RowId id, const DagRecord& dag) {
    if (has_pending_work(dag)) dirty_rows_.insert(id);
  });
}

// --- DAGs ---------------------------------------------------------------

void DataWarehouse::insert_dag(const workflow::Dag& dag,
                               const std::string& client, UserId user,
                               SimTime now, double priority,
                               SimTime deadline) {
  const db::RowId row = dags_.insert(
      {.id = dag.id(),
       .name = dag.name(),
       .client = client,
       .user = user,
       .received_at = now,
       .total_jobs = static_cast<std::int64_t>(dag.size()),
       .priority = priority,
       .deadline = deadline});
  dirty_rows_.insert(row);  // a received DAG is work for the reducer
  for (const workflow::JobSpec& job : dag.jobs()) {
    jobs_.insert({.id = job.id,
                  .dag = dag.id(),
                  .name = job.name,
                  .state = JobState::kUnplanned,
                  .site = SiteId(),
                  .compute_time = job.compute_time,
                  .output = job.output,
                  .output_bytes = job.output_bytes});
    for (const data::Lfn& lfn : job.inputs) job_inputs_.insert({job.id, lfn});
    for (const JobId parent : dag.parents(job.id)) {
      job_deps_.insert({job.id, parent});
    }
  }
}

const DagRecord* DataWarehouse::dag(DagId id) const {
  return dags_.find(dags_.first<&DagRecord::id>(id));
}

void DataWarehouse::set_dag_state(DagId id, DagState state) {
  const db::RowId row_id = dags_.first<&DagRecord::id>(id);
  const DagRecord* row = dags_.find(row_id);
  SPHINX_ASSERT(row != nullptr, "set_dag_state: unknown dag");
  SPHINX_PRECONDITION(is_legal_transition(row->state, state),
                      "dag automaton only moves forward");
  dags_.set<&DagRecord::state>(row_id, state);
  if (state == DagState::kFinished) {
    dirty_rows_.erase(row_id);
  } else {
    dirty_rows_.insert(row_id);  // the next pipeline stage owns it now
  }
}

void DataWarehouse::set_dag_finished(DagId id, SimTime at) {
  const db::RowId row_id = dags_.first<&DagRecord::id>(id);
  const DagRecord* row = dags_.find(row_id);
  SPHINX_ASSERT(row != nullptr, "set_dag_finished: unknown dag");
  SPHINX_PRECONDITION(at >= row->received_at,
                      "dag cannot finish before it was received");
  dags_.set<&DagRecord::state>(row_id, DagState::kFinished);
  dags_.set<&DagRecord::finished_at>(row_id, at);
  dirty_rows_.erase(row_id);  // finished DAGs hold no pending work
}

// --- jobs ---------------------------------------------------------------

const JobRecord* DataWarehouse::job(JobId id) const {
  return jobs_.find(jobs_.first<&JobRecord::id>(id));
}

bool DataWarehouse::all_jobs_completed(DagId id) const {
  return std::ranges::all_of(job_rows(id), [](const JobRecord& job) {
    return job.state == JobState::kCompleted;
  });
}

std::vector<JobId> DataWarehouse::jobs_in_state(JobState state) const {
  std::vector<JobId> out;
  for (const db::RowId row : jobs_.find_by<&JobRecord::state>(state)) {
    out.push_back(jobs_.find(row)->id);
  }
  return out;
}

void DataWarehouse::set_job_state(JobId id, JobState state,
                                  std::string_view reason) {
  const db::RowId row_id = jobs_.first<&JobRecord::id>(id);
  const JobRecord* row = jobs_.find(row_id);
  SPHINX_ASSERT(row != nullptr, "set_job_state: unknown job");
  const JobState old_state = row->state;
  SPHINX_PRECONDITION(is_legal_transition(old_state, state),
                      "illegal job state transition " +
                          std::string(to_string(old_state)) + " -> " +
                          to_string(state));
  const SiteId site = row->site;
  const DagId dag = row->dag;
  const int attempt = row->attempt;
  jobs_.set<&JobRecord::state>(row_id, state);

  // Maintain the outstanding counters on the transition itself.
  const bool was_out = is_outstanding(old_state);
  const bool now_out = is_outstanding(state);
  if (was_out && !now_out) {
    const auto it = outstanding_.find(site);
    SPHINX_ASSERT(it != outstanding_.end() && it->second > 0,
                  "outstanding counter underflow");
    if (--it->second == 0) outstanding_.erase(it);
  } else if (!was_out && now_out) {
    ++outstanding_[site];
  }

  // A job falling back to unplanned (replanning) or completing (children
  // may become ready; the DAG may finish) creates planner work.
  if (state == JobState::kUnplanned || state == JobState::kCompleted) {
    const db::RowId dag_row = dags_.first<&DagRecord::id>(dag);
    if (dag_row != db::kInvalidRow) dirty_rows_.insert(dag_row);
  }

  if (recorder_ != nullptr) {
    const obs::Name detail =
        reason.empty()
            ? recorder_->name(to_string(old_state), "->", to_string(state))
            : recorder_->name(to_string(old_state), "->", to_string(state),
                              " (", reason, ")");
    recorder_->event(obs::TraceKind::kJobTransition, recorder_source_,
                     {job_name_, id.value()}, detail,
                     static_cast<double>(attempt));
  }
}

void DataWarehouse::set_job_planned(JobId id, SiteId site, SimTime at) {
  const db::RowId row_id = jobs_.first<&JobRecord::id>(id);
  const JobRecord* row = jobs_.find(row_id);
  SPHINX_ASSERT(row != nullptr, "set_job_planned: unknown job");
  SPHINX_PRECONDITION(is_legal_transition(row->state, JobState::kPlanned),
                      "job must be plannable to receive a plan");
  const int attempt = row->attempt + 1;
  jobs_.set<&JobRecord::state>(row_id, JobState::kPlanned);
  jobs_.set<&JobRecord::site>(row_id, site);
  jobs_.set<&JobRecord::attempt>(row_id, attempt);
  jobs_.set<&JobRecord::planned_at>(row_id, at);
  ++outstanding_[site];  // planned counts as outstanding until it resolves

  if (recorder_ != nullptr) {
    recorder_->event(obs::TraceKind::kJobTransition, recorder_source_,
                     {job_name_, id.value()},
                     recorder_->name(attempt > 1 ? "unplanned->planned (replan)"
                                                 : "unplanned->planned"),
                     static_cast<double>(attempt));
  }
}

void DataWarehouse::set_recorder(obs::Recorder* recorder,
                                 std::string_view source) {
  recorder_ = recorder;
  if (recorder_ == nullptr) return;
  recorder_source_ = recorder_->name(source);
  job_name_ = recorder_->name("job");
}

std::vector<std::string_view> DataWarehouse::job_inputs(JobId id) const {
  std::vector<std::string_view> out;
  for (const db::RowId row : job_inputs_.find_by<&JobInput::job>(id)) {
    out.push_back(job_inputs_.find(row)->lfn);
  }
  return out;
}

std::vector<JobId> DataWarehouse::job_children(JobId id) const {
  std::vector<JobId> out;
  for (const db::RowId row : job_deps_.find_by<&JobDep::parent>(id)) {
    out.push_back(job_deps_.find(row)->job);
  }
  return out;
}

bool DataWarehouse::is_ready(const JobRecord& job) const {
  if (job.state != JobState::kUnplanned) return false;
  for (const db::RowId dep : job_deps_.find_by<&JobDep::job>(job.id)) {
    const JobRecord* parent = this->job(job_deps_.find(dep)->parent);
    if (parent == nullptr || parent->state != JobState::kCompleted) {
      return false;
    }
  }
  return true;
}

std::vector<const JobRecord*> DataWarehouse::ready_jobs(DagId dag) const {
  std::vector<const JobRecord*> out;
  for (const JobRecord& job : job_rows(dag)) {
    if (is_ready(job)) out.push_back(&job);
  }
  return out;
}

std::int64_t DataWarehouse::outstanding_on_site(SiteId site) const {
  const auto it = outstanding_.find(site);
  return it == outstanding_.end() ? 0 : it->second;
}

std::unordered_map<SiteId, std::int64_t> DataWarehouse::outstanding_by_site()
    const {
  return outstanding_;
}

std::unordered_map<SiteId, std::int64_t>
DataWarehouse::scan_outstanding_by_site() const {
  std::unordered_map<SiteId, std::int64_t> out;
  jobs_.for_each([&](db::RowId, const JobRecord& job) {
    if (is_outstanding(job.state)) ++out[job.site];
  });
  // Racing speculations hold the primary attempt's unit (the job row
  // only counts the replica).
  for (const db::RowId id :
       speculations_.find_by<&SpeculationRecord::state>(
           SpeculationState::kRacing)) {
    ++out[speculations_.find(id)->primary_site];
  }
  return out;
}

// --- work queue ---------------------------------------------------------

void DataWarehouse::mark_dag_dirty(DagId id) {
  const db::RowId row = dags_.first<&DagRecord::id>(id);
  SPHINX_ASSERT(row != db::kInvalidRow, "mark_dag_dirty: unknown dag");
  dirty_rows_.insert(row);
}

std::vector<DagId> DataWarehouse::drain_dirty_dags() {
  std::vector<DagId> out = dirty_dags();
  dirty_rows_.clear();
  return out;
}

std::vector<DagId> DataWarehouse::dirty_dags() const {
  std::vector<DagId> out;
  for (const db::RowId row_id : dirty_rows_) {
    const DagRecord* dag = dags_.find(row_id);
    if (dag != nullptr && has_pending_work(*dag)) out.push_back(dag->id);
  }
  return out;
}

bool DataWarehouse::has_pending_work(const DagRecord& dag) const {
  switch (dag.state) {
    case DagState::kReceived:
    case DagState::kReduced:
      return true;
    case DagState::kPlanning:
      return std::ranges::any_of(
          job_rows(dag.id),
          [this](const JobRecord& job) { return is_ready(job); });
    case DagState::kFinished:
      return false;
  }
  return false;
}

// --- site stats -----------------------------------------------------------

SiteStats DataWarehouse::site_stats(SiteId site) const {
  const SiteStats* row =
      site_stats_.find(site_stats_.first<&SiteStats::site>(site));
  if (row == nullptr) return SiteStats{.site = site};
  return *row;
}

void DataWarehouse::record_completion(SiteId site, Duration completion_time) {
  SPHINX_PRECONDITION(completion_time >= 0 && !std::isnan(completion_time),
                      "completion time must be a non-negative duration");
  const db::RowId id = site_stats_.first<&SiteStats::site>(site);
  const SiteStats* row = site_stats_.find(id);
  if (row == nullptr) {
    site_stats_.insert({.site = site,
                        .completed = 1,
                        .avg_completion = completion_time,
                        .samples = 1});
    return;
  }
  const std::int64_t completed = row->completed + 1;
  const std::int64_t samples = row->samples + 1;
  const double next = samples == 1
                          ? completion_time
                          : kEwmaAlpha * completion_time +
                                (1.0 - kEwmaAlpha) * row->avg_completion;
  site_stats_.set<&SiteStats::completed>(id, completed);
  site_stats_.set<&SiteStats::samples>(id, samples);
  site_stats_.set<&SiteStats::avg_completion>(id, next);
}

void DataWarehouse::record_cancellation(SiteId site,
                                        Duration censored_duration) {
  const db::RowId id = site_stats_.first<&SiteStats::site>(site);
  const SiteStats* row = site_stats_.find(id);
  if (row == nullptr) {
    site_stats_.insert({.site = site,
                        .cancelled = 1,
                        .avg_completion = censored_duration,
                        .samples = censored_duration > 0 ? 1 : 0});
    return;
  }
  const std::int64_t samples = row->samples + 1;
  const double prev = row->avg_completion;
  site_stats_.set<&SiteStats::cancelled>(id, row->cancelled + 1);
  if (censored_duration > 0) {
    const double next = samples == 1 ? censored_duration
                                     : kEwmaAlpha * censored_duration +
                                           (1.0 - kEwmaAlpha) * prev;
    site_stats_.set<&SiteStats::samples>(id, samples);
    site_stats_.set<&SiteStats::avg_completion>(id, next);
  }
}

// --- straggler defense ------------------------------------------------------

void DataWarehouse::record_runtime_sample(SiteId site, int job_class,
                                          Duration runtime) {
  SPHINX_PRECONDITION(runtime >= 0 && !std::isnan(runtime),
                      "runtime sample must be a non-negative duration");
  // Ring bound: evict the oldest sample of this (site, class) key first.
  // find_by yields insertion order, so the first class match is oldest.
  std::size_t held = 0;
  db::RowId oldest = db::kInvalidRow;
  for (const db::RowId id :
       runtime_samples_.find_by<&RuntimeSample::site>(site)) {
    if (runtime_samples_.find(id)->job_class != job_class) continue;
    ++held;
    if (oldest == db::kInvalidRow) oldest = id;
  }
  if (held >= kMaxRuntimeSamples) runtime_samples_.erase(oldest);
  runtime_samples_.insert({site, job_class, runtime});
}

std::vector<double> DataWarehouse::runtime_samples(SiteId site,
                                                   int job_class) const {
  std::vector<double> out;
  for (const db::RowId id :
       runtime_samples_.find_by<&RuntimeSample::site>(site)) {
    const RuntimeSample& sample = *runtime_samples_.find(id);
    if (sample.job_class == job_class) out.push_back(sample.runtime);
  }
  return out;
}

std::vector<double> DataWarehouse::runtime_samples_all_sites(
    int job_class) const {
  std::vector<double> out;
  for (const db::RowId id :
       runtime_samples_.find_by<&RuntimeSample::job_class>(job_class)) {
    out.push_back(runtime_samples_.find(id)->runtime);
  }
  return out;
}

void DataWarehouse::speculate_job(JobId id, SiteId spec_site, SimTime at) {
  const db::RowId row_id = jobs_.first<&JobRecord::id>(id);
  const JobRecord* row = jobs_.find(row_id);
  SPHINX_PRECONDITION(row != nullptr, "speculate_job: unknown job");
  const JobState state = row->state;
  SPHINX_PRECONDITION(
      state == JobState::kSubmitted || state == JobState::kRunning,
      "only a submitted/running job can be speculatively replicated");
  SPHINX_PRECONDITION(row->site != spec_site,
                      "replica must race on a different site");
  SPHINX_PRECONDITION(!active_speculation(id).has_value(),
                      "job already has an open race");
  const int primary_attempt = row->attempt;

  speculations_.insert({.job = id,
                        .dag = row->dag,
                        .primary_site = row->site,
                        .primary_attempt = primary_attempt,
                        .primary_planned_at = row->planned_at,
                        .spec_site = spec_site,
                        .spec_attempt = primary_attempt + 1,
                        .state = SpeculationState::kRacing,
                        .launched_at = at});
  // Retarget the job row at the replica.  Direct writes: the automaton
  // forbids kSubmitted/kRunning -> kPlanned for a single attempt, but
  // here the original attempt stays live on the racing row.
  jobs_.set<&JobRecord::state>(row_id, JobState::kPlanned);
  jobs_.set<&JobRecord::site>(row_id, spec_site);
  jobs_.set<&JobRecord::attempt>(row_id, primary_attempt + 1);
  jobs_.set<&JobRecord::planned_at>(row_id, at);
  // The primary's unit moved onto the racing row; the replica's is new.
  ++outstanding_[spec_site];

  if (recorder_ != nullptr) {
    recorder_->event(obs::TraceKind::kJobTransition, recorder_source_,
                     {job_name_, id.value()},
                     recorder_->name(to_string(state), "->planned (speculate)"),
                     static_cast<double>(primary_attempt + 1));
  }
}

std::optional<SpeculationRecord> DataWarehouse::active_speculation(
    JobId id) const {
  for (const db::RowId row :
       speculations_.find_by<&SpeculationRecord::job>(id)) {
    const SpeculationRecord& rec = *speculations_.find(row);
    if (rec.state == SpeculationState::kRacing) return rec;
  }
  return std::nullopt;
}

std::optional<SpeculationRecord> DataWarehouse::latest_speculation(
    JobId id) const {
  // find_by yields insertion order; the last row is the newest race.
  const std::vector<db::RowId>& rows =
      speculations_.find_by<&SpeculationRecord::job>(id);
  if (rows.empty()) return std::nullopt;
  return *speculations_.find(rows.back());
}

std::vector<SpeculationRecord> DataWarehouse::racing_speculations() const {
  std::vector<SpeculationRecord> out;
  for (const db::RowId row : speculations_.find_by<&SpeculationRecord::state>(
           SpeculationState::kRacing)) {
    out.push_back(*speculations_.find(row));
  }
  return out;
}

void DataWarehouse::resolve_speculation(JobId id,
                                        SpeculationState final_state) {
  SPHINX_PRECONDITION(final_state != SpeculationState::kRacing,
                      "a race resolves to a terminal state");
  db::RowId racing = db::kInvalidRow;
  for (const db::RowId row :
       speculations_.find_by<&SpeculationRecord::job>(id)) {
    if (speculations_.find(row)->state == SpeculationState::kRacing) {
      racing = row;
      break;
    }
  }
  SPHINX_PRECONDITION(racing != db::kInvalidRow,
                      "resolve_speculation: job has no open race");
  const SpeculationRecord rec = *speculations_.find(racing);
  speculations_.set<&SpeculationRecord::state>(racing, final_state);

  const auto retire = [this](SiteId site) {
    const auto it = outstanding_.find(site);
    SPHINX_ASSERT(it != outstanding_.end() && it->second > 0,
                  "outstanding counter underflow");
    if (--it->second == 0) outstanding_.erase(it);
  };
  if (final_state == SpeculationState::kSpecDead) {
    // Replica died: hand the job row back to the surviving primary.  The
    // attempt column stays at the replica's number -- reusing the burnt
    // one would collide with the client's (job, attempt) duplicate guard
    // on the next replan.
    const db::RowId job_row = jobs_.first<&JobRecord::id>(id);
    SPHINX_ASSERT(job_row != db::kInvalidRow,
                  "resolve_speculation: unknown job");
    SPHINX_ASSERT(jobs_.find(job_row)->attempt == rec.spec_attempt,
                  "racing job row must still track the replica attempt");
    jobs_.set<&JobRecord::site>(job_row, rec.primary_site);
    // The primary's unit transfers from the racing row to the job row;
    // net change is the replica's retirement.
    retire(rec.spec_site);
  } else {
    retire(rec.primary_site);
  }
}

// --- RPC outbox -------------------------------------------------------------

void DataWarehouse::outbox_upsert(std::uint64_t seq, const std::string& service,
                                  const std::string& payload, int attempt,
                                  SimTime last_sent_at) {
  const db::RowId id = rpc_outbox_.first<&OutboxEntry::seq>(seq);
  if (id == db::kInvalidRow) {
    rpc_outbox_.insert({seq, service, payload, attempt, last_sent_at});
    return;
  }
  rpc_outbox_.set<&OutboxEntry::attempt>(id, attempt);
  rpc_outbox_.set<&OutboxEntry::last_sent_at>(id, last_sent_at);
}

void DataWarehouse::outbox_erase(std::uint64_t seq) {
  const db::RowId id = rpc_outbox_.first<&OutboxEntry::seq>(seq);
  if (id != db::kInvalidRow) rpc_outbox_.erase(id);
}

std::vector<OutboxEntry> DataWarehouse::outbox_entries() const {
  std::vector<OutboxEntry> entries;
  rpc_outbox_.for_each([&entries](db::RowId, const OutboxEntry& entry) {
    entries.push_back(entry);
  });
  std::sort(entries.begin(), entries.end(),
            [](const OutboxEntry& a, const OutboxEntry& b) {
              return a.seq < b.seq;
            });
  return entries;
}

// --- scheduler soft state ---------------------------------------------------

void DataWarehouse::set_scheduler_state(const std::string& key,
                                        const std::string& value) {
  const db::RowId id = scheduler_state_.first<&Setting::key>(key);
  if (id == db::kInvalidRow) {
    scheduler_state_.insert({key, value});
    return;
  }
  if (scheduler_state_.find(id)->value == value) return;
  scheduler_state_.set<&Setting::value>(id, value);
}

std::string DataWarehouse::scheduler_state(const std::string& key) const {
  const Setting* row =
      scheduler_state_.find(scheduler_state_.first<&Setting::key>(key));
  return row == nullptr ? std::string() : row->value;
}

// --- quotas -----------------------------------------------------------------

db::RowId DataWarehouse::quota_row(UserId user, SiteId site,
                                   const std::string& resource) const {
  for (const db::RowId id : quotas_.find_by<&Quota::user>(user)) {
    const Quota& quota = *quotas_.find(id);
    if (quota.site == site && quota.resource == resource) return id;
  }
  return db::kInvalidRow;
}

void DataWarehouse::set_quota(UserId user, SiteId site,
                              const std::string& resource, double limit) {
  const db::RowId id = quota_row(user, site, resource);
  if (id == db::kInvalidRow) {
    quotas_.insert({user, site, resource, limit, 0.0});
    return;
  }
  // The stored limit again (a repeated administrative call) journals
  // nothing, like set_scheduler_state.
  if (quotas_.find(id)->limit == limit) return;
  quotas_.set<&Quota::limit>(id, limit);
}

double DataWarehouse::quota_remaining(UserId user, SiteId site,
                                      const std::string& resource) const {
  const Quota* quota = quotas_.find(quota_row(user, site, resource));
  if (quota == nullptr) return std::numeric_limits<double>::infinity();
  return quota->limit - quota->used;
}

void DataWarehouse::consume_quota(UserId user, SiteId site,
                                  const std::string& resource, double amount) {
  SPHINX_PRECONDITION(amount >= 0, "quota consumption must be non-negative");
  const db::RowId id = quota_row(user, site, resource);
  if (id == db::kInvalidRow) return;
  const double used = quotas_.find(id)->used + amount;
  quotas_.set<&Quota::used>(id, used);
  SPHINX_POSTCONDITION(used >= 0, "quota usage went negative");
}

void DataWarehouse::refund_quota(UserId user, SiteId site,
                                 const std::string& resource, double amount) {
  SPHINX_PRECONDITION(amount >= 0, "quota refund must be non-negative");
  const db::RowId id = quota_row(user, site, resource);
  if (id == db::kInvalidRow) return;
  const double used = quotas_.find(id)->used - amount;
  quotas_.set<&Quota::used>(id, used < 0 ? 0.0 : used);
}

// --- contracts --------------------------------------------------------------

void DataWarehouse::check_invariants() const {
#if SPHINX_CONTRACTS_ENABLED
  db_.check_invariants();

  // Jobs: outstanding jobs are placed and attempted.
  std::unordered_map<DagId, std::int64_t> jobs_per_dag;
  jobs_.for_each([&](db::RowId, const JobRecord& job) {
    ++jobs_per_dag[job.dag];
    SPHINX_INVARIANT(job.attempt >= 0, "job attempt counter went negative");
    if (is_outstanding(job.state)) {
      SPHINX_INVARIANT(job.site.value() != 0,
                       "outstanding job has no site assigned");
      SPHINX_INVARIANT(job.attempt >= 1,
                       "outstanding job was never planned");
    }
  });

  // DAGs: finish times are coherent, and the recorded job total matches
  // the job table (journal/table consistency: both are rebuilt from the
  // same journal on recovery).
  dags_.for_each([&](db::RowId, const DagRecord& dag) {
    SPHINX_INVARIANT(dag.total_jobs >= 0, "dag job total went negative");
    SPHINX_INVARIANT(jobs_per_dag[dag.id] == dag.total_jobs,
                     "dag job total disagrees with the jobs table");
    if (dag.state == DagState::kFinished) {
      SPHINX_INVARIANT(dag.finished_at < kNever,
                       "finished dag has no finish time");
      SPHINX_INVARIANT(dag.finished_at >= dag.received_at,
                       "dag finished before it was received");
    }
  });

  // Site statistics: counters never regress below zero; an empty sample
  // set cannot carry an average.
  site_stats_.for_each([&](db::RowId, const SiteStats& stats) {
    SPHINX_INVARIANT(
        stats.completed >= 0 && stats.cancelled >= 0 && stats.samples >= 0,
        "site statistics counter went negative");
    SPHINX_INVARIANT(stats.avg_completion >= 0 &&
                         !std::isnan(stats.avg_completion),
                     "site completion average must be non-negative");
    SPHINX_INVARIANT(stats.samples > 0 || stats.avg_completion == 0,
                     "site carries an average with no samples");
  });

  // Quotas: limits and usage are non-negative.
  quotas_.for_each([&](db::RowId, const Quota& quota) {
    SPHINX_INVARIANT(quota.limit >= 0, "quota limit went negative");
    SPHINX_INVARIANT(quota.used >= 0, "quota usage went negative");
  });

  // Speculation races: attempts are consecutive, the two sites differ, at
  // most one race per job is open, and an open race's job row still
  // tracks the replica attempt.
  std::unordered_set<JobId> racing_jobs;
  speculations_.for_each([&](db::RowId, const SpeculationRecord& rec) {
    SPHINX_INVARIANT(rec.primary_attempt >= 1,
                     "race opened on a never-planned attempt");
    SPHINX_INVARIANT(rec.spec_attempt == rec.primary_attempt + 1,
                     "replica attempt must directly succeed the primary");
    SPHINX_INVARIANT(rec.primary_site != rec.spec_site,
                     "race must span two sites");
    if (rec.state != SpeculationState::kRacing) return;
    SPHINX_INVARIANT(racing_jobs.insert(rec.job).second,
                     "job holds two open races");
    const JobRecord* job_rec = job(rec.job);
    SPHINX_INVARIANT(job_rec != nullptr, "open race names a missing job");
    SPHINX_INVARIANT(is_outstanding(job_rec->state),
                     "open race on a job that is not outstanding");
    SPHINX_INVARIANT(
        job_rec->attempt == rec.spec_attempt && job_rec->site == rec.spec_site,
        "racing job row must track the replica attempt");
  });

  // Runtime sample rings: non-negative values, ring bound respected.
  std::map<std::pair<SiteId, int>, std::size_t> ring_sizes;
  runtime_samples_.for_each([&](db::RowId, const RuntimeSample& sample) {
    SPHINX_INVARIANT(sample.runtime >= 0, "runtime sample went negative");
    ++ring_sizes[{sample.site, sample.job_class}];
  });
  for (const auto& [key, size] : ring_sizes) {
    SPHINX_INVARIANT(size <= kMaxRuntimeSamples,
                     "runtime sample ring exceeded its bound");
  }

  // Derived work state mirrors the tables: the live counters must equal a
  // fresh scan, every queued dirty row names a live, unfinished DAG, and
  // every DAG with pending work is queued (else no sweep would reach it).
  SPHINX_INVARIANT(outstanding_ == scan_outstanding_by_site(),
                   "live outstanding counters diverged from the jobs table");
  for (const db::RowId row_id : dirty_rows_) {
    const DagRecord* dag = dags_.find(row_id);
    SPHINX_INVARIANT(dag != nullptr, "dirty queue names a missing dag row");
    SPHINX_INVARIANT(dag->state != DagState::kFinished,
                     "dirty queue holds a finished dag");
  }
  dags_.for_each([&](db::RowId id, const DagRecord& dag) {
    SPHINX_INVARIANT(!has_pending_work(dag) || dirty_rows_.contains(id),
                     "dag with pending work is not queued");
  });
#endif
}

void DataWarehouse::check_dag_invariants(DagId id) const {
#if SPHINX_CONTRACTS_ENABLED
  const DagRecord* rec = dag(id);
  SPHINX_INVARIANT(rec != nullptr, "check_dag_invariants: unknown dag");
  std::int64_t job_count = 0;
  for (const JobRecord& job : job_rows(id)) {
    ++job_count;
    SPHINX_INVARIANT(job.attempt >= 0, "job attempt counter went negative");
    if (is_outstanding(job.state)) {
      SPHINX_INVARIANT(job.site.value() != 0,
                       "outstanding job has no site assigned");
      SPHINX_INVARIANT(job.attempt >= 1,
                       "outstanding job was never planned");
    }
  }
  SPHINX_INVARIANT(rec->total_jobs >= 0, "dag job total went negative");
  SPHINX_INVARIANT(job_count == rec->total_jobs,
                   "dag job total disagrees with the jobs table");
  if (rec->state == DagState::kFinished) {
    SPHINX_INVARIANT(rec->finished_at < kNever,
                     "finished dag has no finish time");
    SPHINX_INVARIANT(rec->finished_at >= rec->received_at,
                     "dag finished before it was received");
  }
#else
  (void)id;
#endif
}

}  // namespace sphinx::core
