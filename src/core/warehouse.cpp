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

using db::Value;

namespace {
// EWMA weight for completion-time tracking: recent behaviour dominates on
// a dynamic grid, but not so sharply that one outlier flips the ranking.
constexpr double kEwmaAlpha = 0.3;
// Straggler detector sample rings: runtime observations retained per
// (site, job-class) key.  Bounded so the journal and the percentile scan
// both stay O(1) per key while the distribution still adapts.
constexpr std::size_t kMaxRuntimeSamples = 32;
}  // namespace

DataWarehouse::DataWarehouse() : DataWarehouse(true) {}

DataWarehouse::DataWarehouse(bool with_schema) {
  if (with_schema) create_schema();
}

void DataWarehouse::create_schema() {
  using db::indexed;
  using db::ValueType;
  // Hot-path columns declare their hash index in the schema itself, so the
  // index set is journaled with the kCreateTable entry and recovery
  // rebuilds it without a separate recreation pass.
  db_.create_table("dags", db::Schema{{indexed("dag_id", ValueType::kInt),
                                       {"name", ValueType::kText},
                                       {"client", ValueType::kText},
                                       {"user", ValueType::kInt},
                                       indexed("state", ValueType::kText),
                                       {"received_at", ValueType::kReal},
                                       {"finished_at", ValueType::kReal},
                                       {"total_jobs", ValueType::kInt},
                                       {"priority", ValueType::kReal},
                                       {"deadline", ValueType::kReal}}});
  db_.create_table("jobs", db::Schema{{indexed("job_id", ValueType::kInt),
                                       indexed("dag_id", ValueType::kInt),
                                       {"name", ValueType::kText},
                                       indexed("state", ValueType::kText),
                                       {"site", ValueType::kInt},
                                       {"compute_time", ValueType::kReal},
                                       {"output", ValueType::kText},
                                       {"output_bytes", ValueType::kReal},
                                       {"attempt", ValueType::kInt},
                                       {"planned_at", ValueType::kReal}}});
  db_.create_table("job_inputs",
                   db::Schema{{indexed("job_id", ValueType::kInt),
                               {"lfn", ValueType::kText}}});
  db_.create_table("job_deps",
                   db::Schema{{indexed("job_id", ValueType::kInt),
                               indexed("parent", ValueType::kInt)}});
  db_.create_table("site_stats",
                   db::Schema{{indexed("site_id", ValueType::kInt),
                               {"completed", ValueType::kInt},
                               {"cancelled", ValueType::kInt},
                               {"avg_completion", ValueType::kReal},
                               {"samples", ValueType::kInt}}});
  db_.create_table("quotas", db::Schema{{indexed("user", ValueType::kInt),
                                         {"site", ValueType::kInt},
                                         {"resource", ValueType::kText},
                                         {"limit", ValueType::kReal},
                                         {"used", ValueType::kReal}}});
  // Key/value store for scheduling-module soft state (strategy cursors).
  // Journaled like everything else, so a recovered server's strategy
  // resumes mid-rotation instead of resetting to job zero.
  db_.create_table("scheduler_state",
                   db::Schema{{indexed("key", ValueType::kText),
                               {"value", ValueType::kText}}});
  // In-flight calls of the server's outbound RPC client.  Journaled so a
  // journal-recovered server re-arms the exact retry schedule the
  // crashed instance had in flight (see ClarensClient::restore_call).
  db_.create_table("rpc_outbox",
                   db::Schema{{indexed("seq", ValueType::kInt),
                               {"service", ValueType::kText},
                               {"payload", ValueType::kText},
                               {"attempt", ValueType::kInt},
                               {"last_sent_at", ValueType::kReal}}});
  // Straggler defense.  Speculation races are scheduler state proper --
  // recovery must re-arm an open race exactly, so the rows ride the
  // journal like jobs do.  The runtime-sample rings feed the detector's
  // per-(site, class) percentiles; journaling them keeps a recovered
  // detector's decisions byte-identical to the crashed instance's.
  db_.create_table("speculations",
                   db::Schema{{indexed("job_id", ValueType::kInt),
                               {"dag_id", ValueType::kInt},
                               {"primary_site", ValueType::kInt},
                               {"primary_attempt", ValueType::kInt},
                               {"primary_planned_at", ValueType::kReal},
                               {"spec_site", ValueType::kInt},
                               {"spec_attempt", ValueType::kInt},
                               indexed("state", ValueType::kText),
                               {"launched_at", ValueType::kReal}}});
  db_.create_table("runtime_samples",
                   db::Schema{{indexed("site", ValueType::kInt),
                               indexed("class", ValueType::kInt),
                               {"runtime", ValueType::kReal}}});
}

Expected<std::unique_ptr<DataWarehouse>> DataWarehouse::recover_from(
    const db::Journal& journal,
    const std::optional<CheckpointImage>& checkpoint) {
  // Construct without a schema: the image or the journal supplies the
  // tables, and the schema declares the indexes, so both rebuild those
  // too.  Only the derived work state needs explicit reconstruction.
  auto warehouse =
      std::unique_ptr<DataWarehouse>(new DataWarehouse(false));
  std::uint64_t from_seq = 0;
  if (checkpoint.has_value()) {
    if (const auto status = warehouse->db_.restore(checkpoint->database);
        !status.ok()) {
      return Unexpected<Error>{status.error()};
    }
    from_seq = checkpoint->seq;
  }
  // Replay only what the image does not hold.  When the crash landed
  // between image publication and truncation the journal still holds the
  // compacted prefix; skipping entries below the image's sequence
  // completes the interrupted truncation.  A compacted journal without
  // its image is refused (recover_suffix).
  if (const auto status = warehouse->db_.recover(journal, from_seq);
      !status.ok()) {
    return Unexpected<Error>{status.error()};
  }
  // Carry the image so a later crash can pair the (now compacted)
  // journal with the image that anchors its sequence numbers.
  warehouse->checkpoint_ = checkpoint;
  warehouse->rebuild_work_state();
  warehouse->check_invariants();  // recovery must reproduce a sound store
  return warehouse;
}

DataWarehouse::CheckpointStats DataWarehouse::checkpoint(
    SimTime now, const std::function<bool(const CheckpointImage&)>& mid_hook) {
  CheckpointImage image;
  image.seq = db_.journal().next_seq();
  image.at = now;
  image.database = db_.snapshot();

  CheckpointStats stats;
  stats.seq = image.seq;
  stats.compacted_records = db_.journal().size();
  stats.snapshot_bytes = image.database.size();

  // Publish first: from here on a recovered instance no longer needs the
  // journal prefix, whether or not the truncation below completes.
  checkpoint_ = std::move(image);
  if (mid_hook && mid_hook(*checkpoint_)) {
    return stats;  // crashing mid-checkpoint; journal left untruncated
  }
  db_.truncate_journal(checkpoint_->seq);
  stats.truncated = true;
  SPHINX_POSTCONDITION(db_.journal().base_seq() == checkpoint_->seq,
                       "compaction must advance the journal base to the "
                       "checkpoint sequence");
  return stats;
}

void DataWarehouse::rebuild_work_state() {
  dirty_rows_.clear();
  outstanding_.clear();

  // One pass over jobs rebuilds the outstanding counters.
  const db::Table& jobs = db_.table("jobs");
  const std::size_t job_state_col = jobs.schema().index_of("state");
  const std::size_t job_site_col = jobs.schema().index_of("site");
  jobs.for_each([&](const db::Row& row) {
    if (is_outstanding(job_state_from(row.cells[job_state_col].as_text()))) {
      ++outstanding_[SiteId(
          static_cast<std::uint64_t>(row.cells[job_site_col].as_int()))];
    }
  });
  // Open speculation races: the job row tracks the replica attempt, so
  // the original attempt's outstanding unit lives on the racing row.
  {
    const db::Table& specs = db_.table("speculations");
    const std::size_t spec_state_col = specs.schema().index_of("state");
    const std::size_t spec_primary_col =
        specs.schema().index_of("primary_site");
    const std::string racing = to_string(SpeculationState::kRacing);
    specs.for_each([&](const db::Row& row) {
      if (row.cells[spec_state_col].as_text() != racing) return;
      ++outstanding_[SiteId(
          static_cast<std::uint64_t>(row.cells[spec_primary_col].as_int()))];
    });
  }

  // The live queue is a superset of the DAGs with pending work, and a
  // drain yields only those, so queueing exactly them reproduces every
  // later drain of the crashed server.  What the live queue holds beyond
  // them (a DAG queued by a completion that readied no child) no drain
  // would ever yield.
  db_.table("dags").for_each([&](const db::Row& row) {
    if (has_pending_work(decode_dag(row))) dirty_rows_.insert(row.id);
  });
}

// --- DAGs ---------------------------------------------------------------

void DataWarehouse::insert_dag(const workflow::Dag& dag,
                               const std::string& client, UserId user,
                               SimTime now, double priority,
                               SimTime deadline) {
  const db::RowId row = db_.table("dags").insert(
      {Value(dag.id().value()), Value(dag.name()), Value(client),
       Value(user.value()), Value(to_string(DagState::kReceived)), Value(now),
       Value(kNever), Value(static_cast<std::int64_t>(dag.size())),
       Value(priority), Value(deadline)});
  dirty_rows_.insert(row);  // a received DAG is work for the reducer
  db::Table& jobs = db_.table("jobs");
  db::Table& inputs = db_.table("job_inputs");
  db::Table& deps = db_.table("job_deps");
  for (const workflow::JobSpec& job : dag.jobs()) {
    jobs.insert({Value(job.id.value()), Value(dag.id().value()),
                 Value(job.name), Value(to_string(JobState::kUnplanned)),
                 Value(std::int64_t{0}), Value(job.compute_time),
                 Value(job.output), Value(job.output_bytes),
                 Value(std::int64_t{0}), Value(kNever)});
    for (const data::Lfn& lfn : job.inputs) {
      inputs.insert({Value(job.id.value()), Value(lfn)});
    }
    for (const JobId parent : dag.parents(job.id)) {
      deps.insert({Value(job.id.value()), Value(parent.value())});
    }
  }
}

DagRecord DataWarehouse::decode_dag(const db::Row& row) {
  DagRecord rec;
  rec.id = DagId(static_cast<std::uint64_t>(row.cells[0].as_int()));
  rec.name = row.cells[1].as_text();
  rec.client = row.cells[2].as_text();
  rec.user = UserId(static_cast<std::uint64_t>(row.cells[3].as_int()));
  rec.state = dag_state_from(row.cells[4].as_text());
  rec.received_at = row.cells[5].as_real();
  rec.finished_at = row.cells[6].as_real();
  rec.total_jobs = row.cells[7].as_int();
  rec.priority = row.cells[8].as_real();
  rec.deadline = row.cells[9].as_real();
  return rec;
}

std::vector<DagRecord> DataWarehouse::dags_in_state(DagState state) const {
  const db::Table& dags = db_.table("dags");
  std::vector<DagRecord> out;
  for (const db::RowId id : dags.find_by("state", Value(to_string(state)))) {
    out.push_back(decode_dag(*dags.find(id)));
  }
  return out;
}

std::optional<DagRecord> DataWarehouse::dag(DagId id) const {
  const db::Row* row =
      db_.table("dags").find_first("dag_id", Value(id.value()));
  if (row == nullptr) return std::nullopt;
  return decode_dag(*row);
}

void DataWarehouse::set_dag_state(DagId id, DagState state) {
  db::Table& dags = db_.table("dags");
  const db::Row* row = dags.find_first("dag_id", Value(id.value()));
  SPHINX_ASSERT(row != nullptr, "set_dag_state: unknown dag");
  SPHINX_PRECONDITION(
      is_legal_transition(dag_state_from(row->cells[4].as_text()), state),
      "dag automaton only moves forward");
  const db::RowId row_id = row->id;
  dags.update(row_id, "state", Value(to_string(state)));
  if (state == DagState::kFinished) {
    dirty_rows_.erase(row_id);
  } else {
    dirty_rows_.insert(row_id);  // the next pipeline stage owns it now
  }
}

void DataWarehouse::set_dag_finished(DagId id, SimTime at) {
  db::Table& dags = db_.table("dags");
  const db::Row* row = dags.find_first("dag_id", Value(id.value()));
  SPHINX_ASSERT(row != nullptr, "set_dag_finished: unknown dag");
  SPHINX_PRECONDITION(at >= row->cells[5].as_real(),
                      "dag cannot finish before it was received");
  const db::RowId row_id = row->id;
  dags.update(row_id, "state", Value(to_string(DagState::kFinished)));
  dags.update(row_id, "finished_at", Value(at));
  dirty_rows_.erase(row_id);  // finished DAGs hold no pending work
}

std::vector<DagRecord> DataWarehouse::all_dags() const {
  std::vector<DagRecord> out;
  db_.table("dags").for_each(
      [&out](const db::Row& row) { out.push_back(decode_dag(row)); });
  return out;
}

// --- jobs ---------------------------------------------------------------

JobRecord DataWarehouse::decode_job(const db::Row& row) {
  JobRecord rec;
  rec.id = JobId(static_cast<std::uint64_t>(row.cells[0].as_int()));
  rec.dag = DagId(static_cast<std::uint64_t>(row.cells[1].as_int()));
  rec.name = row.cells[2].as_text();
  rec.state = job_state_from(row.cells[3].as_text());
  rec.site = SiteId(static_cast<std::uint64_t>(row.cells[4].as_int()));
  rec.compute_time = row.cells[5].as_real();
  rec.output = row.cells[6].as_text();
  rec.output_bytes = row.cells[7].as_real();
  rec.attempt = static_cast<int>(row.cells[8].as_int());
  rec.planned_at = row.cells[9].as_real();
  return rec;
}

SpeculationRecord DataWarehouse::decode_speculation(const db::Row& row) {
  SpeculationRecord rec;
  rec.job = JobId(static_cast<std::uint64_t>(row.cells[0].as_int()));
  rec.dag = DagId(static_cast<std::uint64_t>(row.cells[1].as_int()));
  rec.primary_site =
      SiteId(static_cast<std::uint64_t>(row.cells[2].as_int()));
  rec.primary_attempt = static_cast<int>(row.cells[3].as_int());
  rec.primary_planned_at = row.cells[4].as_real();
  rec.spec_site = SiteId(static_cast<std::uint64_t>(row.cells[5].as_int()));
  rec.spec_attempt = static_cast<int>(row.cells[6].as_int());
  rec.state = speculation_state_from(row.cells[7].as_text());
  rec.launched_at = row.cells[8].as_real();
  return rec;
}

std::optional<JobRecord> DataWarehouse::job(JobId id) const {
  const db::Row* row =
      db_.table("jobs").find_first("job_id", Value(id.value()));
  if (row == nullptr) return std::nullopt;
  return decode_job(*row);
}

std::vector<JobRecord> DataWarehouse::jobs_of_dag(DagId id) const {
  const db::Table& jobs = db_.table("jobs");
  std::vector<JobRecord> out;
  for (const db::RowId row : jobs.find_by("dag_id", Value(id.value()))) {
    out.push_back(decode_job(*jobs.find(row)));
  }
  return out;
}

std::vector<JobRecord> DataWarehouse::jobs_in_state(JobState state) const {
  const db::Table& jobs = db_.table("jobs");
  std::vector<JobRecord> out;
  for (const db::RowId row : jobs.find_by("state", Value(to_string(state)))) {
    out.push_back(decode_job(*jobs.find(row)));
  }
  return out;
}

void DataWarehouse::set_job_state(JobId id, JobState state,
                                  std::string_view reason) {
  db::Table& jobs = db_.table("jobs");
  const db::Row* row = jobs.find_first("job_id", Value(id.value()));
  SPHINX_ASSERT(row != nullptr, "set_job_state: unknown job");
  const JobState old_state = job_state_from(row->cells[3].as_text());
  SPHINX_PRECONDITION(is_legal_transition(old_state, state),
                      "illegal job state transition " +
                          std::string(to_string(old_state)) + " -> " +
                          to_string(state));
  const SiteId site(static_cast<std::uint64_t>(row->cells[4].as_int()));
  const Value dag_key = row->cells[1];
  const std::int64_t attempt = row->cells[8].as_int();
  const db::RowId row_id = row->id;
  jobs.update(row_id, "state", Value(to_string(state)));

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
    const db::Row* dag_row = db_.table("dags").find_first("dag_id", dag_key);
    if (dag_row != nullptr) dirty_rows_.insert(dag_row->id);
  }

  if (recorder_ != nullptr) {
    std::string detail = std::string(to_string(old_state)) + "->" +
                         to_string(state);
    if (!reason.empty()) {
      detail += " (";
      detail += reason;
      detail += ")";
    }
    recorder_->event(obs::TraceKind::kJobTransition, recorder_source_,
                     "job:" + std::to_string(id.value()), std::move(detail),
                     static_cast<double>(attempt));
  }
}

void DataWarehouse::set_job_planned(JobId id, SiteId site, SimTime at) {
  db::Table& jobs = db_.table("jobs");
  const db::Row* row = jobs.find_first("job_id", Value(id.value()));
  SPHINX_ASSERT(row != nullptr, "set_job_planned: unknown job");
  SPHINX_PRECONDITION(
      is_legal_transition(job_state_from(row->cells[3].as_text()),
                          JobState::kPlanned),
      "job must be plannable to receive a plan");
  const db::RowId row_id = row->id;
  const std::int64_t attempt = row->cells[8].as_int() + 1;
  jobs.update(row_id, "state", Value(to_string(JobState::kPlanned)));
  jobs.update(row_id, "site", Value(site.value()));
  jobs.update(row_id, "attempt", Value(attempt));
  jobs.update(row_id, "planned_at", Value(at));
  ++outstanding_[site];  // planned counts as outstanding until it resolves

  if (recorder_ != nullptr) {
    recorder_->event(obs::TraceKind::kJobTransition, recorder_source_,
                     "job:" + std::to_string(id.value()),
                     attempt > 1 ? std::string("unplanned->planned (replan)")
                                 : std::string("unplanned->planned"),
                     static_cast<double>(attempt));
  }
}

void DataWarehouse::set_recorder(obs::Recorder* recorder, std::string source) {
  recorder_ = recorder;
  recorder_source_ = std::move(source);
}

std::vector<data::Lfn> DataWarehouse::job_inputs(JobId id) const {
  const db::Table& inputs = db_.table("job_inputs");
  std::vector<data::Lfn> out;
  for (const db::RowId row : inputs.find_by("job_id", Value(id.value()))) {
    out.push_back(inputs.find(row)->cells[1].as_text());
  }
  return out;
}

std::vector<JobId> DataWarehouse::job_parents(JobId id) const {
  const db::Table& deps = db_.table("job_deps");
  std::vector<JobId> out;
  for (const db::RowId row : deps.find_by("job_id", Value(id.value()))) {
    out.emplace_back(
        static_cast<std::uint64_t>(deps.find(row)->cells[1].as_int()));
  }
  return out;
}

std::vector<JobId> DataWarehouse::job_children(JobId id) const {
  const db::Table& deps = db_.table("job_deps");
  std::vector<JobId> out;
  for (const db::RowId row : deps.find_by("parent", Value(id.value()))) {
    out.emplace_back(
        static_cast<std::uint64_t>(deps.find(row)->cells[0].as_int()));
  }
  return out;
}

std::vector<JobRecord> DataWarehouse::ready_jobs(DagId dag) const {
  const db::Table& jobs = db_.table("jobs");
  // One pass over the DAG's rows: completed ids for the parent test, and
  // only the unplanned rows pay a full decode.
  std::vector<JobId> completed;
  std::vector<JobRecord> unplanned;
  for (const db::RowId id : jobs.find_by("dag_id", Value(dag.value()))) {
    const db::Row& row = *jobs.find(id);
    const JobState state = job_state_from(row.cells[3].as_text());
    if (state == JobState::kCompleted) {
      completed.emplace_back(static_cast<std::uint64_t>(row.cells[0].as_int()));
    } else if (state == JobState::kUnplanned) {
      unplanned.push_back(decode_job(row));
    }
  }
  std::sort(completed.begin(), completed.end());
  std::erase_if(unplanned, [&](const JobRecord& job) {
    const std::vector<JobId> parents = job_parents(job.id);
    return !std::all_of(parents.begin(), parents.end(), [&](JobId parent) {
      return std::binary_search(completed.begin(), completed.end(), parent);
    });
  });
  return unplanned;
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
  const db::Table& jobs = db_.table("jobs");
  const std::size_t state_col = jobs.schema().index_of("state");
  const std::size_t site_col = jobs.schema().index_of("site");
  std::unordered_map<SiteId, std::int64_t> out;
  jobs.for_each([&](const db::Row& row) {
    if (is_outstanding(job_state_from(row.cells[state_col].as_text()))) {
      ++out[SiteId(static_cast<std::uint64_t>(row.cells[site_col].as_int()))];
    }
  });
  // Racing speculations hold the primary attempt's unit (the job row
  // only counts the replica).
  const db::Table& specs = db_.table("speculations");
  const std::size_t spec_state_col = specs.schema().index_of("state");
  const std::size_t spec_primary_col = specs.schema().index_of("primary_site");
  const std::string racing = to_string(SpeculationState::kRacing);
  specs.for_each([&](const db::Row& row) {
    if (row.cells[spec_state_col].as_text() != racing) return;
    ++out[SiteId(
        static_cast<std::uint64_t>(row.cells[spec_primary_col].as_int()))];
  });
  return out;
}

// --- work queue ---------------------------------------------------------

void DataWarehouse::mark_dag_dirty(DagId id) {
  const db::Row* row =
      db_.table("dags").find_first("dag_id", Value(id.value()));
  SPHINX_ASSERT(row != nullptr, "mark_dag_dirty: unknown dag");
  dirty_rows_.insert(row->id);
}

std::vector<DagRecord> DataWarehouse::drain_dirty_dags() {
  std::vector<DagRecord> out = queued_pending_dags();
  dirty_rows_.clear();
  return out;
}

std::vector<DagId> DataWarehouse::dirty_dags() const {
  std::vector<DagId> out;
  for (const DagRecord& dag : queued_pending_dags()) out.push_back(dag.id);
  return out;
}

std::vector<DagRecord> DataWarehouse::queued_pending_dags() const {
  const db::Table& dags = db_.table("dags");
  std::vector<DagRecord> out;
  for (const db::RowId row_id : dirty_rows_) {
    const db::Row* row = dags.find(row_id);
    if (row == nullptr) continue;
    DagRecord rec = decode_dag(*row);
    if (has_pending_work(rec)) out.push_back(std::move(rec));
  }
  return out;
}

bool DataWarehouse::has_pending_work(const DagRecord& dag) const {
  switch (dag.state) {
    case DagState::kReceived:
    case DagState::kReduced:
      return true;
    case DagState::kPlanning:
      return !ready_jobs(dag.id).empty();
    case DagState::kFinished:
      return false;
  }
  return false;
}

// --- site stats -----------------------------------------------------------

db::RowId DataWarehouse::site_stats_row(SiteId site) const {
  const db::Row* row =
      db_.table("site_stats").find_first("site_id", Value(site.value()));
  return row == nullptr ? db::kInvalidRow : row->id;
}

SiteStats DataWarehouse::site_stats(SiteId site) const {
  SiteStats out;
  out.site = site;
  const db::RowId row = site_stats_row(site);
  if (row == db::kInvalidRow) return out;
  const db::Table& stats = db_.table("site_stats");
  out.completed = stats.get(row, "completed").as_int();
  out.cancelled = stats.get(row, "cancelled").as_int();
  out.avg_completion = stats.get(row, "avg_completion").as_real();
  out.samples = stats.get(row, "samples").as_int();
  return out;
}

void DataWarehouse::record_completion(SiteId site, Duration completion_time) {
  SPHINX_PRECONDITION(completion_time >= 0 && !std::isnan(completion_time),
                      "completion time must be a non-negative duration");
  db::Table& stats = db_.table("site_stats");
  db::RowId row = site_stats_row(site);
  if (row == db::kInvalidRow) {
    stats.insert({Value(site.value()), Value(std::int64_t{1}),
                  Value(std::int64_t{0}), Value(completion_time),
                  Value(std::int64_t{1})});
    return;
  }
  const std::int64_t completed = stats.get(row, "completed").as_int() + 1;
  const std::int64_t samples = stats.get(row, "samples").as_int() + 1;
  const double prev = stats.get(row, "avg_completion").as_real();
  const double next = samples == 1
                          ? completion_time
                          : kEwmaAlpha * completion_time +
                                (1.0 - kEwmaAlpha) * prev;
  stats.update(row, "completed", Value(completed));
  stats.update(row, "samples", Value(samples));
  stats.update(row, "avg_completion", Value(next));
}

void DataWarehouse::record_cancellation(SiteId site,
                                        Duration censored_duration) {
  db::Table& stats = db_.table("site_stats");
  db::RowId row = site_stats_row(site);
  if (row == db::kInvalidRow) {
    stats.insert({Value(site.value()), Value(std::int64_t{0}),
                  Value(std::int64_t{1}), Value(censored_duration),
                  Value(censored_duration > 0 ? std::int64_t{1}
                                              : std::int64_t{0})});
    return;
  }
  stats.update(row, "cancelled",
               Value(stats.get(row, "cancelled").as_int() + 1));
  if (censored_duration > 0) {
    const std::int64_t samples = stats.get(row, "samples").as_int() + 1;
    const double prev = stats.get(row, "avg_completion").as_real();
    const double next = samples == 1 ? censored_duration
                                     : kEwmaAlpha * censored_duration +
                                           (1.0 - kEwmaAlpha) * prev;
    stats.update(row, "samples", Value(samples));
    stats.update(row, "avg_completion", Value(next));
  }
}

bool DataWarehouse::site_available(SiteId site) const {
  const SiteStats stats = site_stats(site);
  return stats.cancelled <= stats.completed;
}

// --- straggler defense ------------------------------------------------------

void DataWarehouse::record_runtime_sample(SiteId site, int job_class,
                                          Duration runtime) {
  SPHINX_PRECONDITION(runtime >= 0 && !std::isnan(runtime),
                      "runtime sample must be a non-negative duration");
  db::Table& table = db_.table("runtime_samples");
  const std::size_t class_col = table.schema().index_of("class");
  // Ring bound: evict the oldest sample of this (site, class) key first.
  // find_by yields insertion order, so the first class match is oldest.
  std::size_t held = 0;
  db::RowId oldest = db::kInvalidRow;
  for (const db::RowId id : table.find_by("site", Value(site.value()))) {
    const db::Row* row = table.find(id);
    if (static_cast<int>(row->cells[class_col].as_int()) != job_class) continue;
    ++held;
    if (oldest == db::kInvalidRow) oldest = id;
  }
  if (held >= kMaxRuntimeSamples) table.erase(oldest);
  table.insert({Value(site.value()), Value(std::int64_t{job_class}),
                Value(runtime)});
}

std::vector<double> DataWarehouse::runtime_samples(SiteId site,
                                                   int job_class) const {
  const db::Table& table = db_.table("runtime_samples");
  const std::size_t class_col = table.schema().index_of("class");
  std::vector<double> out;
  for (const db::RowId id : table.find_by("site", Value(site.value()))) {
    const db::Row* row = table.find(id);
    if (static_cast<int>(row->cells[class_col].as_int()) != job_class) continue;
    out.push_back(row->cells[2].as_real());
  }
  return out;
}

std::vector<double> DataWarehouse::runtime_samples_all_sites(
    int job_class) const {
  const db::Table& table = db_.table("runtime_samples");
  std::vector<double> out;
  for (const db::RowId id :
       table.find_by("class", Value(std::int64_t{job_class}))) {
    out.push_back(table.find(id)->cells[2].as_real());
  }
  return out;
}

void DataWarehouse::speculate_job(JobId id, SiteId spec_site, SimTime at) {
  db::Table& jobs = db_.table("jobs");
  const db::Row* row = jobs.find_first("job_id", Value(id.value()));
  SPHINX_PRECONDITION(row != nullptr, "speculate_job: unknown job");
  const JobState state = job_state_from(row->cells[3].as_text());
  SPHINX_PRECONDITION(
      state == JobState::kSubmitted || state == JobState::kRunning,
      "only a submitted/running job can be speculatively replicated");
  const SiteId primary_site(
      static_cast<std::uint64_t>(row->cells[4].as_int()));
  SPHINX_PRECONDITION(primary_site != spec_site,
                      "replica must race on a different site");
  SPHINX_PRECONDITION(!active_speculation(id).has_value(),
                      "job already has an open race");
  const std::int64_t primary_attempt = row->cells[8].as_int();
  const double primary_planned_at = row->cells[9].as_real();
  const Value dag_key = row->cells[1];
  const db::RowId row_id = row->id;

  db_.table("speculations")
      .insert({Value(id.value()), dag_key, Value(primary_site.value()),
               Value(primary_attempt), Value(primary_planned_at),
               Value(spec_site.value()), Value(primary_attempt + 1),
               Value(to_string(SpeculationState::kRacing)), Value(at)});
  // Retarget the job row at the replica.  Direct writes: the automaton
  // forbids kSubmitted/kRunning -> kPlanned for a single attempt, but
  // here the original attempt stays live on the racing row.
  jobs.update(row_id, "state", Value(to_string(JobState::kPlanned)));
  jobs.update(row_id, "site", Value(spec_site.value()));
  jobs.update(row_id, "attempt", Value(primary_attempt + 1));
  jobs.update(row_id, "planned_at", Value(at));
  // The primary's unit moved onto the racing row; the replica's is new.
  ++outstanding_[spec_site];

  if (recorder_ != nullptr) {
    recorder_->event(obs::TraceKind::kJobTransition, recorder_source_,
                     "job:" + std::to_string(id.value()),
                     std::string(to_string(state)) + "->planned (speculate)",
                     static_cast<double>(primary_attempt + 1));
  }
}

std::optional<SpeculationRecord> DataWarehouse::active_speculation(
    JobId id) const {
  const db::Table& table = db_.table("speculations");
  for (const db::RowId row_id : table.find_by("job_id", Value(id.value()))) {
    SpeculationRecord rec = decode_speculation(*table.find(row_id));
    if (rec.state == SpeculationState::kRacing) return rec;
  }
  return std::nullopt;
}

std::optional<SpeculationRecord> DataWarehouse::latest_speculation(
    JobId id) const {
  const db::Table& table = db_.table("speculations");
  std::optional<SpeculationRecord> latest;
  // find_by yields insertion order; the last row is the newest race.
  for (const db::RowId row_id : table.find_by("job_id", Value(id.value()))) {
    latest = decode_speculation(*table.find(row_id));
  }
  return latest;
}

std::vector<SpeculationRecord> DataWarehouse::racing_speculations() const {
  const db::Table& table = db_.table("speculations");
  std::vector<SpeculationRecord> out;
  for (const db::RowId row_id : table.find_by(
           "state", Value(to_string(SpeculationState::kRacing)))) {
    out.push_back(decode_speculation(*table.find(row_id)));
  }
  return out;
}

void DataWarehouse::resolve_speculation(JobId id,
                                        SpeculationState final_state) {
  SPHINX_PRECONDITION(final_state != SpeculationState::kRacing,
                      "a race resolves to a terminal state");
  db::Table& table = db_.table("speculations");
  const db::Row* racing_row = nullptr;
  for (const db::RowId row_id : table.find_by("job_id", Value(id.value()))) {
    const db::Row* row = table.find(row_id);
    if (speculation_state_from(row->cells[7].as_text()) ==
        SpeculationState::kRacing) {
      racing_row = row;
      break;
    }
  }
  SPHINX_PRECONDITION(racing_row != nullptr,
                      "resolve_speculation: job has no open race");
  const SpeculationRecord rec = decode_speculation(*racing_row);
  table.update(racing_row->id, "state", Value(to_string(final_state)));

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
    db::Table& jobs = db_.table("jobs");
    const db::Row* job_row = jobs.find_first("job_id", Value(id.value()));
    SPHINX_ASSERT(job_row != nullptr, "resolve_speculation: unknown job");
    SPHINX_ASSERT(job_row->cells[8].as_int() == rec.spec_attempt,
                  "racing job row must still track the replica attempt");
    jobs.update(job_row->id, "site", Value(rec.primary_site.value()));
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
  db::Table& table = db_.table("rpc_outbox");
  const db::Row* row =
      table.find_first("seq", Value(static_cast<std::int64_t>(seq)));
  if (row == nullptr) {
    table.insert({Value(static_cast<std::int64_t>(seq)), Value(service),
                  Value(payload), Value(std::int64_t{attempt}),
                  Value(last_sent_at)});
    return;
  }
  table.update(row->id, "attempt", Value(std::int64_t{attempt}));
  table.update(row->id, "last_sent_at", Value(last_sent_at));
}

void DataWarehouse::outbox_erase(std::uint64_t seq) {
  db::Table& table = db_.table("rpc_outbox");
  const db::Row* row =
      table.find_first("seq", Value(static_cast<std::int64_t>(seq)));
  if (row != nullptr) table.erase(row->id);
}

std::vector<OutboxEntry> DataWarehouse::outbox_entries() const {
  const db::Table& table = db_.table("rpc_outbox");
  std::vector<OutboxEntry> entries;
  table.for_each([&](const db::Row& row) {
    OutboxEntry entry;
    entry.seq = static_cast<std::uint64_t>(row.cells[0].as_int());
    entry.service = row.cells[1].as_text();
    entry.payload = row.cells[2].as_text();
    entry.attempt = static_cast<int>(row.cells[3].as_int());
    entry.last_sent_at = row.cells[4].as_real();
    entries.push_back(std::move(entry));
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
  db::Table& table = db_.table("scheduler_state");
  const db::Row* row = table.find_first("key", Value(key));
  if (row == nullptr) {
    table.insert({Value(key), Value(value)});
    return;
  }
  if (table.get(row->id, "value").as_text() == value) return;
  table.update(row->id, "value", Value(value));
}

std::string DataWarehouse::scheduler_state(const std::string& key) const {
  const db::Table& table = db_.table("scheduler_state");
  const db::Row* row = table.find_first("key", Value(key));
  if (row == nullptr) return "";
  return table.get(row->id, "value").as_text();
}

// --- quotas -----------------------------------------------------------------

db::RowId DataWarehouse::quota_row(UserId user, SiteId site,
                                   const std::string& resource) const {
  const db::Table& quotas = db_.table("quotas");
  for (const db::RowId id : quotas.find_by("user", Value(user.value()))) {
    const db::Row* row = quotas.find(id);
    if (static_cast<std::uint64_t>(row->cells[1].as_int()) == site.value() &&
        row->cells[2].as_text() == resource) {
      return id;
    }
  }
  return db::kInvalidRow;
}

void DataWarehouse::set_quota(UserId user, SiteId site,
                              const std::string& resource, double limit) {
  db::Table& quotas = db_.table("quotas");
  const db::RowId row = quota_row(user, site, resource);
  if (row == db::kInvalidRow) {
    quotas.insert({Value(user.value()), Value(site.value()), Value(resource),
                   Value(limit), Value(0.0)});
  } else {
    quotas.update(row, "limit", Value(limit));
  }
}

double DataWarehouse::quota_remaining(UserId user, SiteId site,
                                      const std::string& resource) const {
  const db::RowId row = quota_row(user, site, resource);
  if (row == db::kInvalidRow) {
    return std::numeric_limits<double>::infinity();
  }
  const db::Table& quotas = db_.table("quotas");
  return quotas.get(row, "limit").as_real() -
         quotas.get(row, "used").as_real();
}

void DataWarehouse::consume_quota(UserId user, SiteId site,
                                  const std::string& resource, double amount) {
  SPHINX_PRECONDITION(amount >= 0, "quota consumption must be non-negative");
  const db::RowId row = quota_row(user, site, resource);
  if (row == db::kInvalidRow) return;
  db::Table& quotas = db_.table("quotas");
  const double used = quotas.get(row, "used").as_real() + amount;
  quotas.update(row, "used", Value(used));
  SPHINX_POSTCONDITION(used >= 0, "quota usage went negative");
}

void DataWarehouse::refund_quota(UserId user, SiteId site,
                                 const std::string& resource, double amount) {
  SPHINX_PRECONDITION(amount >= 0, "quota refund must be non-negative");
  const db::RowId row = quota_row(user, site, resource);
  if (row == db::kInvalidRow) return;
  db::Table& quotas = db_.table("quotas");
  const double used = quotas.get(row, "used").as_real() - amount;
  quotas.update(row, "used", Value(used < 0 ? 0.0 : used));
}

// --- contracts --------------------------------------------------------------

void DataWarehouse::check_invariants() const {
#if SPHINX_CONTRACTS_ENABLED
  db_.check_invariants();

  // Jobs: state text parses, outstanding jobs are placed and attempted.
  std::unordered_map<std::uint64_t, std::int64_t> jobs_per_dag;
  db_.table("jobs").for_each([&](const db::Row& row) {
    JobRecord job;
    try {
      job = decode_job(row);
    } catch (const AssertionError& e) {
      SPHINX_INVARIANT(false, std::string("job row does not parse: ") +
                                  e.what());
    }
    ++jobs_per_dag[job.dag.value()];
    SPHINX_INVARIANT(job.attempt >= 0, "job attempt counter went negative");
    if (is_outstanding(job.state)) {
      SPHINX_INVARIANT(job.site.value() != 0,
                       "outstanding job has no site assigned");
      SPHINX_INVARIANT(job.attempt >= 1,
                       "outstanding job was never planned");
    }
  });

  // DAGs: state text parses, finish times are coherent, and the recorded
  // job total matches the job table (journal/table consistency: both are
  // rebuilt from the same journal on recovery).
  db_.table("dags").for_each([&](const db::Row& row) {
    DagRecord dag;
    try {
      dag = decode_dag(row);
    } catch (const AssertionError& e) {
      SPHINX_INVARIANT(false, std::string("dag row does not parse: ") +
                                  e.what());
    }
    SPHINX_INVARIANT(dag.total_jobs >= 0, "dag job total went negative");
    SPHINX_INVARIANT(jobs_per_dag[dag.id.value()] == dag.total_jobs,
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
  db_.table("site_stats").for_each([&](const db::Row& row) {
    const std::int64_t completed = row.cells[1].as_int();
    const std::int64_t cancelled = row.cells[2].as_int();
    const double avg = row.cells[3].as_real();
    const std::int64_t samples = row.cells[4].as_int();
    SPHINX_INVARIANT(completed >= 0 && cancelled >= 0 && samples >= 0,
                     "site statistics counter went negative");
    SPHINX_INVARIANT(avg >= 0 && !std::isnan(avg),
                     "site completion average must be non-negative");
    SPHINX_INVARIANT(samples > 0 || avg == 0,
                     "site carries an average with no samples");
  });

  // Quotas: limits and usage are non-negative.
  db_.table("quotas").for_each([&](const db::Row& row) {
    SPHINX_INVARIANT(row.cells[3].as_real() >= 0,
                     "quota limit went negative");
    SPHINX_INVARIANT(row.cells[4].as_real() >= 0,
                     "quota usage went negative");
  });

  // Speculation races: rows parse, attempts are consecutive, the two
  // sites differ, at most one race per job is open, and an open race's
  // job row still tracks the replica attempt.
  std::unordered_set<std::uint64_t> racing_jobs;
  db_.table("speculations").for_each([&](const db::Row& row) {
    SpeculationRecord rec;
    try {
      rec = decode_speculation(row);
    } catch (const AssertionError& e) {
      SPHINX_INVARIANT(false, std::string("speculation row does not parse: ") +
                                  e.what());
    }
    SPHINX_INVARIANT(rec.primary_attempt >= 1,
                     "race opened on a never-planned attempt");
    SPHINX_INVARIANT(rec.spec_attempt == rec.primary_attempt + 1,
                     "replica attempt must directly succeed the primary");
    SPHINX_INVARIANT(rec.primary_site != rec.spec_site,
                     "race must span two sites");
    if (rec.state != SpeculationState::kRacing) return;
    SPHINX_INVARIANT(racing_jobs.insert(rec.job.value()).second,
                     "job holds two open races");
    const std::optional<JobRecord> job_rec = job(rec.job);
    SPHINX_INVARIANT(job_rec.has_value(), "open race names a missing job");
    SPHINX_INVARIANT(is_outstanding(job_rec->state),
                     "open race on a job that is not outstanding");
    SPHINX_INVARIANT(
        job_rec->attempt == rec.spec_attempt && job_rec->site == rec.spec_site,
        "racing job row must track the replica attempt");
  });

  // Runtime sample rings: non-negative values, ring bound respected.
  {
    std::map<std::pair<std::int64_t, std::int64_t>, std::size_t> ring_sizes;
    db_.table("runtime_samples").for_each([&](const db::Row& row) {
      SPHINX_INVARIANT(row.cells[2].as_real() >= 0,
                       "runtime sample went negative");
      ++ring_sizes[{row.cells[0].as_int(), row.cells[1].as_int()}];
    });
    for (const auto& [key, size] : ring_sizes) {
      SPHINX_INVARIANT(size <= kMaxRuntimeSamples,
                       "runtime sample ring exceeded its bound");
    }
  }

  // Derived work state mirrors the tables: the live counters must equal a
  // fresh scan, every queued dirty row names a live, unfinished DAG, and
  // every DAG with pending work is queued (else no sweep would reach it).
  SPHINX_INVARIANT(outstanding_ == scan_outstanding_by_site(),
                   "live outstanding counters diverged from the jobs table");
  const db::Table& dags = db_.table("dags");
  for (const db::RowId row_id : dirty_rows_) {
    const db::Row* row = dags.find(row_id);
    SPHINX_INVARIANT(row != nullptr, "dirty queue names a missing dag row");
    SPHINX_INVARIANT(decode_dag(*row).state != DagState::kFinished,
                     "dirty queue holds a finished dag");
  }
  dags.for_each([&](const db::Row& row) {
    SPHINX_INVARIANT(
        !has_pending_work(decode_dag(row)) || dirty_rows_.contains(row.id),
        "dag with pending work is not queued");
  });
#endif
}

void DataWarehouse::check_dag_invariants(DagId id) const {
#if SPHINX_CONTRACTS_ENABLED
  const std::optional<DagRecord> rec = dag(id);
  SPHINX_INVARIANT(rec.has_value(), "check_dag_invariants: unknown dag");
  std::int64_t job_count = 0;
  for (const JobRecord& job : jobs_of_dag(id)) {
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
