#pragma once
/// \file warehouse.hpp
/// The SPHINX data warehouse: typed access to the server's database.
///
/// "The SPHINX server adopts database infrastructure to manage scheduling
/// procedure.  Database tables support inter-process communication among
/// scheduling modules ... It also supports fault tolerance by making the
/// system easily recoverable from internal component failures" (paper
/// section 3.1).  All server state -- DAGs, jobs, dependencies, site
/// statistics, quotas -- lives in db::Database tables; a crashed server
/// is rebuilt from the journal, optionally on top of a checkpoint image
/// (see recover_from()).
///
/// On top of the tables the warehouse maintains derived *work state* that
/// makes sweeps O(changed work) instead of O(total state):
///  - a dirty-DAG work queue ("dirty list"): every state transition that
///    can create planning work enqueues the affected DAG, and the server's
///    sweep drains the queue instead of scanning the dags table.  A drain
///    yields only the queued DAGs with *pending work* (has_pending_work()),
///    a pure function of the tables, so the live queue only has to be a
///    superset of the pending set;
///  - live outstanding-per-site counters, maintained on job transitions
///    instead of recomputed by a per-sweep scan of the jobs table.
/// Both are rebuilt from the recovered tables alone in recover_from(), so
/// a restarted server resumes exactly where the crashed one stopped.
///
/// Recovery is O(state), not O(history): checkpoint() publishes a
/// CheckpointImage (database snapshot + sequence number) and compacts the
/// journal prefix it covers, and recover_from(journal, image) restores
/// the snapshot then replays only the post-checkpoint suffix.  Without an
/// image, recovery replays the whole journal onto an empty database.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/ids.hpp"
#include "common/time.hpp"
#include "core/checkpoint.hpp"
#include "core/state.hpp"
#include "data/lfn.hpp"
#include "db/database.hpp"
#include "workflow/dag.hpp"

namespace sphinx::obs {
class Recorder;
}  // namespace sphinx::obs

namespace sphinx::core {

/// Per-site statistics fed by tracker reports (feedback) and planning
/// decisions.  avg_completion is an EWMA persisted in the table so it
/// survives recovery.
struct SiteStats {
  SiteId site;
  std::int64_t completed = 0;
  std::int64_t cancelled = 0;
  double avg_completion = 0.0;  ///< EWMA of reported completion times
  std::int64_t samples = 0;     ///< completion reports folded in
};

/// A job row materialized from the warehouse.
struct JobRecord {
  JobId id;
  DagId dag;
  std::string name;
  JobState state = JobState::kUnplanned;
  SiteId site;                 ///< invalid until planned
  Duration compute_time = 0.0;
  data::Lfn output;
  double output_bytes = 0.0;
  int attempt = 0;
  SimTime planned_at = kNever;  ///< when the live attempt was planned
};

/// One speculative replication race (straggler defense).  While kRacing
/// the job's own row tracks the replica ("spec") attempt and this row
/// remembers the original ("primary") attempt; resolution retires one
/// side (see SpeculationState).
struct SpeculationRecord {
  JobId job;
  DagId dag;
  SiteId primary_site;
  int primary_attempt = 0;
  SimTime primary_planned_at = 0.0;  ///< for censored-duration bookkeeping
  SiteId spec_site;
  int spec_attempt = 0;
  SpeculationState state = SpeculationState::kRacing;
  SimTime launched_at = 0.0;
};

/// One in-flight outbound RPC call persisted for crash recovery.
struct OutboxEntry {
  std::uint64_t seq = 0;
  std::string service;
  std::string payload;   ///< serialized methodCall, retransmitted verbatim
  int attempt = 0;
  SimTime last_sent_at = 0.0;
};

/// A DAG row materialized from the warehouse.
struct DagRecord {
  DagId id;
  std::string name;
  std::string client;
  UserId user;
  DagState state = DagState::kReceived;
  SimTime received_at = 0.0;
  SimTime finished_at = kNever;
  std::int64_t total_jobs = 0;
  double priority = 0.0;  ///< request priority; higher is planned first
  SimTime deadline = kNever;  ///< QoS deadline; kNever = best effort
};

class DataWarehouse {
 public:
  /// Creates the schema in a fresh database.
  DataWarehouse();

  /// Rebuilds a warehouse from a crashed instance's durable state: the
  /// checkpoint image, when one was published, plus the journal.  Restores
  /// the image's snapshot and replays only the entries with sequence >=
  /// image.seq; without an image it replays the whole journal, which must
  /// then start at sequence 0 (a compacted journal needs its image).
  /// Handles both a compacted journal (crash after truncation) and an
  /// untruncated one (crash between snapshot publication and truncation
  /// -- recovery completes the truncation).
  [[nodiscard]] static Expected<std::unique_ptr<DataWarehouse>> recover_from(
      const db::Journal& journal,
      const std::optional<CheckpointImage>& checkpoint = std::nullopt);

  /// The journal to persist elsewhere for crash recovery.
  [[nodiscard]] const db::Journal& journal() const { return db_.journal(); }

  // --- checkpointing ----------------------------------------------------
  /// Result of one checkpoint() call, for the caller's observability.
  struct CheckpointStats {
    std::uint64_t seq = 0;              ///< sequence the image reflects
    std::size_t compacted_records = 0;  ///< journal entries the image covers
    std::size_t snapshot_bytes = 0;     ///< size of the database snapshot
    bool truncated = false;  ///< false when mid_hook fail-stopped the run
  };

  /// Publishes a checkpoint image of the current state (database
  /// snapshot at the journal's next_seq) and truncates the journal
  /// prefix it covers.  `mid_hook`, when provided, runs between
  /// publication and truncation -- the chaos harness's mid-checkpoint
  /// kill point; returning true marks the instance as crashing and
  /// leaves the journal untruncated (the recovered instance finishes the
  /// truncation via recover_from, so a crash here is invisible).
  CheckpointStats checkpoint(
      SimTime now,
      const std::function<bool(const CheckpointImage&)>& mid_hook = {});

  /// The most recent checkpoint image: published by checkpoint() and
  /// carried across recover_from(), so a crash handler can always pair
  /// journal() with the image that anchors its sequence numbers.
  [[nodiscard]] const std::optional<CheckpointImage>& checkpoint_image()
      const noexcept {
    return checkpoint_;
  }

  // --- DAG lifecycle --------------------------------------------------
  void insert_dag(const workflow::Dag& dag, const std::string& client,
                  UserId user, SimTime now, double priority = 0.0,
                  SimTime deadline = kNever);
  [[nodiscard]] std::vector<DagRecord> dags_in_state(DagState state) const;
  [[nodiscard]] std::optional<DagRecord> dag(DagId id) const;
  void set_dag_state(DagId id, DagState state);
  void set_dag_finished(DagId id, SimTime at);
  [[nodiscard]] std::vector<DagRecord> all_dags() const;

  // --- job lifecycle --------------------------------------------------
  [[nodiscard]] std::optional<JobRecord> job(JobId id) const;
  [[nodiscard]] std::vector<JobRecord> jobs_of_dag(DagId id) const;
  [[nodiscard]] std::vector<JobRecord> jobs_in_state(JobState state) const;
  /// Transitions a job; `reason` is free-form context ("report:completed",
  /// "tracker-cancel", ...) carried into the flight-recorder trace.
  void set_job_state(JobId id, JobState state, std::string_view reason = {});
  /// Records a planning decision (state -> planned, attempt++).
  void set_job_planned(JobId id, SiteId site, SimTime at);
  [[nodiscard]] std::vector<data::Lfn> job_inputs(JobId id) const;
  [[nodiscard]] std::vector<JobId> job_parents(JobId id) const;
  /// Jobs that consume this job's output (dependency children).
  [[nodiscard]] std::vector<JobId> job_children(JobId id) const;
  /// The DAG's ready set: unplanned jobs whose parents have all
  /// completed, in job-table order.  Decodes the DAG's job rows once.
  /// The planner plans exactly these, and a planning DAG has pending
  /// work only when this set is non-empty, so the two agree on what
  /// "blocked work" is.
  [[nodiscard]] std::vector<JobRecord> ready_jobs(DagId dag) const;
  /// Jobs outstanding on a site (eq. 1/2's planned + unfinished term).
  /// Served from the live counter; O(1).
  [[nodiscard]] std::int64_t outstanding_on_site(SiteId site) const;
  /// All sites with outstanding work.  Served from the live counters
  /// maintained on job transitions -- no table scan.  Sites with zero
  /// outstanding jobs carry no entry.
  [[nodiscard]] std::unordered_map<SiteId, std::int64_t> outstanding_by_site()
      const;
  /// Recomputes the same map with a full scan of the jobs table.  Slow;
  /// exists so tests and the invariant sweep can cross-check the live
  /// counters against ground truth.
  [[nodiscard]] std::unordered_map<SiteId, std::int64_t>
  scan_outstanding_by_site() const;

  // --- work queue (dirty list) ------------------------------------------
  /// Enqueues a DAG for the next sweep.  Transitions that create planning
  /// work mark automatically; the server re-marks a DAG only when a ready
  /// job could not be placed (no input replica, no feasible site), so that
  /// job is retried every sweep.  Jobs waiting on parents are not retried:
  /// the parent's completion marks the DAG.  Idempotent.
  void mark_dag_dirty(DagId id);
  /// Removes and returns the queued DAGs with pending work as fresh
  /// records, in table insertion order (the order dags_in_state() used
  /// to yield).  Queued DAGs without pending work -- finished, or
  /// planning with nothing ready -- are dropped unswept.
  [[nodiscard]] std::vector<DagRecord> drain_dirty_dags();
  /// The queued DAG ids with pending work, in table insertion order: what
  /// the next drain would yield.
  [[nodiscard]] std::vector<DagId> dirty_dags() const;

  // --- site statistics (feedback) --------------------------------------
  [[nodiscard]] SiteStats site_stats(SiteId site) const;
  void record_completion(SiteId site, Duration completion_time);
  /// Records a tracker-initiated cancellation.  `censored_duration` is
  /// how long the attempt had been outstanding when it was killed -- a
  /// lower bound on the site's true turnaround, folded into the EWMA as a
  /// censored observation so a black hole cannot keep a stale attractive
  /// average (it only ever "completes" nothing).
  void record_cancellation(SiteId site, Duration censored_duration = 0.0);
  /// Reliability rule from the paper: unreliable when more cancelled than
  /// completed jobs (section 4, "Importance of feedback information").
  [[nodiscard]] bool site_available(SiteId site) const;

  // --- straggler defense (speculative replication) ----------------------
  /// Records one completed attempt's runtime into the (site, job-class)
  /// sample ring the straggler detector learns percentiles from.  Rings
  /// are journaled (the detector's decisions must replay exactly on
  /// recovery) and bounded to kMaxRuntimeSamples per key: the oldest
  /// sample is evicted first.
  void record_runtime_sample(SiteId site, int job_class, Duration runtime);
  /// The (site, job-class) ring, oldest sample first.
  [[nodiscard]] std::vector<double> runtime_samples(SiteId site,
                                                    int job_class) const;
  /// The class's samples across every site (cold-site fallback: a site
  /// that never completed anything -- e.g. a black hole -- still gets a
  /// baseline to be judged against).
  [[nodiscard]] std::vector<double> runtime_samples_all_sites(
      int job_class) const;

  /// Opens a race: inserts a kRacing speculation row remembering the
  /// job's current ("primary") attempt and retargets the job row at the
  /// replica -- site = spec_site, attempt + 1, state back to kPlanned so
  /// the normal submitted/running reports of the replica apply.  This is
  /// a deliberate automaton regression (kSubmitted/kRunning -> kPlanned
  /// is illegal for single attempts), so it bypasses set_job_state under
  /// its own contract: job outstanding at a different site, no race
  /// already open.  Counters: the racing row carries the primary site's
  /// outstanding unit, the job row the replica's.
  void speculate_job(JobId id, SiteId spec_site, SimTime at);
  /// The job's open race, if any.
  [[nodiscard]] std::optional<SpeculationRecord> active_speculation(
      JobId id) const;
  /// The job's most recent race in any state (arbitration needs resolved
  /// races too: after kSpecDead the surviving primary reports under its
  /// own attempt number while the job row keeps the replica's).
  [[nodiscard]] std::optional<SpeculationRecord> latest_speculation(
      JobId id) const;
  /// Every open race, in launch order.
  [[nodiscard]] std::vector<SpeculationRecord> racing_speculations() const;
  /// Closes the job's open race.  kPrimaryWon/kSpecWon/kPrimaryDead
  /// retire the primary's outstanding unit (the job row keeps tracking
  /// the replica until set_job_state completes or cancels it);
  /// kSpecDead retargets the job row back at the primary site -- the
  /// attempt number stays at the replica's so a later replan can never
  /// reuse a burnt (job, attempt) pair against the client's duplicate
  /// guard -- and retires the replica's unit.
  void resolve_speculation(JobId id, SpeculationState final_state);

  // --- quotas (policy) --------------------------------------------------
  void set_quota(UserId user, SiteId site, const std::string& resource,
                 double limit);
  /// Remaining quota; +infinity when no quota row exists (unconstrained).
  [[nodiscard]] double quota_remaining(UserId user, SiteId site,
                                       const std::string& resource) const;
  /// Consumes quota; clamps at the limit.  No-op without a quota row.
  void consume_quota(UserId user, SiteId site, const std::string& resource,
                     double amount);
  /// Returns quota (used on replanning after a cancelled attempt).
  void refund_quota(UserId user, SiteId site, const std::string& resource,
                    double amount);

  // --- RPC outbox (reliable outbound calls) -----------------------------
  /// Inserts or refreshes the persisted state of one in-flight call.
  void outbox_upsert(std::uint64_t seq, const std::string& service,
                     const std::string& payload, int attempt,
                     SimTime last_sent_at);
  /// Drops a completed call.  No-op for an unknown sequence number.
  void outbox_erase(std::uint64_t seq);
  /// Every persisted in-flight call, ordered by sequence number.
  [[nodiscard]] std::vector<OutboxEntry> outbox_entries() const;

  // --- scheduler soft state --------------------------------------------
  /// Persists a scheduling-module key/value pair (e.g. a strategy's
  /// cursor) into the journaled `scheduler_state` table.  Writing the
  /// value already stored is a no-op, so unchanged state costs no
  /// journal growth.
  void set_scheduler_state(const std::string& key, const std::string& value);
  /// The stored value, or "" when the key was never written.
  [[nodiscard]] std::string scheduler_state(const std::string& key) const;

  [[nodiscard]] db::Database& database() noexcept { return db_; }

  /// Attaches a flight recorder; job transitions and planning decisions
  /// are traced as `source` (the owning server's endpoint).  The
  /// warehouse has no clock of its own -- the recorder stamps events
  /// with its engine's sim time.  Observation only.
  void set_recorder(obs::Recorder* recorder, std::string source);

  /// Semantic sweep over the whole warehouse: every job/dag state text
  /// parses, outstanding jobs have a site and at least one attempt,
  /// finished DAGs have a finish time, per-dag job counts match the
  /// recorded totals, site statistics counters are non-negative, quota
  /// usage is non-negative, the live outstanding counters agree with a
  /// scan of the jobs table, every queued dirty DAG names a live,
  /// unfinished row, and every DAG with pending work is queued.  Also
  /// runs the db layer's structural sweep.  O(total state) -- call from
  /// recovery and tests, not per sweep.  Throws ContractViolation on
  /// corruption; no-op when contracts are compiled out.
  void check_invariants() const;

  /// Incremental variant scoped to one DAG: its rows parse, outstanding
  /// jobs are placed and attempted, the job count matches the recorded
  /// total, and finish times are coherent.  O(jobs of that DAG), so the
  /// sweep can check just the DAGs it touched.
  void check_dag_invariants(DagId id) const;

 private:
  explicit DataWarehouse(bool create_schema);
  void create_schema();
  /// Whether a DAG holds work for a sweep: received or reduced (work for
  /// the reducer and the planning hand-off), or planning with a non-empty
  /// ready_jobs().  A pure function of the tables; recovery queues
  /// exactly the DAGs it holds for.
  [[nodiscard]] bool has_pending_work(const DagRecord& dag) const;
  /// The queued DAGs with pending work, in table insertion order.
  [[nodiscard]] std::vector<DagRecord> queued_pending_dags() const;
  /// Rebuilds the outstanding counters and the dirty queue from the
  /// recovered tables: the queue holds exactly the DAGs with pending
  /// work (has_pending_work()), found by one scan of the dags table.
  void rebuild_work_state();
  [[nodiscard]] static JobRecord decode_job(const db::Row& row);
  [[nodiscard]] static DagRecord decode_dag(const db::Row& row);
  [[nodiscard]] static SpeculationRecord decode_speculation(const db::Row& row);
  [[nodiscard]] db::RowId site_stats_row(SiteId site) const;
  db::RowId quota_row(UserId user, SiteId site,
                      const std::string& resource) const;

  db::Database db_;
  /// Dirty-DAG work queue, keyed by dags-table row id so draining yields
  /// insertion order.  Derived state: never journaled, rebuilt on
  /// recovery by rebuild_work_state().  It may hold DAGs without pending
  /// work (drains skip them) but must hold every DAG with some.  The
  /// annotation below lets sphinx-lint reject mutations from any other
  /// function -- a stray write could drop pending work.
  std::set<db::RowId> dirty_rows_;  // sphinx-lint: derived(rebuild_work_state, insert_dag, set_dag_state, set_dag_finished, set_job_state, mark_dag_dirty, drain_dirty_dags)
  /// Live outstanding-jobs-per-site counters (zero entries erased so the
  /// map compares equal to a fresh scan).  Derived state like the queue.
  std::unordered_map<SiteId, std::int64_t> outstanding_;  // sphinx-lint: derived(rebuild_work_state, set_job_state, set_job_planned, speculate_job, resolve_speculation)
  /// Last published checkpoint image.  Written only when a checkpoint is
  /// published or carried across recovery -- any other write would let
  /// the image drift from the journal sequence it anchors.
  std::optional<CheckpointImage> checkpoint_;  // sphinx-lint: derived(checkpoint, recover_from)
  obs::Recorder* recorder_ = nullptr;
  std::string recorder_source_;
};

}  // namespace sphinx::core
