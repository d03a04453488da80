// Tests for the SPHINX data warehouse: schema, state transitions, site
// statistics (including censored cancellations), quotas and recovery.

#include <gtest/gtest.h>

#include "core/warehouse.hpp"
#include "workflow/generator.hpp"

namespace sphinx::core {
namespace {

workflow::Dag two_job_dag(std::uint64_t base = 100) {
  workflow::Dag dag(DagId(base), "wh-dag");
  workflow::JobSpec a;
  a.id = JobId(base + 1);
  a.name = "a";
  a.compute_time = 60.0;
  a.inputs = {"lfn://in"};
  a.output = "lfn://mid";
  a.output_bytes = 5e6;
  workflow::JobSpec b;
  b.id = JobId(base + 2);
  b.name = "b";
  b.compute_time = 30.0;
  b.inputs = {"lfn://mid"};
  b.output = "lfn://out";
  b.output_bytes = 1e6;
  dag.add_job(a);
  dag.add_job(b);
  dag.add_edge(a.id, b.id);
  return dag;
}

TEST(Warehouse, InsertDagMaterializesRows) {
  DataWarehouse wh;
  wh.insert_dag(two_job_dag(), "client-1", UserId(9), 12.5);

  const auto dag = wh.dag(DagId(100));
  ASSERT_TRUE(dag.has_value());
  EXPECT_EQ(dag->name, "wh-dag");
  EXPECT_EQ(dag->client, "client-1");
  EXPECT_EQ(dag->user, UserId(9));
  EXPECT_EQ(dag->state, DagState::kReceived);
  EXPECT_DOUBLE_EQ(dag->received_at, 12.5);
  EXPECT_EQ(dag->total_jobs, 2);

  const auto jobs = wh.jobs_of_dag(DagId(100));
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].state, JobState::kUnplanned);
  EXPECT_EQ(jobs[0].attempt, 0);
  EXPECT_EQ(wh.job_inputs(JobId(101)),
            std::vector<data::Lfn>{"lfn://in"});
  EXPECT_EQ(wh.job_parents(JobId(102)), std::vector<JobId>{JobId(101)});
  EXPECT_TRUE(wh.job_parents(JobId(101)).empty());
}

TEST(Warehouse, DagStateTransitions) {
  DataWarehouse wh;
  wh.insert_dag(two_job_dag(), "c", UserId(1), 0.0);
  EXPECT_EQ(wh.dags_in_state(DagState::kReceived).size(), 1u);
  wh.set_dag_state(DagId(100), DagState::kPlanning);
  EXPECT_TRUE(wh.dags_in_state(DagState::kReceived).empty());
  EXPECT_EQ(wh.dags_in_state(DagState::kPlanning).size(), 1u);
  wh.set_dag_finished(DagId(100), 500.0);
  const auto dag = wh.dag(DagId(100));
  EXPECT_EQ(dag->state, DagState::kFinished);
  EXPECT_DOUBLE_EQ(dag->finished_at, 500.0);
  EXPECT_THROW(wh.set_dag_state(DagId(999), DagState::kPlanning),
               AssertionError);
}

TEST(Warehouse, JobPlanningIncrementsAttempt) {
  DataWarehouse wh;
  wh.insert_dag(two_job_dag(), "c", UserId(1), 0.0);
  wh.set_job_planned(JobId(101), SiteId(4), 10.0);
  auto job = wh.job(JobId(101));
  EXPECT_EQ(job->state, JobState::kPlanned);
  EXPECT_EQ(job->site, SiteId(4));
  EXPECT_EQ(job->attempt, 1);
  // Replanning after a cancellation bumps the attempt again.
  wh.set_job_state(JobId(101), JobState::kUnplanned);
  wh.set_job_planned(JobId(101), SiteId(5), 20.0);
  job = wh.job(JobId(101));
  EXPECT_EQ(job->attempt, 2);
  EXPECT_EQ(job->site, SiteId(5));
}

TEST(Warehouse, CompletedJobsAndOutstanding) {
  DataWarehouse wh;
  wh.insert_dag(two_job_dag(), "c", UserId(1), 0.0);
  wh.set_job_planned(JobId(101), SiteId(4), 1.0);
  wh.set_job_planned(JobId(102), SiteId(4), 1.0);
  EXPECT_EQ(wh.outstanding_on_site(SiteId(4)), 2);
  wh.set_job_state(JobId(101), JobState::kCompleted);
  EXPECT_EQ(wh.outstanding_on_site(SiteId(4)), 1);
  const auto by_site = wh.outstanding_by_site();
  EXPECT_EQ(by_site.at(SiteId(4)), 1);
}

TEST(Warehouse, ReadyJobsFollowParentCompletion) {
  DataWarehouse wh;
  wh.insert_dag(two_job_dag(), "c", UserId(1), 0.0);
  const auto ready_ids = [&wh] {
    std::vector<JobId> ids;
    for (const JobRecord& job : wh.ready_jobs(DagId(100))) {
      ids.push_back(job.id);
    }
    return ids;
  };
  // Root jobs are ready from the start; the child waits on its parent.
  EXPECT_EQ(ready_ids(), std::vector<JobId>{JobId(101)});

  // A live parent keeps the child waiting, and is itself no longer
  // unplanned: nothing is ready.
  wh.set_job_planned(JobId(101), SiteId(4), 1.0);
  wh.set_job_state(JobId(101), JobState::kRunning);
  EXPECT_TRUE(ready_ids().empty());

  // The parent's completion readies the child, decoded in full.
  wh.set_job_state(JobId(101), JobState::kCompleted);
  const auto ready = wh.ready_jobs(DagId(100));
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0].id, JobId(102));
  EXPECT_EQ(ready[0].dag, DagId(100));
  EXPECT_EQ(ready[0].name, "b");
  EXPECT_EQ(ready[0].state, JobState::kUnplanned);
  EXPECT_EQ(ready[0].output, "lfn://out");
  EXPECT_TRUE(wh.ready_jobs(DagId(999)).empty());
}

TEST(Warehouse, SiteStatsEwmaAndReliability) {
  DataWarehouse wh;
  EXPECT_TRUE(wh.site_available(SiteId(1)));  // no data = available
  wh.record_completion(SiteId(1), 100.0);
  auto stats = wh.site_stats(SiteId(1));
  EXPECT_EQ(stats.completed, 1);
  EXPECT_DOUBLE_EQ(stats.avg_completion, 100.0);
  wh.record_completion(SiteId(1), 200.0);
  stats = wh.site_stats(SiteId(1));
  EXPECT_EQ(stats.samples, 2);
  // EWMA(0.3): 0.3*200 + 0.7*100 = 130.
  EXPECT_NEAR(stats.avg_completion, 130.0, 1e-9);
  EXPECT_TRUE(wh.site_available(SiteId(1)));

  wh.record_cancellation(SiteId(1));
  EXPECT_TRUE(wh.site_available(SiteId(1)));  // 1 cancel <= 2 completed
  wh.record_cancellation(SiteId(1));
  wh.record_cancellation(SiteId(1));
  EXPECT_FALSE(wh.site_available(SiteId(1)));  // 3 > 2
}

TEST(Warehouse, CensoredCancellationRaisesEwma) {
  DataWarehouse wh;
  wh.record_completion(SiteId(2), 100.0);
  wh.record_cancellation(SiteId(2), 900.0);  // timed out after 900 s
  const auto stats = wh.site_stats(SiteId(2));
  EXPECT_EQ(stats.cancelled, 1);
  EXPECT_EQ(stats.samples, 2);
  EXPECT_GT(stats.avg_completion, 100.0);
  // First-ever observation may be censored too.
  wh.record_cancellation(SiteId(3), 900.0);
  EXPECT_DOUBLE_EQ(wh.site_stats(SiteId(3)).avg_completion, 900.0);
  // Zero-duration cancellation (no information) leaves the EWMA alone.
  wh.record_cancellation(SiteId(4));
  EXPECT_EQ(wh.site_stats(SiteId(4)).samples, 0);
}

TEST(Warehouse, QuotaLifecycle) {
  DataWarehouse wh;
  const UserId user(7);
  const SiteId site(3);
  // No quota row: unconstrained.
  EXPECT_TRUE(std::isinf(wh.quota_remaining(user, site, "cpu_seconds")));
  wh.consume_quota(user, site, "cpu_seconds", 100.0);  // no-op
  EXPECT_TRUE(std::isinf(wh.quota_remaining(user, site, "cpu_seconds")));

  wh.set_quota(user, site, "cpu_seconds", 1000.0);
  EXPECT_DOUBLE_EQ(wh.quota_remaining(user, site, "cpu_seconds"), 1000.0);
  wh.consume_quota(user, site, "cpu_seconds", 400.0);
  EXPECT_DOUBLE_EQ(wh.quota_remaining(user, site, "cpu_seconds"), 600.0);
  wh.refund_quota(user, site, "cpu_seconds", 100.0);
  EXPECT_DOUBLE_EQ(wh.quota_remaining(user, site, "cpu_seconds"), 700.0);
  // Refund never goes below zero used.
  wh.refund_quota(user, site, "cpu_seconds", 1e9);
  EXPECT_DOUBLE_EQ(wh.quota_remaining(user, site, "cpu_seconds"), 1000.0);
  // Quotas are per (user, site, resource).
  EXPECT_TRUE(std::isinf(wh.quota_remaining(UserId(8), site, "cpu_seconds")));
  EXPECT_TRUE(std::isinf(wh.quota_remaining(user, SiteId(4), "cpu_seconds")));
  EXPECT_TRUE(std::isinf(wh.quota_remaining(user, site, "disk_bytes")));
  // set_quota on an existing row updates the limit, preserving usage.
  wh.consume_quota(user, site, "cpu_seconds", 300.0);
  wh.set_quota(user, site, "cpu_seconds", 2000.0);
  EXPECT_DOUBLE_EQ(wh.quota_remaining(user, site, "cpu_seconds"), 1700.0);
}

TEST(Warehouse, RecoveryPreservesEverything) {
  DataWarehouse wh;
  wh.insert_dag(two_job_dag(), "client-x", UserId(3), 5.0);
  wh.set_job_planned(JobId(101), SiteId(2), 8.0);
  wh.set_job_state(JobId(101), JobState::kRunning);
  wh.record_completion(SiteId(2), 250.0);
  wh.record_cancellation(SiteId(9), 900.0);
  wh.set_quota(UserId(3), SiteId(2), "cpu_seconds", 5000.0);
  wh.consume_quota(UserId(3), SiteId(2), "cpu_seconds", 60.0);

  auto recovered = DataWarehouse::recover_from(wh.journal());
  ASSERT_TRUE(recovered.has_value());
  DataWarehouse& r = **recovered;
  EXPECT_EQ(r.dag(DagId(100))->client, "client-x");
  EXPECT_EQ(r.job(JobId(101))->state, JobState::kRunning);
  EXPECT_EQ(r.job(JobId(101))->site, SiteId(2));
  EXPECT_EQ(r.job(JobId(101))->attempt, 1);
  EXPECT_DOUBLE_EQ(r.site_stats(SiteId(2)).avg_completion, 250.0);
  EXPECT_EQ(r.site_stats(SiteId(9)).cancelled, 1);
  EXPECT_DOUBLE_EQ(r.quota_remaining(UserId(3), SiteId(2), "cpu_seconds"),
                   4940.0);
  // Recovered warehouse keeps journaling and can recover again (chain).
  r.record_completion(SiteId(2), 100.0);
  auto second = DataWarehouse::recover_from(r.journal());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ((*second)->site_stats(SiteId(2)).samples, 2);
}

TEST(Warehouse, RecoverySurvivesTextSerialization) {
  DataWarehouse wh;
  wh.insert_dag(two_job_dag(), "c", UserId(1), 0.0);
  wh.set_job_planned(JobId(101), SiteId(2), 1.0);
  const std::string text = wh.journal().serialize();
  const auto parsed = db::Journal::parse(text);
  ASSERT_TRUE(parsed.has_value());
  const auto recovered = DataWarehouse::recover_from(*parsed);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ((*recovered)->job(JobId(101))->site, SiteId(2));
}

TEST(Warehouse, DirtyQueueDrivesTheSweep) {
  DataWarehouse wh;
  // Submission enqueues the DAG.
  wh.insert_dag(two_job_dag(), "c", UserId(1), 0.0);
  EXPECT_EQ(wh.dirty_dags(), std::vector<DagId>{DagId(100)});

  // Draining empties the queue and yields a fresh record.
  auto drained = wh.drain_dirty_dags();
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_EQ(drained[0].id, DagId(100));
  EXPECT_EQ(drained[0].state, DagState::kReceived);
  EXPECT_TRUE(wh.dirty_dags().empty());
  EXPECT_TRUE(wh.drain_dirty_dags().empty());

  // Planning a job creates no new work; completing one does (the
  // children may now be ready).
  wh.set_dag_state(DagId(100), DagState::kPlanning);
  (void)wh.drain_dirty_dags();  // the state change itself enqueued it
  wh.set_job_planned(JobId(101), SiteId(4), 1.0);
  EXPECT_TRUE(wh.dirty_dags().empty());
  wh.set_job_state(JobId(101), JobState::kCompleted);
  EXPECT_EQ(wh.dirty_dags(), std::vector<DagId>{DagId(100)});

  // A cancellation bounces the job back to unplanned: work again.
  (void)wh.drain_dirty_dags();
  wh.set_job_planned(JobId(102), SiteId(4), 2.0);
  wh.set_job_state(JobId(102), JobState::kUnplanned);
  EXPECT_EQ(wh.dirty_dags(), std::vector<DagId>{DagId(100)});

  // Finishing the DAG removes it from the queue: no work after the end.
  wh.set_dag_finished(DagId(100), 10.0);
  EXPECT_TRUE(wh.dirty_dags().empty());
}

TEST(Warehouse, DrainYieldsSubmissionOrder) {
  DataWarehouse wh;
  // Submission order (table row order), not DAG-id order.
  wh.insert_dag(two_job_dag(200), "c", UserId(1), 0.0);
  wh.insert_dag(two_job_dag(100), "c", UserId(1), 1.0);
  const auto ids = wh.dirty_dags();
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(ids[0], DagId(200));
  EXPECT_EQ(ids[1], DagId(100));
  const auto drained = wh.drain_dirty_dags();
  ASSERT_EQ(drained.size(), 2u);
  EXPECT_EQ(drained[0].id, DagId(200));
  EXPECT_EQ(drained[1].id, DagId(100));
  // Marking is idempotent: one queue entry per DAG.
  wh.mark_dag_dirty(DagId(100));
  wh.mark_dag_dirty(DagId(100));
  EXPECT_EQ(wh.dirty_dags().size(), 1u);
}

TEST(Warehouse, OutstandingCountersMatchScan) {
  DataWarehouse wh;
  wh.insert_dag(two_job_dag(100), "c", UserId(1), 0.0);
  wh.insert_dag(two_job_dag(200), "c", UserId(1), 0.0);
  EXPECT_EQ(wh.outstanding_by_site(), wh.scan_outstanding_by_site());

  wh.set_job_planned(JobId(101), SiteId(4), 1.0);
  wh.set_job_planned(JobId(102), SiteId(5), 1.0);
  wh.set_job_planned(JobId(201), SiteId(4), 1.0);
  EXPECT_EQ(wh.outstanding_by_site(), wh.scan_outstanding_by_site());
  EXPECT_EQ(wh.outstanding_on_site(SiteId(4)), 2);

  // Submitted and running still count as outstanding (eq. 1/2).
  wh.set_job_state(JobId(101), JobState::kSubmitted);
  wh.set_job_state(JobId(101), JobState::kRunning);
  EXPECT_EQ(wh.outstanding_by_site(), wh.scan_outstanding_by_site());
  EXPECT_EQ(wh.outstanding_on_site(SiteId(4)), 2);

  // Completion and cancellation-to-unplanned both release the slot.
  wh.set_job_state(JobId(101), JobState::kCompleted);
  wh.set_job_state(JobId(201), JobState::kUnplanned);
  EXPECT_EQ(wh.outstanding_by_site(), wh.scan_outstanding_by_site());
  EXPECT_EQ(wh.outstanding_on_site(SiteId(4)), 0);
  // Zero entries are erased, matching the scan map exactly.
  EXPECT_FALSE(wh.outstanding_by_site().contains(SiteId(4)));
  EXPECT_EQ(wh.outstanding_by_site().at(SiteId(5)), 1);
  wh.check_invariants();
}

TEST(Warehouse, RecoveryRebuildsWorkState) {
  DataWarehouse wh;
  // DAG 100: planning, its child waiting on the planned parent.
  wh.insert_dag(two_job_dag(100), "c", UserId(1), 0.0);
  wh.set_dag_state(DagId(100), DagState::kPlanning);
  wh.set_job_planned(JobId(101), SiteId(4), 1.0);
  // DAG 200: planning, fully planned -> idle until something reports.
  wh.insert_dag(two_job_dag(200), "c", UserId(1), 0.0);
  wh.set_dag_state(DagId(200), DagState::kPlanning);
  wh.set_job_planned(JobId(201), SiteId(4), 1.0);
  wh.set_job_planned(JobId(202), SiteId(5), 1.0);
  // DAG 300: freshly received -> work for the reducer.
  wh.insert_dag(two_job_dag(300), "c", UserId(1), 2.0);
  // DAG 400: finished -> never work again.
  wh.insert_dag(two_job_dag(400), "c", UserId(1), 3.0);
  wh.set_job_planned(JobId(401), SiteId(5), 3.0);
  wh.set_job_state(JobId(401), JobState::kCompleted);
  wh.set_job_planned(JobId(402), SiteId(5), 4.0);
  wh.set_job_state(JobId(402), JobState::kCompleted);
  wh.set_dag_finished(DagId(400), 5.0);

  const auto recovered = DataWarehouse::recover_from(wh.journal());
  ASSERT_TRUE(recovered.has_value());
  const DataWarehouse& r = **recovered;
  // Recovery queues exactly the DAGs with pending work, derived from the
  // tables: received 300 is work for the reducer.  100 and 200 are still
  // in the live queue (nothing drained yet), but neither holds a ready
  // job -- 100's child waits on its planned parent, 200 is fully planned
  // -- so no drain would yield them; finished 400 is never work.  The
  // chaos differential oracle depends on this equality.
  const std::vector<DagId> expected{DagId(300)};
  EXPECT_EQ(wh.dirty_dags(), expected);
  EXPECT_EQ(r.dirty_dags(), wh.dirty_dags());
  // Counters equal a from-scratch scan of the recovered jobs table.
  EXPECT_EQ(r.outstanding_by_site(), r.scan_outstanding_by_site());
  EXPECT_EQ(r.outstanding_on_site(SiteId(4)), 2);  // jobs 101, 201
  EXPECT_EQ(r.outstanding_on_site(SiteId(5)), 1);  // job 202
  r.check_invariants();
}

workflow::Dag fan_in_dag() {
  // Jobs 101 and 102 both feed 103.
  workflow::Dag dag(DagId(100), "fan-in");
  for (const std::uint64_t id : {101, 102, 103}) {
    workflow::JobSpec job;
    job.id = JobId(id);
    job.name = "j" + std::to_string(id);
    job.compute_time = 10.0;
    job.output = "lfn://fan-in/" + std::to_string(id);
    dag.add_job(job);
  }
  dag.add_edge(JobId(101), JobId(103));
  dag.add_edge(JobId(102), JobId(103));
  return dag;
}

TEST(Warehouse, DrainSkipsDagsWithoutPendingWork) {
  // Every completion queues its DAG, but only one that readies a child
  // leaves work for the sweep.  The drain yields the DAG exactly then;
  // the other case is invisible to the tables, so recovery could never
  // reproduce it.
  DataWarehouse wh;
  wh.insert_dag(fan_in_dag(), "c", UserId(1), 0.0);
  wh.set_dag_state(DagId(100), DagState::kPlanning);
  ASSERT_EQ(wh.drain_dirty_dags().size(), 1u);  // roots 101, 102 ready
  wh.set_job_planned(JobId(101), SiteId(4), 1.0);
  wh.set_job_planned(JobId(102), SiteId(4), 1.0);

  wh.set_job_state(JobId(101), JobState::kCompleted);  // 103 waits on 102
  EXPECT_TRUE(wh.dirty_dags().empty());
  EXPECT_TRUE(wh.drain_dirty_dags().empty());
  wh.check_invariants();

  wh.set_job_state(JobId(102), JobState::kCompleted);  // readies 103
  EXPECT_EQ(wh.dirty_dags(), std::vector<DagId>{DagId(100)});
  const auto drained = wh.drain_dirty_dags();
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_EQ(drained[0].id, DagId(100));
  EXPECT_EQ(drained[0].state, DagState::kPlanning);
}

TEST(Warehouse, RecoveryQueuesThePendingDags) {
  // "Completed, not yet swept" and "already swept" leave identical
  // tables.  Recovery keeps no record of drains: it queues the DAGs with
  // pending work, and must still agree with the crashed server's next
  // drain on either side of every sweep.
  DataWarehouse wh;
  wh.insert_dag(two_job_dag(100), "c", UserId(1), 0.0);
  wh.set_dag_state(DagId(100), DagState::kPlanning);
  wh.set_job_planned(JobId(101), SiteId(4), 1.0);
  wh.set_job_planned(JobId(102), SiteId(4), 1.0);

  const auto dirty_after_recovery = [&wh] {
    const auto recovered = DataWarehouse::recover_from(wh.journal());
    EXPECT_TRUE(recovered.has_value());
    return (*recovered)->dirty_dags();
  };

  // Sweep boundary: drained, fully planned, nothing to retry -> idle.
  (void)wh.drain_dirty_dags();
  EXPECT_EQ(dirty_after_recovery(), wh.dirty_dags());
  EXPECT_TRUE(wh.dirty_dags().empty());

  // A completion that readies no child (102 is already planned) queues
  // the DAG live, but holds no pending work: neither the crashed server
  // nor the recovered one would sweep it, before or after the drain.
  wh.set_job_state(JobId(101), JobState::kCompleted);
  EXPECT_TRUE(wh.dirty_dags().empty());
  EXPECT_EQ(dirty_after_recovery(), wh.dirty_dags());
  EXPECT_TRUE(wh.drain_dirty_dags().empty());
  EXPECT_EQ(dirty_after_recovery(), wh.dirty_dags());

  // A DAG whose only unplanned job waits on a planned parent holds no
  // ready work either, until the parent's completion readies the child:
  // then it is pending on both sides of a crash, and idle again once the
  // sweep has planned the child.
  wh.insert_dag(two_job_dag(200), "c", UserId(1), 2.0);
  wh.set_dag_state(DagId(200), DagState::kPlanning);
  wh.set_job_planned(JobId(201), SiteId(4), 2.0);
  EXPECT_TRUE(wh.dirty_dags().empty());
  EXPECT_EQ(dirty_after_recovery(), wh.dirty_dags());
  wh.set_job_state(JobId(201), JobState::kCompleted);
  EXPECT_EQ(wh.dirty_dags(), std::vector<DagId>{DagId(200)});
  EXPECT_EQ(dirty_after_recovery(), wh.dirty_dags());
  ASSERT_EQ(wh.drain_dirty_dags().size(), 1u);
  wh.set_job_planned(JobId(202), SiteId(4), 3.0);
  EXPECT_TRUE(wh.dirty_dags().empty());
  EXPECT_EQ(dirty_after_recovery(), wh.dirty_dags());
}

TEST(Warehouse, CheckpointRecoveryPreservesEverything) {
  // The checkpoint + suffix mirror of RecoveryPreservesEverything: half
  // the history lands in the image, half in the journal suffix, and the
  // recovered warehouse must be indistinguishable from a full replay.
  DataWarehouse wh;
  wh.insert_dag(two_job_dag(), "client-x", UserId(3), 5.0);
  wh.set_job_planned(JobId(101), SiteId(2), 8.0);
  wh.record_completion(SiteId(2), 250.0);

  const auto stats = wh.checkpoint(9.0);
  EXPECT_TRUE(stats.truncated);
  EXPECT_GT(stats.compacted_records, 0u);
  EXPECT_TRUE(wh.journal().empty());  // O(state): prefix discarded
  EXPECT_EQ(wh.journal().base_seq(), stats.seq);

  wh.set_job_state(JobId(101), JobState::kRunning);
  wh.record_cancellation(SiteId(9), 900.0);
  wh.set_quota(UserId(3), SiteId(2), "cpu_seconds", 5000.0);
  wh.consume_quota(UserId(3), SiteId(2), "cpu_seconds", 60.0);

  // The compacted journal alone is not recoverable -- it needs its image.
  const auto replay_only = DataWarehouse::recover_from(wh.journal());
  ASSERT_FALSE(replay_only.has_value());
  EXPECT_EQ(replay_only.error().code, "recover_suffix");

  ASSERT_TRUE(wh.checkpoint_image().has_value());
  auto recovered =
      DataWarehouse::recover_from(wh.journal(), wh.checkpoint_image());
  ASSERT_TRUE(recovered.has_value());
  DataWarehouse& r = **recovered;
  EXPECT_EQ(r.dag(DagId(100))->client, "client-x");
  EXPECT_EQ(r.job(JobId(101))->state, JobState::kRunning);
  EXPECT_EQ(r.job(JobId(101))->attempt, 1);
  EXPECT_DOUBLE_EQ(r.site_stats(SiteId(2)).avg_completion, 250.0);
  EXPECT_EQ(r.site_stats(SiteId(9)).cancelled, 1);
  EXPECT_DOUBLE_EQ(r.quota_remaining(UserId(3), SiteId(2), "cpu_seconds"),
                   4940.0);
  EXPECT_EQ(r.outstanding_by_site(), r.scan_outstanding_by_site());
  EXPECT_EQ(r.dirty_dags(), wh.dirty_dags());
  // The recovered journal is the crashed journal, byte for byte -- the
  // recovered server is itself recoverable the same way (chain).
  EXPECT_EQ(r.journal().serialize(), wh.journal().serialize());
  r.record_completion(SiteId(2), 100.0);
  ASSERT_TRUE(r.checkpoint_image().has_value());  // carried across recovery
  auto second = DataWarehouse::recover_from(r.journal(), r.checkpoint_image());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ((*second)->site_stats(SiteId(2)).samples, 2);
  r.check_invariants();
}

TEST(Warehouse, MidCheckpointCrashLeavesJournalRecoverable) {
  // A crash between image publication and journal truncation: the image
  // exists but the journal still holds the full history.  Recovery must
  // skip the already-snapshotted prefix and complete the truncation.
  DataWarehouse wh;
  wh.insert_dag(two_job_dag(), "c", UserId(1), 0.0);
  wh.set_job_planned(JobId(101), SiteId(4), 1.0);

  const auto stats = wh.checkpoint(2.0, [](const CheckpointImage&) {
    return true;  // simulate the kill inside the window
  });
  EXPECT_FALSE(stats.truncated);
  EXPECT_EQ(wh.journal().base_seq(), 0u);  // untruncated
  EXPECT_GT(wh.journal().size(), 0u);

  wh.set_job_state(JobId(101), JobState::kCompleted);  // post-window suffix

  ASSERT_TRUE(wh.checkpoint_image().has_value());
  const auto recovered =
      DataWarehouse::recover_from(wh.journal(), wh.checkpoint_image());
  ASSERT_TRUE(recovered.has_value());
  const DataWarehouse& r = **recovered;
  EXPECT_EQ(r.job(JobId(101))->state, JobState::kCompleted);
  EXPECT_EQ(r.dirty_dags(), wh.dirty_dags());
  // Recovery finished what the crash interrupted: the journal it carries
  // is the compacted suffix, based at the image's sequence.
  EXPECT_EQ(r.journal().base_seq(), wh.checkpoint_image()->seq);
  EXPECT_EQ(r.journal().next_seq(), wh.journal().next_seq());
  r.check_invariants();
}

TEST(Warehouse, CheckpointRecoveryQueuesThePendingDags) {
  // The image carries tables, not a queue: checkpointed recovery derives
  // the pending DAGs from the restored snapshot plus the journal suffix,
  // on whichever side of the checkpoint the completion falls.
  DataWarehouse wh;
  wh.insert_dag(two_job_dag(100), "c", UserId(1), 0.0);
  wh.set_dag_state(DagId(100), DagState::kPlanning);
  wh.set_job_planned(JobId(101), SiteId(4), 1.0);
  (void)wh.drain_dirty_dags();  // swept: the child waits on its parent

  const auto dirty_after_checkpoint_recovery = [&wh] {
    const auto recovered =
        DataWarehouse::recover_from(wh.journal(), wh.checkpoint_image());
    EXPECT_TRUE(recovered.has_value());
    (*recovered)->check_invariants();
    return (*recovered)->dirty_dags();
  };

  // Completion lands *after* the checkpoint: the image says idle, the
  // journal suffix readies the child.
  wh.checkpoint(2.0);
  EXPECT_TRUE(dirty_after_checkpoint_recovery().empty());
  wh.set_job_state(JobId(101), JobState::kCompleted);
  EXPECT_EQ(wh.dirty_dags(), std::vector<DagId>{DagId(100)});
  EXPECT_EQ(dirty_after_checkpoint_recovery(), wh.dirty_dags());

  // Completion precedes the *next* checkpoint: the suffix is empty and
  // the restored tables alone show the ready child.
  wh.checkpoint(3.0);
  EXPECT_TRUE(wh.journal().empty());
  EXPECT_EQ(wh.dirty_dags(), std::vector<DagId>{DagId(100)});
  EXPECT_EQ(dirty_after_checkpoint_recovery(), wh.dirty_dags());

  // Once the sweep has planned the child, a checkpointed recovery lands
  // idle again.
  (void)wh.drain_dirty_dags();
  wh.set_job_planned(JobId(102), SiteId(4), 4.0);
  wh.checkpoint(4.0);
  EXPECT_TRUE(wh.dirty_dags().empty());
  EXPECT_EQ(dirty_after_checkpoint_recovery(), wh.dirty_dags());
}

TEST(Warehouse, UnknownLookupsAreSafe) {
  DataWarehouse wh;
  EXPECT_FALSE(wh.dag(DagId(1)).has_value());
  EXPECT_FALSE(wh.job(JobId(1)).has_value());
  EXPECT_TRUE(wh.jobs_of_dag(DagId(1)).empty());
  EXPECT_EQ(wh.outstanding_on_site(SiteId(1)), 0);
  EXPECT_EQ(wh.site_stats(SiteId(1)).completed, 0);
}

}  // namespace
}  // namespace sphinx::core
