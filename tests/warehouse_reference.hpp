#pragma once
/// \file warehouse_reference.hpp
/// The warehouse reads as they were before they borrowed rows, kept as
/// the tests' reference: ready_jobs (one pass copying the DAG's
/// unplanned rows, each job's parent list tested against a sorted vector
/// of the DAG's completed ids), the pending-work test and the drain built
/// on it, and the server's DAG-finished check (a copy of the DAG row,
/// then of every job row).  Each is a copy of that code, changed only to
/// reach the private tables through WarehouseInspector.  Driven through
/// one seeded run of legal transitions next to the borrowed reads, every
/// ready set, pending flag, drain and finish decision must match.

#include <algorithm>
#include <optional>
#include <set>
#include <vector>

#include "core/warehouse.hpp"

namespace sphinx::core {

/// The tests' back door into the warehouse's private state: fault
/// injection, and the reference reads below.
struct WarehouseInspector {
  static db::Table<JobRecord>& jobs(DataWarehouse& wh) { return wh.jobs_; }
  static db::Table<SiteStats>& site_stats(DataWarehouse& wh) {
    return wh.site_stats_;
  }
  /// Overwrites the usage of the user's first quota row.
  static void set_quota_used(DataWarehouse& wh, UserId user, double used) {
    auto& quotas = wh.quotas_;
    quotas.set<&DataWarehouse::Quota::used>(
        quotas.first<&DataWarehouse::Quota::user>(user), used);
  }

  /// The borrowed pending-work test, for comparison with the reference.
  static bool has_pending_work(const DataWarehouse& wh, const DagRecord& dag) {
    return wh.has_pending_work(dag);
  }

  // --- read access for the reference ---------------------------------------

  static const db::Table<DagRecord>& dags(const DataWarehouse& wh) {
    return wh.dags_;
  }
  static const db::Table<JobRecord>& jobs(const DataWarehouse& wh) {
    return wh.jobs_;
  }
  static const std::set<db::RowId>& dirty_rows(const DataWarehouse& wh) {
    return wh.dirty_rows_;
  }
  /// fn(tables...) over every table, in creation order: the image
  /// reference's view of the store (tests/image_reference.hpp).
  template <typename Fn>
  static auto with_tables(const DataWarehouse& wh, const Fn& fn) {
    return fn(wh.dags_, wh.jobs_, wh.job_inputs_, wh.job_deps_,
              wh.site_stats_, wh.quotas_, wh.scheduler_state_, wh.rpc_outbox_,
              wh.speculations_, wh.runtime_samples_);
  }

  /// DataWarehouse::job_parents as it was (its row type is private).
  static std::vector<JobId> job_parents(const DataWarehouse& wh, JobId id) {
    std::vector<JobId> out;
    for (const db::RowId row :
         wh.job_deps_.find_by<&DataWarehouse::JobDep::job>(id)) {
      out.push_back(wh.job_deps_.find(row)->parent);
    }
    return out;
  }
};

}  // namespace sphinx::core

namespace sphinx::warehouse_reference {

using core::DagRecord;
using core::DagState;
using core::DataWarehouse;
using core::JobRecord;
using core::JobState;
using core::WarehouseInspector;

/// DataWarehouse::dag as it was: a copy of the row.
inline std::optional<DagRecord> dag(const DataWarehouse& wh, DagId id) {
  const auto& dags = WarehouseInspector::dags(wh);
  const DagRecord* row = dags.find(dags.first<&DagRecord::id>(id));
  if (row == nullptr) return std::nullopt;
  return *row;
}

/// DataWarehouse::jobs_of_dag as it was: a copy of each row.
inline std::vector<JobRecord> jobs_of_dag(const DataWarehouse& wh, DagId id) {
  const auto& jobs = WarehouseInspector::jobs(wh);
  std::vector<JobRecord> out;
  for (const db::RowId row : jobs.find_by<&JobRecord::dag>(id)) {
    out.push_back(*jobs.find(row));
  }
  return out;
}

/// DataWarehouse::ready_jobs as it was.
inline std::vector<JobRecord> ready_jobs(const DataWarehouse& wh, DagId dag) {
  const auto& jobs = WarehouseInspector::jobs(wh);
  // One pass over the DAG's rows: completed ids for the parent test, and
  // the unplanned rows as candidates.
  std::vector<JobId> completed;
  std::vector<JobRecord> unplanned;
  for (const db::RowId id : jobs.find_by<&JobRecord::dag>(dag)) {
    const JobRecord& job = *jobs.find(id);
    if (job.state == JobState::kCompleted) {
      completed.push_back(job.id);
    } else if (job.state == JobState::kUnplanned) {
      unplanned.push_back(job);
    }
  }
  std::sort(completed.begin(), completed.end());
  std::erase_if(unplanned, [&](const JobRecord& job) {
    const std::vector<JobId> parents =
        WarehouseInspector::job_parents(wh, job.id);
    return !std::all_of(parents.begin(), parents.end(), [&](JobId parent) {
      return std::binary_search(completed.begin(), completed.end(), parent);
    });
  });
  return unplanned;
}

/// DataWarehouse::has_pending_work as it was.
inline bool has_pending_work(const DataWarehouse& wh, const DagRecord& dag) {
  switch (dag.state) {
    case DagState::kReceived:
    case DagState::kReduced:
      return true;
    case DagState::kPlanning:
      return !ready_jobs(wh, dag.id).empty();
    case DagState::kFinished:
      return false;
  }
  return false;
}

/// DataWarehouse::queued_pending_dags as it was: what a drain yielded,
/// the queued DAGs with pending work as copied records, in table order.
inline std::vector<DagRecord> queued_pending_dags(const DataWarehouse& wh) {
  const auto& dags = WarehouseInspector::dags(wh);
  std::vector<DagRecord> out;
  for (const db::RowId row_id : WarehouseInspector::dirty_rows(wh)) {
    const DagRecord* dag = dags.find(row_id);
    if (dag != nullptr && has_pending_work(wh, *dag)) out.push_back(*dag);
  }
  return out;
}

/// SphinxServer::maybe_finish_dag's decision as it was: the DAG is
/// stored and unfinished, and a copy of every one of its job rows reads
/// completed.
inline bool finishes(const DataWarehouse& wh, DagId dag_id) {
  const auto dag = warehouse_reference::dag(wh, dag_id);
  if (!dag.has_value() || dag->state == DagState::kFinished) return false;
  const auto jobs = jobs_of_dag(wh, dag_id);
  return std::all_of(jobs.begin(), jobs.end(), [](const JobRecord& job) {
    return job.state == JobState::kCompleted;
  });
}

}  // namespace sphinx::warehouse_reference
