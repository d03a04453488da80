// Negative tests for the runtime contracts layer (common/contracts.hpp).
// Each case corrupts state that the public API can no longer reach --
// through a test-only Inspector friend, some by writing semantically
// invalid (but well-typed) values straight into the warehouse tables --
// and checks that the matching check_invariants() sweep or precondition
// throws ContractViolation.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "common/contracts.hpp"
#include "core/state.hpp"
#include "core/warehouse.hpp"
#include "db/database.hpp"
#include "sim/engine.hpp"
#include "warehouse_reference.hpp"
#include "workflow/dag.hpp"

namespace sphinx::sim {

/// Test-only back door: the public Engine API cannot produce a
/// non-monotonic clock, a slot both queued and free or a drifted
/// cancelled count, so the negative tests reach in directly.
struct EngineInspector {
  static void warp_clock(Engine& engine, SimTime t) { engine.now_ = t; }
  /// The engine must have a queued event.
  static void free_queued_slot(Engine& engine) {
    engine.free_.push_back(engine.heap_.front().slot);
  }
  static void miscount_cancelled(Engine& engine) { ++engine.cancelled_; }
};

}  // namespace sphinx::sim

namespace sphinx::db {

/// Test-only back door into the table store.
struct TableInspector {
  /// Column 0 must be indexed and the table non-empty.
  template <typename Row>
  static void add_phantom_index_entry(Table<Row>& table) {
    std::get<0>(table.indexes_).begin()->second.push_back(RowId{9999});
  }
};

/// Test-only back door into the journal.
struct DatabaseInspector {
  static void append_foreign_journal_entry(Database& db) {
    db.durable_.journal.append_erase("no_such_table", 1);
  }
};

}  // namespace sphinx::db

namespace sphinx::core {

namespace {

workflow::Dag one_job_dag(std::uint64_t base = 100) {
  workflow::Dag dag(DagId(base), "contract-dag");
  workflow::JobSpec spec;
  spec.id = JobId(base + 1);
  spec.name = "only";
  spec.compute_time = 30.0;
  spec.output = "lfn://out";
  spec.output_bytes = 1e6;
  dag.add_job(spec);
  return dag;
}

#if SPHINX_CONTRACTS_ENABLED

// --- sim: event queue monotonicity --------------------------------------

TEST(Contracts, EngineDetectsNonMonotonicClock) {
  sim::Engine engine;
  engine.schedule_at(100.0, "late", [] {});
  EXPECT_NO_THROW(engine.check_invariants());
  sim::EngineInspector::warp_clock(engine, 200.0);
  EXPECT_THROW(engine.check_invariants(), ContractViolation);
}

TEST(Contracts, EngineDetectsQueuedSlotOnFreeList) {
  sim::Engine engine;
  engine.schedule_at(5.0, "ev", [] {});
  sim::EngineInspector::free_queued_slot(engine);
  EXPECT_THROW(engine.check_invariants(), ContractViolation);
}

TEST(Contracts, EngineDetectsCancelledCountDrift) {
  sim::Engine engine;
  engine.schedule_at(5.0, "ev", [] {});
  EXPECT_NO_THROW(engine.check_invariants());
  sim::EngineInspector::miscount_cancelled(engine);
  EXPECT_THROW(engine.check_invariants(), ContractViolation);
}

TEST(Contracts, EngineRejectsBadScheduleArguments) {
  sim::Engine engine;
  EXPECT_THROW(engine.schedule_at(1.0, "null-cb", nullptr),
               ContractViolation);
  EXPECT_THROW(engine.schedule_at(std::numeric_limits<double>::quiet_NaN(),
                                  "nan-time", [] {}),
               ContractViolation);
}

TEST(Contracts, PeriodicProcessRejectsDegenerateConfig) {
  sim::Engine engine;
  EXPECT_THROW(sim::PeriodicProcess(engine, "p", 0.0, [] {}),
               ContractViolation);
  EXPECT_THROW(sim::PeriodicProcess(engine, "p", 1.0, nullptr),
               ContractViolation);
}

// --- core: job state machine legality -----------------------------------

TEST(Contracts, JobStateMachineRejectsResurrection) {
  DataWarehouse wh;
  wh.insert_dag(one_job_dag(), "c", UserId(1), 0.0);
  wh.set_job_state(JobId(101), JobState::kCompleted);  // DAG-reduction path
  EXPECT_THROW(wh.set_job_state(JobId(101), JobState::kRunning),
               ContractViolation);
}

TEST(Contracts, JobStateMachineAllowsWithdrawal) {
  DataWarehouse wh;
  wh.insert_dag(one_job_dag(), "c", UserId(1), 0.0);
  wh.set_job_planned(JobId(101), SiteId(3), 1.0);
  EXPECT_NO_THROW(wh.set_job_state(JobId(101), JobState::kUnplanned));
}

TEST(Contracts, DagAutomatonOnlyMovesForward) {
  DataWarehouse wh;
  wh.insert_dag(one_job_dag(), "c", UserId(1), 0.0);
  wh.set_dag_state(DagId(100), DagState::kPlanning);
  EXPECT_THROW(wh.set_dag_state(DagId(100), DagState::kReceived),
               ContractViolation);
}

TEST(Contracts, DagCannotFinishBeforeItWasReceived) {
  DataWarehouse wh;
  wh.insert_dag(one_job_dag(), "c", UserId(1), 100.0);
  EXPECT_THROW(wh.set_dag_finished(DagId(100), 50.0), ContractViolation);
}

// --- core: warehouse sweeps over corrupted rows -------------------------

TEST(Contracts, WarehouseDetectsJobCountDrift) {
  DataWarehouse wh;
  wh.insert_dag(one_job_dag(), "c", UserId(1), 0.0);
  db::Table<JobRecord>& jobs = WarehouseInspector::jobs(wh);
  const db::RowId row = jobs.first<&JobRecord::id>(JobId(101));
  ASSERT_NE(row, db::kInvalidRow);
  jobs.erase(row);
  EXPECT_THROW(wh.check_invariants(), ContractViolation);
}

TEST(Contracts, WarehouseDetectsNegativeSiteStats) {
  DataWarehouse wh;
  wh.record_completion(SiteId(7), 12.0);
  EXPECT_NO_THROW(wh.check_invariants());
  db::Table<SiteStats>& stats = WarehouseInspector::site_stats(wh);
  const db::RowId row = stats.first<&SiteStats::site>(SiteId(7));
  ASSERT_NE(row, db::kInvalidRow);
  stats.set<&SiteStats::completed>(row, -1);
  EXPECT_THROW(wh.check_invariants(), ContractViolation);
}

TEST(Contracts, WarehouseDetectsNegativeQuotaUsage) {
  DataWarehouse wh;
  wh.set_quota(UserId(1), SiteId(2), "cpu", 10.0);
  wh.consume_quota(UserId(1), SiteId(2), "cpu", 4.0);
  EXPECT_NO_THROW(wh.check_invariants());
  WarehouseInspector::set_quota_used(wh, UserId(1), -1.0);
  EXPECT_THROW(wh.check_invariants(), ContractViolation);
}

TEST(Contracts, WarehouseDetectsUnqueuedPendingDag) {
  DataWarehouse wh;
  wh.insert_dag(one_job_dag(), "c", UserId(1), 0.0);
  EXPECT_NO_THROW(wh.check_invariants());
  // A drain with no sweep after it leaves the received DAG pending but
  // unqueued: no later sweep would ever reduce it.
  ASSERT_EQ(wh.drain_dirty_dags().size(), 1u);
  EXPECT_THROW(wh.check_invariants(), ContractViolation);
}

TEST(Contracts, QuotaApiRejectsNegativeAmounts) {
  DataWarehouse wh;
  wh.set_quota(UserId(1), SiteId(2), "cpu", 10.0);
  EXPECT_THROW(wh.consume_quota(UserId(1), SiteId(2), "cpu", -4.0),
               ContractViolation);
  EXPECT_THROW(wh.refund_quota(UserId(1), SiteId(2), "cpu", -4.0),
               ContractViolation);
}

TEST(Contracts, RecordCompletionRejectsAbsurdDurations) {
  DataWarehouse wh;
  EXPECT_THROW(wh.record_completion(SiteId(1), -5.0), ContractViolation);
  EXPECT_THROW(
      wh.record_completion(SiteId(1),
                           std::numeric_limits<double>::quiet_NaN()),
      ContractViolation);
}

// --- db: table / journal consistency ------------------------------------

/// A one-column row whose column carries an index.
struct Key {
  std::int64_t a = 0;

  static constexpr auto columns() {
    return std::tuple{db::indexed("a", &Key::a)};
  }
};

TEST(Contracts, TableDetectsIndexNamingMissingRow) {
  db::Database db;
  db::Table<Key>& table = db.create_table<Key>("t");
  table.insert({1});
  EXPECT_NO_THROW(db.check_invariants());
  db::TableInspector::add_phantom_index_entry(table);
  EXPECT_THROW(db.check_invariants(), ContractViolation);
}

TEST(Contracts, DatabaseDetectsForeignJournalEntry) {
  db::Database db;
  db.create_table<Key>("t");
  EXPECT_NO_THROW(db.check_invariants());
  db::DatabaseInspector::append_foreign_journal_entry(db);
  EXPECT_THROW(db.check_invariants(), ContractViolation);
}

// --- positive: honest workloads sail through the sweeps -----------------

TEST(Contracts, HealthyWarehousePassesAllSweeps) {
  DataWarehouse wh;
  wh.insert_dag(one_job_dag(), "c", UserId(1), 0.0);
  wh.set_dag_state(DagId(100), DagState::kPlanning);
  wh.set_job_planned(JobId(101), SiteId(3), 1.0);
  wh.set_job_state(JobId(101), JobState::kSubmitted);
  wh.set_job_state(JobId(101), JobState::kRunning);
  wh.set_job_state(JobId(101), JobState::kCompleted);
  wh.record_completion(SiteId(3), 29.0);
  wh.set_dag_finished(DagId(100), 31.0);
  EXPECT_NO_THROW(wh.check_invariants());
}

TEST(Contracts, ViolationIsAnAssertionError) {
  // Callers that already catch AssertionError keep working.
  try {
    SPHINX_INVARIANT(false, "deliberate");
    FAIL() << "invariant did not fire";
  } catch (const AssertionError& e) {
    EXPECT_NE(std::string(e.what()).find("deliberate"), std::string::npos);
  }
}

#else  // contracts compiled out

TEST(Contracts, DisabledContractsAreFreeAndSilent) {
  sim::Engine engine;
  engine.schedule_at(100.0, "late", [] {});
  sim::EngineInspector::warp_clock(engine, 200.0);
  EXPECT_NO_THROW(engine.check_invariants());
}

#endif  // SPHINX_CONTRACTS_ENABLED

}  // namespace
}  // namespace sphinx::core
