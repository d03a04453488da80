/// Microbenchmarks for the table store: inserts, lookups by id and by
/// index, state updates, journal appends and journal replay -- the
/// operations the SPHINX control process performs on every sweep.

#include <benchmark/benchmark.h>
#include <malloc.h>

#include <limits>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/warehouse.hpp"
#include "db/database.hpp"

namespace {

using namespace sphinx;

/// A job-shaped row: an id, an indexed text state, a site and a runtime.
struct JobRow {
  std::int64_t job_id = 0;
  std::string state;
  std::int64_t site = 0;
  double runtime = 0.0;

  static constexpr auto columns() {
    return std::tuple{db::column("job_id", &JobRow::job_id),
                      db::indexed("state", &JobRow::state),
                      db::column("site", &JobRow::site),
                      db::column("runtime", &JobRow::runtime)};
  }
};
using JobTable = db::Table<JobRow>;

void BM_TableInsert(benchmark::State& state) {
  for (auto _ : state) {
    JobTable table("jobs");
    for (std::int64_t i = 0; i < state.range(0); ++i) {
      table.insert({i, "unplanned", i % 16, 60.0});
    }
    benchmark::DoNotOptimize(table.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TableInsert)->Range(256, 4096);

/// Lookup by row id, probing every row in a scattered order.
void BM_TableFindById(benchmark::State& state) {
  JobTable table("jobs");
  std::vector<db::RowId> rows;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    rows.push_back(table.insert({i, "running", i % 16, 60.0}));
  }
  // An odd stride visits every row of a power-of-two table once per lap.
  constexpr std::size_t kStride = 2654435761u;
  std::size_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.find(rows[(k * kStride) % rows.size()]));
    ++k;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TableFindById)->Arg(4096)->Arg(65536);

void BM_IndexedFindBy(benchmark::State& state) {
  JobTable table("jobs");
  for (std::int64_t i = 0; i < 4096; ++i) {
    table.insert({i, i % 7 == 0 ? "ready" : "running", i % 16, 60.0});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.find_by<&JobRow::state>("ready").size());
  }
}
BENCHMARK(BM_IndexedFindBy);

void BM_StateUpdate(benchmark::State& state) {
  JobTable table("jobs");
  std::vector<db::RowId> rows;
  for (std::int64_t i = 0; i < 4096; ++i) {
    rows.push_back(table.insert({i, "a", i % 16, 60.0}));
  }
  std::size_t k = 0;
  for (auto _ : state) {
    table.set<&JobRow::state>(rows[k % rows.size()], k % 2 == 0 ? "b" : "a");
    ++k;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_StateUpdate);

/// Writes to an unindexed column of rows that all share one `state`
/// bucket: the write must not touch the index.
void BM_UpdateUnindexedColumn(benchmark::State& state) {
  JobTable table("jobs");
  std::vector<db::RowId> rows;
  for (std::int64_t i = 0; i < 4096; ++i) {
    rows.push_back(table.insert({i, "running", i % 16, 60.0}));
  }
  std::size_t k = 0;
  for (auto _ : state) {
    table.set<&JobRow::site>(rows[k % rows.size()],
                             static_cast<std::int64_t>(k % 16));
    ++k;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_UpdateUnindexedColumn);

/// kJournalRecords mixed mutations of one table: every fourth record an
/// insert, the rest alternate a state write and a runtime write to an
/// earlier row.
constexpr std::int64_t kJournalRecords = 10000;

void mutate_jobs(JobTable& table) {
  std::vector<db::RowId> rows;
  for (std::int64_t i = 0; i < kJournalRecords; ++i) {
    if (i % 4 == 0) {
      rows.push_back(table.insert({i, "unplanned", i % 16, 60.0 + i}));
    } else if (i % 2 == 0) {
      table.set<&JobRow::state>(rows[static_cast<std::size_t>(i) % rows.size()],
                                i % 3 == 0 ? "running" : "completed");
    } else {
      table.set<&JobRow::runtime>(
          rows[static_cast<std::size_t>(i) % rows.size()],
          0.1 * static_cast<double>(i));
    }
  }
}

/// Appends kJournalRecords records through a Database's mutation hooks.
/// heap_bytes_per_record is the journal's share of the live heap: the
/// mallinfo2 growth of the journaled run minus that of the same mutations
/// on a bare table, per record.
void BM_JournalAppend(benchmark::State& state) {
  const auto heap_growth = [](const auto& run) {
    const std::size_t before = mallinfo2().uordblks;
    const auto kept = run();
    const std::size_t after = mallinfo2().uordblks;
    benchmark::DoNotOptimize(kept.get());
    return static_cast<double>(after) - static_cast<double>(before);
  };
  const double journaled = heap_growth([] {
    auto database = std::make_unique<db::Database>();
    mutate_jobs(database->create_table<JobRow>("jobs"));
    return database;
  });
  const double bare = heap_growth([] {
    auto table = std::make_unique<JobTable>("jobs");
    mutate_jobs(*table);
    return table;
  });
  for (auto _ : state) {
    db::Database database;
    mutate_jobs(database.create_table<JobRow>("jobs"));
    benchmark::DoNotOptimize(database.journal().size());
  }
  state.SetItemsProcessed(state.iterations() * kJournalRecords);
  state.counters["heap_bytes_per_record"] =
      (journaled - bare) / static_cast<double>(kJournalRecords);
}
BENCHMARK(BM_JournalAppend);

/// An insert whose text cell is a 1.8 KB XML payload, as rpc_outbox
/// journals every plan: the cost is escaping the cell into the journal.
void BM_JournalAppendPayload(benchmark::State& state) {
  std::string payload = "<?xml version=\"1.0\"?><methodCall><methodName>"
                        "sphinx_client.execute_plan</methodName><params>";
  while (payload.size() < 1800) {
    payload += "<member><name>lfn</name><value><string>lfn://wire/in-" +
               std::to_string(payload.size()) + "</string></value></member>";
  }
  payload += "</params></methodCall>";
  constexpr std::int64_t kInserts = 256;
  for (auto _ : state) {
    db::Database database;
    auto& table = database.create_table<core::OutboxEntry>("rpc_outbox");
    for (std::int64_t i = 0; i < kInserts; ++i) {
      table.insert({static_cast<std::uint64_t>(i), "sphinx-client/cms",
                    payload, 1, 60.0 * static_cast<double>(i)});
    }
    benchmark::DoNotOptimize(database.journal().size());
  }
  state.SetItemsProcessed(state.iterations() * kInserts);
  state.SetBytesProcessed(state.iterations() * kInserts *
                          static_cast<std::int64_t>(payload.size()));
}
BENCHMARK(BM_JournalAppendPayload);

/// Real cells as fig5 journals and images them: 46% integral (counts,
/// whole-second times), 9% infinite (an unset deadline), the rest
/// fractional at full precision (sim times, EWMAs).
void BM_AppendReal(benchmark::State& state) {
  constexpr std::size_t kValues = 4096;
  std::vector<double> values;
  for (std::size_t i = 0; i < kValues; ++i) {
    const std::size_t kind = i * 37 % 100;  // a fixed shuffle of 0..99
    const auto n = static_cast<double>(i * 7919 % 100000);
    values.push_back(kind < 46   ? n
                     : kind < 55 ? std::numeric_limits<double>::infinity()
                                 : 60.0 + n / 7.0);
  }
  std::string out;
  for (auto _ : state) {
    out.clear();
    for (const double v : values) db::append_real(out, v);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kValues));
}
BENCHMARK(BM_AppendReal);

void BM_JournalReplay(benchmark::State& state) {
  // Build a realistic warehouse journal, then measure recovery.
  core::DataWarehouse warehouse;
  workflow::Dag dag(DagId(1), "bench");
  for (int i = 1; i <= 64; ++i) {
    workflow::JobSpec job;
    job.id = JobId(static_cast<std::uint64_t>(i));
    job.name = "j" + std::to_string(i);
    job.output = "lfn://o" + std::to_string(i);
    dag.add_job(job);
  }
  warehouse.insert_dag(dag, "client", UserId(1), 0.0);
  for (int i = 1; i <= 64; ++i) {
    warehouse.set_job_planned(JobId(static_cast<std::uint64_t>(i)),
                              SiteId(1 + i % 15), 1.0);
    warehouse.set_job_state(JobId(static_cast<std::uint64_t>(i)),
                            core::JobState::kCompleted);
    warehouse.record_completion(SiteId(1 + i % 15), 300.0);
  }
  for (auto _ : state) {
    auto recovered = core::DataWarehouse::recover_from(warehouse.durable());
    benchmark::DoNotOptimize(recovered.has_value());
  }
  state.SetLabel(std::to_string(warehouse.journal().size()) + " records");
}
BENCHMARK(BM_JournalReplay);

void BM_JournalSerializeParse(benchmark::State& state) {
  db::Database database;
  JobTable& table = database.create_table<JobRow>("jobs");
  for (std::int64_t i = 0; i < 512; ++i) {
    table.insert({i, "state-" + std::to_string(i % 5), i % 16, 60.0 + i});
  }
  for (auto _ : state) {
    const std::string text = database.journal().serialize();
    benchmark::DoNotOptimize(db::Journal::parse(text));
  }
}
BENCHMARK(BM_JournalSerializeParse);

}  // namespace
