/// Recovery-path microbenchmarks: recovery with no image (every journal
/// record replayed onto the empty declared tables) vs checkpoint + suffix
/// restore, at growing journal lengths.
///
/// The workload is completion-heavy on purpose: every record_completion
/// rewrites the same 15 site_stats rows, so the journal grows linearly
/// while the logical state stays O(sites).  That is the regime
/// checkpointing targets -- recovery with no image is O(history),
/// checkpointed recovery is O(state + suffix) -- and the gap
/// (tools/check.sh exports it as BENCH_recovery.json) should widen
/// roughly linearly with the record count.  The checkpointed warehouse
/// follows the server's rule (DataWarehouse::checkpoint_due: an image
/// once the journal holds as many records as the last image holds rows),
/// checked before each round of completions as the server checks at the
/// end of each sweep.  Recovery therefore finds one round (45 records,
/// three column updates per completion) past a 15-row image at every
/// journal length, as a crash just before the next check would:
/// checkpointed recovery costs the same whatever the history.  The
/// reported counters pin the footprint story: journal_bytes keeps growing
/// with no image, while the checkpointed run retains only the
/// post-checkpoint suffix.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "core/warehouse.hpp"
#include "workflow/dag.hpp"

namespace {

using namespace sphinx;

constexpr int kSites = 15;

/// The row lines of an image.
std::size_t image_rows(std::string_view text) {
  std::size_t rows = 0;
  for (std::size_t at = text.find("\nR\t"); at != std::string_view::npos;
       at = text.find("\nR\t", at + 1)) {
    ++rows;
  }
  return rows;
}

/// Drives record_completion until the journal holds at least `records`
/// entries.  With `checkpoint` set, publishes a checkpoint (and compacts
/// the journal) whenever the server's rule says one is due, checked
/// before each round of completions, so the last round is left in the
/// journal as a crash between two sweeps would find it.
std::unique_ptr<core::DataWarehouse> build_warehouse(std::uint64_t records,
                                                     bool checkpoint) {
  auto warehouse = std::make_unique<core::DataWarehouse>();
  while (warehouse->journal().next_seq() < records) {
    if (checkpoint && warehouse->checkpoint_due()) warehouse->checkpoint();
    for (int site = 1; site <= kSites; ++site) {
      warehouse->record_completion(SiteId(static_cast<std::uint64_t>(site)),
                                   300.0 + site);
    }
  }
  return warehouse;
}

void BM_RecoverFullReplay(benchmark::State& state) {
  const auto records = static_cast<std::uint64_t>(state.range(0));
  const auto warehouse = build_warehouse(records, false);
  for (auto _ : state) {
    auto recovered = core::DataWarehouse::recover_from(warehouse->durable());
    benchmark::DoNotOptimize(recovered.has_value());
  }
  state.counters["journal_records"] =
      static_cast<double>(warehouse->journal().size());
  state.counters["journal_bytes"] =
      static_cast<double>(warehouse->journal().size_bytes());
}
BENCHMARK(BM_RecoverFullReplay)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_RecoverCheckpointed(benchmark::State& state) {
  const auto records = static_cast<std::uint64_t>(state.range(0));
  const auto warehouse = build_warehouse(records, true);
  for (auto _ : state) {
    auto recovered = core::DataWarehouse::recover_from(warehouse->durable());
    benchmark::DoNotOptimize(recovered.has_value());
  }
  state.counters["journal_records"] =
      static_cast<double>(warehouse->journal().size());
  state.counters["journal_bytes"] =
      static_cast<double>(warehouse->journal().size_bytes());
  state.counters["snapshot_bytes"] =
      static_cast<double>(warehouse->durable().image->size());
}
BENCHMARK(BM_RecoverCheckpointed)->Arg(1000)->Arg(10000)->Arg(100000);

/// The checkpoint operation itself (image + truncate), so the
/// recovery win above can be weighed against its steady-state cost.
/// Nothing is written between two images, so every row's line is
/// copied from the last one.
void BM_CheckpointPublish(benchmark::State& state) {
  const auto warehouse = build_warehouse(2048, false);
  for (auto _ : state) {
    warehouse->checkpoint();
    benchmark::DoNotOptimize(warehouse->durable().image->size());
  }
}
BENCHMARK(BM_CheckpointPublish);

/// One fig5 server's warehouse: 120 ten-job DAGs (each job reading its
/// predecessor's output), 100 of them finished, and a sweep's worth of
/// writes at a time on the 20 live ones.
class Fig5Server {
 public:
  static constexpr int kDags = 120;
  static constexpr int kLiveDags = 20;
  static constexpr int kJobs = 10;

  Fig5Server() {
    // The XML of one execute_plan call, as rpc_outbox journals it.
    payload_ = "<?xml version=\"1.0\"?><methodCall><methodName>"
               "sphinx_client.execute_plan</methodName><params>";
    while (payload_.size() < 1800) {
      payload_ += "<member><name>lfn</name><value><string>lfn://wire/in-" +
                  std::to_string(payload_.size()) +
                  "</string></value></member>";
    }
    payload_ += "</params></methodCall>";
    for (int d = 0; d < kDags; ++d) {
      insert(d);
      if (d >= kLiveDags) finish(d);
      checkpoint_if_due();
    }
  }

  core::DataWarehouse& warehouse() { return warehouse_; }

  /// One sweep's writes: a job of each live DAG moves one step along
  /// planned, submitted, running, cancelled and back to unplanned; a
  /// plan enters the outbox and the one sent eight sweeps ago leaves it;
  /// a site's completion statistics change.
  void sweep() {
    const double now = 1e5 + static_cast<double>(sweeps_);
    for (int d = 0; d < kLiveDags; ++d) {
      const JobId id = job_id(d, static_cast<int>(sweeps_ % kJobs));
      const SiteId site(1 + (sweeps_ + static_cast<std::uint64_t>(d)) % kSites);
      switch (warehouse_.job(id)->state) {
        case core::JobState::kUnplanned:
          warehouse_.set_job_planned(id, site, now);
          break;
        case core::JobState::kPlanned:
          warehouse_.set_job_state(id, core::JobState::kSubmitted);
          break;
        case core::JobState::kSubmitted:
          warehouse_.set_job_state(id, core::JobState::kRunning);
          break;
        case core::JobState::kRunning:
          warehouse_.set_job_state(id, core::JobState::kCancelled);
          break;
        default:
          warehouse_.set_job_state(id, core::JobState::kUnplanned);
          break;
      }
    }
    warehouse_.outbox_upsert(sweeps_, "sphinx-client/cms", payload_, 1, now);
    if (sweeps_ >= 8) warehouse_.outbox_erase(sweeps_ - 8);
    warehouse_.record_completion(SiteId(1 + sweeps_ % kSites),
                                 300.0 + static_cast<double>(sweeps_ % 7));
    ++sweeps_;
  }

 private:
  static JobId job_id(int dag, int job) {
    return JobId(static_cast<std::uint64_t>(1000 + dag * 100 + job));
  }

  void insert(int d) {
    workflow::Dag dag(DagId(static_cast<std::uint64_t>(1000 + d * 100)),
                      "dag" + std::to_string(d));
    for (int j = 0; j < kJobs; ++j) {
      workflow::JobSpec job;
      job.id = job_id(d, j);
      job.name = "job" + std::to_string(j);
      job.compute_time = 300.0 + j;
      job.output = "lfn://cms/dag" + std::to_string(d) + "/out" +
                   std::to_string(j) + ".root";
      job.output_bytes = 1e8;
      if (j > 0) {
        job.inputs.push_back("lfn://cms/dag" + std::to_string(d) + "/out" +
                             std::to_string(j - 1) + ".root");
      }
      dag.add_job(job);
      if (j > 0) dag.add_edge(job_id(d, j - 1), job_id(d, j));
    }
    warehouse_.insert_dag(dag, "sphinx-client/cms", UserId(1),
                          15.0 * static_cast<double>(d));
  }

  void finish(int d) {
    const DagId dag(static_cast<std::uint64_t>(1000 + d * 100));
    warehouse_.set_dag_state(dag, core::DagState::kPlanning);
    for (int j = 0; j < kJobs; ++j) {
      const SiteId site(1 + static_cast<std::uint64_t>(d + j) % kSites);
      const double at = 15.0 * static_cast<double>(d) + 400.0 * j;
      warehouse_.set_job_planned(job_id(d, j), site, at);
      warehouse_.set_job_state(job_id(d, j), core::JobState::kSubmitted);
      warehouse_.set_job_state(job_id(d, j), core::JobState::kRunning);
      warehouse_.set_job_state(job_id(d, j), core::JobState::kCompleted);
      warehouse_.record_completion(site, 350.0 + j);
      checkpoint_if_due();
    }
    warehouse_.set_dag_finished(dag, 15.0 * static_cast<double>(d) + 4000.0);
  }

  void checkpoint_if_due() {
    if (warehouse_.checkpoint_due()) warehouse_.checkpoint();
  }

  core::DataWarehouse warehouse_;
  std::string payload_;
  std::uint64_t sweeps_ = 0;
};

/// The images a fig5 server publishes: sweeps run untimed until the
/// server's rule calls for an image (DataWarehouse::checkpoint_due), and
/// the checkpoint that follows is the timed part.  image_rows and
/// image_bytes describe the last image taken.
void BM_CheckpointImage(benchmark::State& state) {
  Fig5Server server;
  core::DataWarehouse& warehouse = server.warehouse();
  for (auto _ : state) {
    state.PauseTiming();
    do {
      server.sweep();
    } while (!warehouse.checkpoint_due());
    state.ResumeTiming();
    warehouse.checkpoint();
    benchmark::DoNotOptimize(warehouse.durable().image->size());
  }
  const std::string_view text = *warehouse.durable().image;
  state.counters["image_rows"] = static_cast<double>(image_rows(text));
  state.counters["image_bytes"] = static_cast<double>(text.size());
}
BENCHMARK(BM_CheckpointImage);

}  // namespace
