/// Recovery-path microbenchmarks: full-history journal replay vs
/// checkpoint + suffix restore, at growing journal lengths.
///
/// The workload is completion-heavy on purpose: every record_completion
/// rewrites the same 15 site_stats rows, so the journal grows linearly
/// while the logical state stays O(sites).  That is the regime
/// checkpointing targets -- full replay is O(history), checkpointed
/// recovery is O(state + suffix) -- and the gap (tools/check.sh exports
/// it as BENCH_recovery.json) should widen roughly linearly with the
/// record count.  The reported counters also pin the footprint story:
/// journal_bytes keeps growing without checkpointing while the
/// checkpointed run retains only the post-checkpoint suffix.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>

#include "core/warehouse.hpp"

namespace {

using namespace sphinx;

constexpr int kSites = 15;
constexpr std::size_t kCheckpointEvery = 512;

/// Drives record_completion until the journal holds at least `records`
/// entries.  With `checkpoint_every` > 0, publishes a checkpoint (and
/// compacts the journal) on the same cadence the server's
/// record-triggered policy would.
std::unique_ptr<core::DataWarehouse> build_warehouse(
    std::uint64_t records, std::size_t checkpoint_every) {
  auto warehouse = std::make_unique<core::DataWarehouse>();
  std::uint64_t last_checkpoint = 0;
  while (warehouse->journal().next_seq() < records) {
    for (int site = 1; site <= kSites; ++site) {
      warehouse->record_completion(SiteId(static_cast<std::uint64_t>(site)),
                                   300.0 + site);
    }
    if (checkpoint_every > 0 &&
        warehouse->journal().next_seq() >= last_checkpoint + checkpoint_every) {
      last_checkpoint = warehouse->checkpoint().seq;
    }
  }
  return warehouse;
}

void BM_RecoverFullReplay(benchmark::State& state) {
  const auto records = static_cast<std::uint64_t>(state.range(0));
  const auto warehouse = build_warehouse(records, 0);
  for (auto _ : state) {
    auto recovered = core::DataWarehouse::recover_from(warehouse->journal());
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
  const auto warehouse = build_warehouse(records, kCheckpointEvery);
  const auto& image = warehouse->checkpoint_image();
  for (auto _ : state) {
    auto recovered =
        core::DataWarehouse::recover_from(warehouse->journal(), image);
    benchmark::DoNotOptimize(recovered.has_value());
  }
  state.counters["journal_records"] =
      static_cast<double>(warehouse->journal().size());
  state.counters["journal_bytes"] =
      static_cast<double>(warehouse->journal().size_bytes());
  state.counters["snapshot_bytes"] =
      static_cast<double>(image->database.size());
}
BENCHMARK(BM_RecoverCheckpointed)->Arg(1000)->Arg(10000)->Arg(100000);

/// The checkpoint operation itself (snapshot + truncate), so the
/// recovery win above can be weighed against its steady-state cost.
void BM_CheckpointPublish(benchmark::State& state) {
  const auto warehouse = build_warehouse(2048, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(warehouse->checkpoint().snapshot_bytes);
  }
}
BENCHMARK(BM_CheckpointPublish);

}  // namespace
