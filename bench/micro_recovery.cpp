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
#include <optional>

#include "core/warehouse.hpp"

namespace {

using namespace sphinx;

constexpr int kSites = 15;

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
    auto recovered =
        core::DataWarehouse::recover_from(warehouse->journal(), std::nullopt);
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
  const auto warehouse = build_warehouse(2048, false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(warehouse->checkpoint().database.size());
  }
}
BENCHMARK(BM_CheckpointPublish);

}  // namespace
