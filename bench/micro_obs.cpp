/// Microbenchmarks for the flight recorder: recording the two most
/// frequent trace event shapes, rendering a log as JSON Lines, and
/// counting a source-qualified metric.
///
/// BM_TraceRecord records kBatch events per iteration into a fresh
/// recorder, names resolved the way the emitters resolve them:
///  - bus_delivery: sender and recipient endpoints looked up per event
///    (8 endpoints, as a 4-tenant panel has), an empty detail, a latency;
///  - job_transition: a source and "job" resolved once, subject job:<id>
///    with a fresh id per event, detail "queued->planned" joined from its
///    parts per event.
/// heap_bytes_per_event is the live heap (mallinfo2) a recorder holding
/// kBatch events adds over an empty one, per event.

#include <benchmark/benchmark.h>
#include <malloc.h>

#include <array>
#include <cstdint>
#include <memory>
#include <string>

#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"

namespace {

using sphinx::obs::Name;
using sphinx::obs::Recorder;
using sphinx::obs::TraceKind;

constexpr std::size_t kBatch = 4096;

const std::array<std::string, 8> kEndpoints = {
    "sphinx-client/completion-time", "sphinx-server/completion-time",
    "sphinx-client/queue-length",    "sphinx-server/queue-length",
    "sphinx-client/num-cpus",        "sphinx-server/num-cpus",
    "sphinx-client/round-robin",     "sphinx-server/round-robin"};

enum class Shape { kBusDelivery, kJobTransition };

void record_events(Recorder& recorder, Shape shape, std::size_t count) {
  if (shape == Shape::kBusDelivery) {
    for (std::size_t i = 0; i < count; ++i) {
      const std::string& from = kEndpoints[i % kEndpoints.size()];
      const std::string& to = kEndpoints[(i + 1) % kEndpoints.size()];
      recorder.event(TraceKind::kBusDelivery, recorder.name(from),
                     recorder.name(to), {}, 0.05 + 1e-6 * static_cast<double>(i));
    }
    return;
  }
  const Name source = recorder.name(kEndpoints[1]);
  const Name job = recorder.name("job");
  for (std::size_t i = 0; i < count; ++i) {
    recorder.event(TraceKind::kJobTransition, source, {job, 1000 + i},
                   recorder.name("queued", "->", "planned"), 1.0);
  }
}

[[nodiscard]] double live_heap() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd);
}

void BM_TraceRecord(benchmark::State& state, Shape shape) {
  const sphinx::sim::Engine engine;
  {
    const double before = live_heap();
    const auto empty = std::make_unique<Recorder>(engine);
    const double empty_heap = live_heap() - before;
    const auto full = std::make_unique<Recorder>(engine);
    record_events(*full, shape, kBatch);
    const double full_heap = live_heap() - before - empty_heap;
    state.counters["heap_bytes_per_event"] =
        (full_heap - empty_heap) / static_cast<double>(kBatch);
  }
  for (auto _ : state) {
    Recorder recorder(engine);
    record_events(recorder, shape, kBatch);
    benchmark::DoNotOptimize(recorder.trace().size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBatch));
}
BENCHMARK_CAPTURE(BM_TraceRecord, bus_delivery, Shape::kBusDelivery);
BENCHMARK_CAPTURE(BM_TraceRecord, job_transition, Shape::kJobTransition);

/// Renders a 10,000-event log, half of each shape, as JSON Lines.
void BM_TraceJsonl(benchmark::State& state) {
  const sphinx::sim::Engine engine;
  Recorder recorder(engine);
  record_events(recorder, Shape::kBusDelivery, 5000);
  record_events(recorder, Shape::kJobTransition, 5000);
  std::size_t bytes = 0;
  for (auto _ : state) {
    const std::string jsonl = recorder.trace().to_jsonl();
    bytes = jsonl.size();
    benchmark::DoNotOptimize(jsonl.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(recorder.trace().size()));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_TraceJsonl);

/// Increments one source-qualified counter ("server.plans\@<endpoint>"),
/// as the server does per plan.
void BM_RecorderCount(benchmark::State& state) {
  const sphinx::sim::Engine engine;
  Recorder recorder(engine);
  for (auto _ : state) {
    recorder.count(kEndpoints[1], "server.plans");
  }
  benchmark::DoNotOptimize(recorder.counter("server.plans", kEndpoints[1]));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RecorderCount);

}  // namespace
