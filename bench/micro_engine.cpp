/// Microbenchmarks for the discrete-event engine: scheduling, firing,
/// cancellation and periodic processes, plus two cases shaped like the
/// simulator's own traffic (message deliveries, cancelled timeouts).

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "sim/engine.hpp"

namespace {

using sphinx::sim::Engine;
using sphinx::sim::EventHandle;

void BM_ScheduleAndFire(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    Engine engine;
    std::size_t fired = 0;
    for (std::size_t i = 0; i < n; ++i) {
      engine.schedule_at(static_cast<double>(i), "e", [&fired] { ++fired; });
    }
    engine.run_until();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ScheduleAndFire)->Range(1 << 10, 1 << 16);

void BM_ScheduleReverseOrder(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    Engine engine;
    for (std::size_t i = n; i > 0; --i) {
      engine.schedule_at(static_cast<double>(i), "e", [] {});
    }
    engine.run_until();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ScheduleReverseOrder)->Range(1 << 10, 1 << 14);

void BM_CancelHalf(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    Engine engine;
    std::vector<EventHandle> handles;
    handles.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      handles.push_back(
          engine.schedule_at(static_cast<double>(i), "e", [] {}));
    }
    for (std::size_t i = 0; i < n; i += 2) engine.cancel(handles[i]);
    engine.run_until();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_CancelHalf)->Range(1 << 10, 1 << 14);

/// A heavy capture: an envelope's worth of strings, as the message bus's
/// deliveries once captured (they now capture the bus and a slot index).
struct DeliveryCapture {
  std::string from = "sphinx-client/tenant-0";
  std::string to = "sphinx-server/tenant-0";
  std::string method = "sphinx_server.report_status";
  std::string payload = std::string(200, 'x');
};

void BM_DeliverySizedCapture(benchmark::State& state) {
  // Every callback owns ~256 bytes of strings and every event carries a
  // label past std::string's 15-character inline buffer, so an engine
  // that copies an event on pop pays for both.
  const auto n = static_cast<std::size_t>(state.range(0));
  const DeliveryCapture envelope;
  const std::string label = "bus:sphinx-client->sphinx-server";
  for (auto _ : state) {
    Engine engine;
    std::size_t bytes = 0;
    for (std::size_t i = 0; i < n; ++i) {
      // Scattered times, so the heap sifts as in-flight deliveries do.
      const auto at = static_cast<double>((i * 7919) % n);
      engine.schedule_at(at, label, [&bytes, env = envelope] {
        bytes += env.payload.size();
      });
    }
    engine.run_until();
    benchmark::DoNotOptimize(bytes);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_DeliverySizedCapture)->Range(1 << 10, 1 << 14);

void BM_TimerCancelledBeforeFiring(benchmark::State& state) {
  // The tracker and RPC timeout pattern: every job arms a timeout far
  // ahead, and its completion, which comes first, cancels it.
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    Engine engine;
    std::size_t timeouts = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const auto at = static_cast<double>(i);
      const EventHandle timeout = engine.schedule_at(
          at + 1200.0, "client:timeout", [&timeouts] { ++timeouts; });
      engine.schedule_at(at + 1.0, "site:complete",
                         [&engine, timeout] { engine.cancel(timeout); });
    }
    engine.run_until();
    benchmark::DoNotOptimize(timeouts);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_TimerCancelledBeforeFiring)->Range(1 << 10, 1 << 14);

void BM_SelfRescheduling(benchmark::State& state) {
  // The dominant pattern in the simulator: an event chain (periodic
  // processes, transfer completions) rescheduling itself.
  for (auto _ : state) {
    Engine engine;
    std::size_t remaining = 10000;
    std::function<void()> chain = [&] {
      if (--remaining > 0) engine.schedule_in(1.0, "chain", chain);
    };
    engine.schedule_in(1.0, "chain", chain);
    engine.run_until();
    benchmark::DoNotOptimize(remaining);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          10000);
}
BENCHMARK(BM_SelfRescheduling);

void BM_PeriodicProcesses(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    Engine engine;
    std::vector<std::unique_ptr<sphinx::sim::PeriodicProcess>> procs;
    std::size_t ticks = 0;
    for (std::size_t i = 0; i < n; ++i) {
      procs.push_back(std::make_unique<sphinx::sim::PeriodicProcess>(
          engine, "tick", 1.0, [&ticks] { ++ticks; },
          static_cast<double>(i) / static_cast<double>(n)));
      procs.back()->start();
    }
    engine.run_until(100.0);
    benchmark::DoNotOptimize(ticks);
  }
}
BENCHMARK(BM_PeriodicProcesses)->Range(8, 128);

}  // namespace
