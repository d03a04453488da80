/// Microbenchmark for the reliable-RPC stack: the end-to-end overhead
/// the retry layer (sequence numbers, timers, outbox hooks) adds on a
/// perfect wire -- the price every fault-free experiment pays for
/// at-least-once delivery.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "rpc/clarens.hpp"
#include "rpc/transport.hpp"
#include "sim/engine.hpp"

namespace {

using namespace sphinx;

rpc::Proxy bench_proxy() {
  return rpc::Proxy(
      rpc::Identity{"/DC=org/DC=griphyn/CN=Bench"}, "uscms",
      {"/uscms/production"}, 0.0, hours(24 * 365));
}

rpc::AuthzPolicy open_policy() {
  rpc::AuthzPolicy policy;
  policy.allow_vo("*", "uscms");
  return policy;
}

/// One client/service pair on a zero-fault bus; `reliable` toggles the
/// retry machinery off (single attempt) for the A/B comparison.
struct RpcHarness {
  explicit RpcHarness(bool reliable)
      : service(bus, "sphinx-server", open_policy()),
        client(bus, "bench-client", bench_proxy(), make_retry(reliable)) {
    service.register_method(
        "echo", [](const std::vector<rpc::XrValue>& params, const rpc::Proxy&) {
          return Expected<rpc::XrValue>(rpc::XrValue(params.at(0)));
        });
  }

  static rpc::RetryPolicy make_retry(bool reliable) {
    rpc::RetryPolicy retry;
    if (!reliable) retry.max_attempts = 1;
    return retry;
  }

  sim::Engine engine;
  rpc::MessageBus bus{engine, Rng(1), 0.05, 0.0};
  rpc::ClarensService service;
  rpc::ClarensClient client;
};

/// Round-trip calls on a perfect wire.  Compare reliable=1 vs reliable=0
/// to read the retry-path overhead at 0% loss straight off the report.
void BM_RpcRoundTrip(benchmark::State& state) {
  RpcHarness harness(state.range(0) == 1);
  std::size_t completed = 0;
  for (auto _ : state) {
    harness.client.call("sphinx-server",
                        rpc::MethodCall{"echo", {rpc::XrValue("payload")}}
                            .serialize(),
                        [&completed](Expected<rpc::XrValue> result) {
                          if (result.has_value()) ++completed;
                        });
    harness.engine.run_until();
  }
  if (completed != state.iterations()) state.SkipWithError("lost a call");
  state.SetItemsProcessed(static_cast<std::int64_t>(completed));
  state.SetLabel(state.range(0) == 1 ? "reliable" : "bare");
}
BENCHMARK(BM_RpcRoundTrip)->Arg(0)->Arg(1);

}  // namespace
