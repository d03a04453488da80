/// Microbenchmark for the reliable-RPC stack: the end-to-end overhead
/// the retry layer (sequence numbers, timers, outbox hooks) adds on a
/// perfect wire -- the price every fault-free experiment pays for
/// at-least-once delivery -- and the same round trip as a figure tenant
/// makes it, traced.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "obs/recorder.hpp"
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
  policy.allow_vo("uscms");
  return policy;
}

// A typed string echo: its call, params decoder, reply writer and reader.

std::string encode_echo(std::string_view text) {
  rpc::XrWriter out(128);
  out.begin_call("echo");
  out.begin_param();
  out.string_value(text);
  out.end_param();
  out.end_call();
  return std::move(out).take();
}

Expected<std::string> decode_echo(rpc::XrReader& in) {
  int params = 0;
  std::optional<std::string> text;
  if (!in.each_param([&](int) {
        ++params;
        rpc::XrType type;
        if (!in.open(1, type)) return false;
        if (type == rpc::XrType::kString) text.emplace(in.text());
        return in.skip_open(type, 1);
      })) {
    return in.error();
  }
  if (params != 1 || !text) return make_error("bad_request", "expected [text]");
  return std::move(*text);
}

void write_echo(rpc::XrWriter& out, std::string text) {
  out.string_value(text);
}

Expected<std::string> read_echo(rpc::XrReader& in) {
  rpc::XrType type;
  if (!in.open(1, type) || !in.skip_open(type, 1)) return in.error();
  if (type != rpc::XrType::kString) {
    return make_error("codec", "reply is not a string");
  }
  return std::string(in.text());
}

/// One client/service pair on a zero-fault bus; `reliable` toggles the
/// retry machinery off (single attempt) for the A/B comparison.
struct RpcHarness {
  explicit RpcHarness(bool reliable)
      : RpcHarness(reliable, "sphinx-server", "bench-client", bench_proxy()) {}

  RpcHarness(bool reliable, const std::string& server,
             const std::string& caller, rpc::Proxy proxy)
      : service(bus, server, open_policy()),
        client(bus, caller, std::move(proxy), make_retry(reliable)) {
    service.register_method(
        "echo", &decode_echo, &write_echo,
        [](const std::string& text, const rpc::Proxy&) {
          return Expected<std::string>(text);
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

/// Runs `state`'s iterations as calls of `harness`'s echo method at
/// `server`.
void round_trips(benchmark::State& state, RpcHarness& harness,
                 const std::string& server) {
  benchmark::IterationCount completed = 0;
  for (auto _ : state) {
    harness.client.call(server, encode_echo("payload"), &read_echo,
                        [&completed](Expected<std::string> result) {
                          if (result.has_value()) ++completed;
                        });
    harness.engine.run_until();
  }
  if (completed != state.iterations()) state.SkipWithError("lost a call");
  state.SetItemsProcessed(completed);
}

/// Round-trip calls on a perfect wire.  Compare reliable=1 vs reliable=0
/// to read the retry-path overhead at 0% loss straight off the report.
void BM_RpcRoundTrip(benchmark::State& state) {
  RpcHarness harness(state.range(0) == 1);
  round_trips(state, harness, "sphinx-server");
  state.SetLabel(state.range(0) == 1 ? "reliable" : "bare");
}
BENCHMARK(BM_RpcRoundTrip)->Arg(0)->Arg(1);

/// The reliable round trip as a figure tenant makes it: the completion-
/// time tenant's endpoint names (past the 15-character inline buffer),
/// its proxy, and a flight recorder on the bus tracing every delivery,
/// as in every Scenario.
void BM_RpcRoundTripTenant(benchmark::State& state) {
  const std::string server = "sphinx-server/completion-time";
  RpcHarness harness(
      true, server, "sphinx-client/completion-time/out",
      rpc::Proxy(rpc::Identity{"/DC=org/DC=griphyn/CN=user-completion-time"},
                 "uscms", {"/uscms/production"}, 0.0, hours(24 * 365)));
  obs::Recorder recorder(harness.engine);
  harness.bus.set_recorder(&recorder);
  round_trips(state, harness, server);
  harness.bus.set_recorder(nullptr);
}
BENCHMARK(BM_RpcRoundTripTenant);

}  // namespace
