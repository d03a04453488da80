/// Microbenchmark for the reliable-RPC stack: the end-to-end overhead
/// the retry layer (sequence numbers, timers, outbox hooks) adds on a
/// perfect wire -- the price every fault-free experiment pays for
/// at-least-once delivery.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

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
      : service(bus, "sphinx-server", open_policy()),
        client(bus, "bench-client", bench_proxy(), make_retry(reliable)) {
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

/// Round-trip calls on a perfect wire.  Compare reliable=1 vs reliable=0
/// to read the retry-path overhead at 0% loss straight off the report.
void BM_RpcRoundTrip(benchmark::State& state) {
  RpcHarness harness(state.range(0) == 1);
  benchmark::IterationCount completed = 0;
  for (auto _ : state) {
    harness.client.call("sphinx-server", encode_echo("payload"), &read_echo,
                        [&completed](Expected<std::string> result) {
                          if (result.has_value()) ++completed;
                        });
    harness.engine.run_until();
  }
  if (completed != state.iterations()) state.SkipWithError("lost a call");
  state.SetItemsProcessed(completed);
  state.SetLabel(state.range(0) == 1 ? "reliable" : "bare");
}
BENCHMARK(BM_RpcRoundTrip)->Arg(0)->Arg(1);

}  // namespace
