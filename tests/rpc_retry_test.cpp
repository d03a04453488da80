// End-to-end at-least-once RPC tests: client retry/backoff across loss
// windows, duplicate-reply correlation and durable outbox restore after
// a client teardown.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/recorder.hpp"
#include "rpc/clarens.hpp"
#include "rpc/transport.hpp"
#include "sim/engine.hpp"
#include "wire_reference.hpp"

namespace sphinx::rpc {
namespace {

using tree::MethodCall;
using tree::MethodResponse;
using tree::XrValue;

Identity user_identity() {
  return Identity{"/DC=org/DC=griphyn/CN=Production Manager"};
}

Proxy user_proxy(SimTime now = 0.0, Duration lifetime = hours(48)) {
  return Proxy(user_identity(), "uscms", {"/uscms/production"}, now, lifetime);
}

class RetryFixture : public ::testing::Test {
 protected:
  RetryFixture() : service(bus, "sphinx-server", make_policy()) {
    bus.set_recorder(&recorder);
    service.register_method(
        "bump", &tree::any_params, &tree::write_tree,
        [this](const std::vector<XrValue>&, const Proxy&) {
          ++bumps;
          return Expected<XrValue>(XrValue(static_cast<std::int64_t>(bumps)));
        });
  }

  static AuthzPolicy make_policy() {
    AuthzPolicy policy;
    policy.allow_vo("uscms");
    return policy;
  }

  /// Loses every message on every link while start <= now < end.
  void lose_all_during(SimTime start, SimTime end) {
    NetworkFaultConfig config;
    LinkFaultRule rule;
    rule.loss = 1.0;
    rule.start = start;
    rule.end = end;
    config.rules.push_back(rule);
    bus.set_fault_model(config, Rng(5));
  }

  sim::Engine engine;
  obs::Recorder recorder{engine};
  MessageBus bus{engine, Rng(2), 0.05, 0.0};
  ClarensService service;
  std::size_t bumps = 0;
  const std::string bump = MethodCall{"bump", {}}.serialize();
};

TEST_F(RetryFixture, RetransmitsAcrossLossWindowAndCompletesOnce) {
  lose_all_during(0.0, 12.0);  // swallows the first two transmissions
  ClarensClient client(bus, "client-1", user_proxy());
  std::size_t callbacks = 0;
  std::int64_t got = 0;
  client.call("sphinx-server", bump, &tree::any_reply,
              [&](Expected<XrValue> result) {
                ++callbacks;
                ASSERT_TRUE(result.has_value());
                got = result->as_int();
              });
  engine.run_until();
  EXPECT_EQ(callbacks, 1u);
  EXPECT_EQ(got, 1);
  EXPECT_EQ(bumps, 1u);
  EXPECT_EQ(client.pending(), 0u);
  EXPECT_GE(recorder.counter("bus.lost", "bus"), 2u);
}

TEST_F(RetryFixture, ExhaustsRetryBudgetWithTimeoutError) {
  lose_all_during(0.0, kNever);  // the wire never heals
  RetryPolicy retry;
  retry.timeout = 1.0;
  retry.max_timeout = 2.0;
  retry.max_attempts = 3;
  ClarensClient client(bus, "client-1", user_proxy(), retry);
  std::size_t callbacks = 0;
  std::string code;
  client.call("sphinx-server", bump, &tree::any_reply,
              [&](Expected<XrValue> result) {
                ++callbacks;
                ASSERT_FALSE(result.has_value());
                code = result.error().code;
              });
  engine.run_until();
  EXPECT_EQ(callbacks, 1u);
  EXPECT_EQ(code, "rpc_timeout");
  EXPECT_EQ(recorder.counter("bus.lost", "bus"), 3u);  // attempts 1 to 3
  EXPECT_EQ(bumps, 0u);
  EXPECT_EQ(client.pending(), 0u);
}

TEST_F(RetryFixture, BackoffIsCappedExponentialWithBoundedJitter) {
  lose_all_during(0.0, kNever);
  RetryPolicy retry;  // 5, 10, 20, 30, 30, ... (+/- 10% jitter)
  retry.max_attempts = 5;
  ClarensClient client(bus, "client-1", user_proxy(), retry);
  client.call("sphinx-server", bump, &tree::any_reply,
              [](Expected<XrValue>) {});
  engine.run_until();
  // Every transmission is lost, and the bus traces each loss at its send
  // time.
  std::vector<SimTime> send_times;
  for (const obs::TraceView& event : recorder.trace().events()) {
    if (event.kind == obs::TraceKind::kBusLoss) send_times.push_back(event.at);
  }
  ASSERT_EQ(send_times.size(), 5u);
  for (std::size_t i = 1; i < send_times.size(); ++i) {
    const Duration gap = send_times[i] - send_times[i - 1];
    EXPECT_GE(gap, 5.0 * 0.9 - 1e-9);   // never faster than jittered minimum
    EXPECT_LE(gap, 30.0 * 1.1 + 1e-9);  // never slower than the cap
  }
}

TEST_F(RetryFixture, DuplicateReplyInvokesCallbackOnce) {
  // A raw endpoint that answers every request twice -- the regression
  // case for response correlation under a duplicating wire.
  const EndpointId server = bus.endpoint("sphinx-server");
  bus.unregister_endpoint(server);
  bus.register_endpoint(server, [this](const Envelope& request) {
    const std::string body =
        MethodResponse::success(XrValue(std::int64_t{7})).serialize();
    bus.reply(request, body);
    bus.reply(request, body);
  });
  ClarensClient client(bus, "client-1", user_proxy());
  std::size_t callbacks = 0;
  client.call("sphinx-server", bump, &tree::any_reply,
              [&](Expected<XrValue> result) {
                ++callbacks;
                EXPECT_TRUE(result.has_value());
              });
  engine.run_until();
  EXPECT_EQ(callbacks, 1u);
  // Both replies reached the client; it dropped the second.
  std::size_t replies = 0;
  for (const obs::TraceView& event : recorder.trace().events()) {
    if (event.kind == obs::TraceKind::kBusDelivery &&
        event.subject == "client-1") {
      ++replies;
    }
  }
  EXPECT_EQ(replies, 2u);
}

// A torn-down client whose in-flight calls were mirrored to a durable
// outbox can be rebuilt: restore_call() re-arms the retry timer without
// resending, and the call still completes effectively-once.
TEST_F(RetryFixture, OutboxRestoreResumesInFlightCall) {
  lose_all_during(0.0, 8.0);  // first transmission is lost
  struct OutboxRow {
    std::string service;
    std::string payload;
    int attempt = 0;
    SimTime last_sent_at = 0.0;
  };
  std::map<std::uint64_t, OutboxRow> outbox;
  std::uint64_t last_seq = 0;

  auto first = std::make_unique<ClarensClient>(bus, "client-1", user_proxy());
  first->set_outbox(
      [&](std::uint64_t seq, const std::string& svc, const std::string& body,
          int attempt, SimTime sent_at) {
        outbox[seq] = OutboxRow{svc, body, attempt, sent_at};
        last_seq = std::max(last_seq, seq);
      },
      [&](std::uint64_t seq) { outbox.erase(seq); });
  bool first_callback = false;
  first->call("sphinx-server", bump, &tree::any_reply,
              [&](Expected<XrValue>) { first_callback = true; });
  engine.run_until(1.0);  // transmission sent (and lost); timer pending
  ASSERT_EQ(outbox.size(), 1u);
  EXPECT_EQ(outbox.begin()->second.attempt, 1);
  first.reset();  // crash stand-in: timers cancelled, outbox survives

  ClarensClient second(bus, "client-1", user_proxy());
  second.set_next_seq(last_seq + 1);
  second.set_outbox(
      [&](std::uint64_t seq, const std::string& svc, const std::string& body,
          int attempt, SimTime sent_at) {
        outbox[seq] = OutboxRow{svc, body, attempt, sent_at};
      },
      [&](std::uint64_t seq) { outbox.erase(seq); });
  std::size_t callbacks = 0;
  for (const auto& [seq, row] : outbox) {
    second.restore_call(seq, row.service, row.payload, row.attempt,
                        row.last_sent_at, [&](StatusOrError result) {
                          ++callbacks;
                          EXPECT_TRUE(result.ok());
                        });
  }
  engine.run_until();
  EXPECT_FALSE(first_callback);
  EXPECT_EQ(callbacks, 1u);
  EXPECT_EQ(bumps, 1u);
  EXPECT_TRUE(outbox.empty());  // completion erased the durable row
  EXPECT_EQ(second.pending(), 0u);
}

}  // namespace
}  // namespace sphinx::rpc
