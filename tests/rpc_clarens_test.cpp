// Tests for GSI credentials, the message bus and Clarens services.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/recorder.hpp"
#include "rpc/clarens.hpp"
#include "rpc/gsi.hpp"
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

Proxy user_proxy(SimTime now = 0.0, Duration lifetime = hours(12)) {
  return Proxy(user_identity(), "uscms", {"/uscms/production"}, now, lifetime);
}

TEST(Proxy, ValidWithinLifetime) {
  const Proxy p = user_proxy(0.0, 100.0);
  EXPECT_TRUE(p.valid_at(0.0));
  EXPECT_TRUE(p.valid_at(99.9));
  EXPECT_FALSE(p.valid_at(100.0));
}

TEST(Proxy, DefaultProxyIsAnonymousAndInvalid) {
  EXPECT_FALSE(Proxy{}.valid_at(0.0));
}

TEST(Proxy, PrincipalIncludesVoAndGroups) {
  EXPECT_EQ(user_proxy().principal(), "uscms:/uscms/production");
}

TEST(AuthzPolicy, ExpiredProxyDenied) {
  AuthzPolicy policy;
  policy.allow_vo("uscms");
  const auto d = policy.check(user_proxy(0.0, 10.0), 20.0);
  ASSERT_FALSE(d.ok());
  EXPECT_NE(d.error().message.find("expired"), std::string::npos);
}

TEST(AuthzPolicy, VoAclEnforced) {
  AuthzPolicy policy;
  EXPECT_FALSE(policy.check(user_proxy(), 0.0).ok());  // admits no VO
  policy.allow_vo("atlas");
  EXPECT_FALSE(policy.check(user_proxy(), 0.0).ok());
  policy.allow_vo("uscms");
  EXPECT_TRUE(policy.check(user_proxy(), 0.0).ok());
}

class BusFixture : public ::testing::Test {
 protected:
  BusFixture() { bus.set_recorder(&recorder); }

  sim::Engine engine;
  obs::Recorder recorder{engine};
  MessageBus bus{engine, Rng(1), 0.05, 0.0};
};

TEST_F(BusFixture, DeliversAfterLatency) {
  std::vector<std::string> got;
  bus.register_endpoint(bus.endpoint("server"),
                        [&](const Envelope& e) { got.push_back(e.payload); });
  bus.send(bus.endpoint("client"), bus.endpoint("server"), "hello", {}, 1);
  EXPECT_TRUE(got.empty());  // not yet delivered
  engine.run_until();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], "hello");
  EXPECT_DOUBLE_EQ(engine.now(), 0.05);
  // Sent at 0.0: the delivery records all of the 0.05 s as its latency.
  const auto delivered = recorder.trace().events(obs::TraceKind::kBusDelivery);
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_DOUBLE_EQ(delivered[0].value, 0.05);
}

TEST_F(BusFixture, PreservesSendOrderAtEqualLatency) {
  std::vector<int> order;
  bus.register_endpoint(bus.endpoint("s"), [&](const Envelope& e) {
    order.push_back(std::stoi(e.payload));
  });
  for (int i = 0; i < 5; ++i) {
    bus.send(bus.endpoint("c"), bus.endpoint("s"), std::to_string(i), {}, 1);
  }
  engine.run_until();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST_F(BusFixture, DropsToMissingEndpoint) {
  bus.send(bus.endpoint("c"), bus.endpoint("nobody"), "lost", {}, 1);
  engine.run_until();
  EXPECT_EQ(recorder.counter("bus.dropped_no_endpoint", "bus"), 1u);
  EXPECT_EQ(recorder.counter("bus.lost", "bus"), 0u);
  // Nothing was delivered, so no delivery latency was observed.
  EXPECT_EQ(recorder.histogram("bus.delivery_latency", "bus"), nullptr);
}

TEST_F(BusFixture, UnregisterDropsInflight) {
  bool delivered = false;
  bus.register_endpoint(bus.endpoint("s"),
                        [&](const Envelope&) { delivered = true; });
  bus.send(bus.endpoint("c"), bus.endpoint("s"), "x", {}, 1);
  bus.unregister_endpoint(bus.endpoint("s"));
  engine.run_until();
  EXPECT_FALSE(delivered);
  EXPECT_EQ(recorder.counter("bus.dropped_no_endpoint", "bus"), 1u);
}

TEST_F(BusFixture, ReplyCorrelatesWithRequest) {
  bus.register_endpoint(bus.endpoint("server"),
                        [&](const Envelope& e) { bus.reply(e, "pong"); });
  std::uint64_t got_call_seq = 0;
  EndpointId got_to{};
  bus.register_endpoint(bus.endpoint("client"), [&](const Envelope& e) {
    got_call_seq = e.call_seq;
    got_to = e.to;
    EXPECT_EQ(e.payload, "pong");
  });
  bus.send(bus.endpoint("client"), bus.endpoint("server"), "ping", {}, 7);
  engine.run_until();
  EXPECT_EQ(got_call_seq, 7u);  // the reply carries the request's call
  EXPECT_EQ(bus.name(got_to), "client");
}

// A handler may rewire the bus while it runs.  Each handler below keeps
// reading a heap-held capture after it rewired, so a handler destroyed
// under its own delivery is a use-after-free (asan-ubsan).

TEST_F(BusFixture, HandlerMayUnregisterItsOwnEndpoint) {
  const EndpointId self = bus.endpoint("one-shot");
  std::vector<std::string> got;
  const std::string tag(64, 'u');
  bus.register_endpoint(self, [&, tag](const Envelope& e) {
    bus.unregister_endpoint(self);
    got.push_back(tag + e.payload);
  });
  bus.send(bus.endpoint("c"), self, "1", {}, 1);
  bus.send(bus.endpoint("c"), self, "2", {}, 1);
  engine.run_until();
  EXPECT_EQ(got, std::vector<std::string>{tag + "1"});
  EXPECT_EQ(recorder.counter("bus.dropped_no_endpoint", "bus"), 1u);
  const auto drops = recorder.trace().events(obs::TraceKind::kBusDrop);
  ASSERT_EQ(drops.size(), 1u);
  EXPECT_EQ(drops[0].detail, "endpoint_unregistered");
}

TEST_F(BusFixture, HandlerMayReplaceItsOwnEndpoint) {
  const EndpointId self = bus.endpoint("rewired");
  std::vector<std::string> got;
  const std::string tag(64, 'r');
  bus.register_endpoint(self, [&, tag](const Envelope& e) {
    bus.register_endpoint(self, [&got](const Envelope& later) {
      got.push_back("second:" + later.payload);
    });
    got.push_back(tag + e.payload);
  });
  for (const char* payload : {"1", "2", "3"}) {
    bus.send(bus.endpoint("c"), self, payload, {}, 1);
  }
  engine.run_until();
  EXPECT_EQ(got, (std::vector<std::string>{tag + "1", "second:2", "second:3"}));
  EXPECT_EQ(recorder.counter("bus.dropped_no_endpoint", "bus"), 0u);
}

TEST_F(BusFixture, HandlerMayRegisterNewEndpoints) {
  // Registering 64 names grows the endpoint table under the running
  // handler; each new endpoint then receives what the handler sends it.
  const EndpointId hub = bus.endpoint("hub");
  std::vector<std::string> got;
  const std::string tag(64, 'n');
  bus.register_endpoint(hub, [&, tag](const Envelope& e) {
    for (int i = 0; i < 64; ++i) {
      const EndpointId leaf = bus.endpoint("leaf-" + std::to_string(i));
      bus.register_endpoint(leaf, [&got, i](const Envelope& note) {
        got.push_back(std::to_string(i) + ":" + note.payload);
      });
      bus.send(hub, leaf, e.payload, {}, e.call_seq);
    }
    got.push_back(tag);
  });
  bus.send(bus.endpoint("c"), hub, "hello", {}, 1);
  engine.run_until();
  ASSERT_EQ(got.size(), 65u);
  EXPECT_EQ(got[0], tag);
  EXPECT_EQ(got[1], "0:hello");
  EXPECT_EQ(got[64], "63:hello");
}

TEST_F(BusFixture, DropsKeepTheirCounterAndDetailAcrossReusedSlots) {
  // Three kinds of dead endpoint next to a live one, in rounds that each
  // start once the last round's envelopes have left their slots, so
  // later rounds ride reused slots.  Every drop must name its own
  // recipient with its own detail, and count under its own counter.
  const EndpointId from = bus.endpoint("c");
  const EndpointId live = bus.endpoint("live");
  const EndpointId gone = bus.endpoint("gone");
  const EndpointId moving = bus.endpoint("moving");
  const EndpointId never = bus.endpoint("never-wired");
  std::size_t delivered = 0;
  const auto count = [&delivered](const Envelope&) { ++delivered; };
  bus.register_endpoint(live, count);
  bus.register_endpoint(gone, count);
  bus.register_endpoint(moving, count);
  bus.unregister_endpoint(gone);
  bus.expect_handoff(moving);
  bus.unregister_endpoint(moving);
  constexpr int kRounds = 5;
  for (int round = 0; round < kRounds; ++round) {
    for (const EndpointId to : {live, gone, live, moving, never, live}) {
      bus.send(from, to, "m", {}, 1);
    }
    engine.run_until();
  }
  EXPECT_EQ(delivered, 3u * kRounds);
  EXPECT_EQ(recorder.counter("bus.dropped_handoff", "bus"), 1u * kRounds);
  EXPECT_EQ(recorder.counter("bus.dropped_no_endpoint", "bus"), 2u * kRounds);
  std::vector<std::pair<std::string, std::string>> drops;
  for (const obs::TraceView& e :
       recorder.trace().events(obs::TraceKind::kBusDrop)) {
    EXPECT_EQ(e.source, "c");
    drops.emplace_back(e.subject, e.detail);
  }
  std::vector<std::pair<std::string, std::string>> want;
  for (int round = 0; round < kRounds; ++round) {
    want.emplace_back("gone", "endpoint_unregistered");
    want.emplace_back("moving", "endpoint_handoff");
    want.emplace_back("never-wired", "missing_endpoint");
  }
  EXPECT_EQ(drops, want);
}

class ClarensFixture : public ::testing::Test {
 protected:
  ClarensFixture() : service(bus, "sphinx-server", make_policy()) {
    service.register_method(
        "echo", &tree::any_params, &tree::write_tree,
        [](const std::vector<XrValue>& params, const Proxy&) {
          return Expected<XrValue>(XrValue(params.at(0)));
        });
    service.register_method(
        "whoami", &tree::any_params, &tree::write_tree,
        [](const std::vector<XrValue>&, const Proxy& proxy) {
          return Expected<XrValue>(XrValue(proxy.principal()));
        });
    service.register_method(
        "boom", &tree::any_params, &tree::write_tree,
        [](const std::vector<XrValue>&, const Proxy&) {
          return Expected<XrValue>(make_error("app", "handler failed"));
        });
  }

  static AuthzPolicy make_policy() {
    AuthzPolicy policy;
    policy.allow_vo("uscms");
    return policy;
  }

  sim::Engine engine;
  MessageBus bus{engine, Rng(2), 0.05, 0.0};
  ClarensService service;
};

TEST_F(ClarensFixture, RoundTripCall) {
  ClarensClient client(bus, "client-1", user_proxy());
  std::string got;
  client.call("sphinx-server",
              MethodCall{"echo", {XrValue("payload")}}.serialize(),
              &tree::any_reply,
              [&](Expected<XrValue> result) {
                ASSERT_TRUE(result.has_value());
                got = result->as_string();
              });
  engine.run_until();
  EXPECT_EQ(got, "payload");
  EXPECT_EQ(client.pending(), 0u);
}

TEST_F(ClarensFixture, ProxyTravelsWithCall) {
  ClarensClient client(bus, "client-1", user_proxy());
  std::string got;
  client.call("sphinx-server",
              MethodCall{"whoami", {}}.serialize(), &tree::any_reply,
              [&](Expected<XrValue> r) { got = r->as_string(); });
  engine.run_until();
  EXPECT_EQ(got, "uscms:/uscms/production");
}

TEST_F(ClarensFixture, UnknownMethodFaults) {
  ClarensClient client(bus, "client-1", user_proxy());
  std::string code;
  client.call("sphinx-server",
              MethodCall{"nope", {}}.serialize(), &tree::any_reply,
              [&](Expected<XrValue> r) { code = r.error().code; });
  engine.run_until();
  EXPECT_EQ(code, "fault:2");
}

TEST_F(ClarensFixture, HandlerErrorBecomesApplicationFault) {
  ClarensClient client(bus, "client-1", user_proxy());
  std::string code;
  client.call("sphinx-server",
              MethodCall{"boom", {}}.serialize(), &tree::any_reply,
              [&](Expected<XrValue> r) { code = r.error().code; });
  engine.run_until();
  EXPECT_EQ(code, "fault:100");
}

TEST_F(ClarensFixture, WrongVoDenied) {
  const Proxy intruder(Identity{"/CN=Someone Else"}, "ligo", {}, 0.0,
                       hours(1));
  ClarensClient client(bus, "client-2", intruder);
  std::string code;
  client.call("sphinx-server",
              MethodCall{"echo", {XrValue("x")}}.serialize(), &tree::any_reply,
              [&](Expected<XrValue> r) { code = r.error().code; });
  engine.run_until();
  EXPECT_EQ(code, "fault:3");
}

TEST_F(ClarensFixture, ExpiredProxyDeniedAtCallTime) {
  ClarensClient client(bus, "client-1", user_proxy(0.0, minutes(1)));
  // Let the proxy expire before the call is made.
  std::string code;
  engine.schedule_at(120.0, "late-call", [&] {
    client.call("sphinx-server",
                MethodCall{"echo", {XrValue("x")}}.serialize(),
                &tree::any_reply,
                [&](Expected<XrValue> r) {
                  ASSERT_FALSE(r.has_value());
                  code = r.error().code;
                });
  });
  engine.run_until();
  EXPECT_EQ(code, "fault:3");
}

TEST_F(ClarensFixture, GarbagePayloadFaults) {
  bool got_fault = false;
  bus.register_endpoint(bus.endpoint("raw-client"), [&](const Envelope& env) {
    const auto parsed = MethodResponse::parse(env.payload);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_TRUE(parsed->is_fault);
    EXPECT_EQ(parsed->fault.code, 1);
    got_fault = true;
  });
  bus.send(bus.endpoint("raw-client"), bus.endpoint("sphinx-server"),
           "this is not xml", std::make_shared<const Proxy>(user_proxy()), 1);
  engine.run_until();
  EXPECT_TRUE(got_fault);
}

TEST_F(ClarensFixture, ManyConcurrentCallsAllComplete) {
  ClarensClient client(bus, "client-1", user_proxy());
  int completed = 0;
  for (int i = 0; i < 100; ++i) {
    client.call("sphinx-server",
                MethodCall{"echo", {XrValue(i)}}.serialize(), &tree::any_reply,
                [&completed, i](Expected<XrValue> r) {
                  ASSERT_TRUE(r.has_value());
                  EXPECT_EQ(r->as_int(), i);
                  ++completed;
                });
  }
  engine.run_until();
  EXPECT_EQ(completed, 100);
}

/// A typed params decoder for the precedence test: exactly one int.
Expected<std::int64_t> one_int(XrReader& in) {
  int params = 0;
  std::optional<std::int64_t> n;
  if (!in.each_param([&](int i) {
        ++params;
        XrType type;
        if (!in.open(1, type)) return false;
        if (i == 0 && type == XrType::kInt) n = in.integer();
        return in.skip_open(type, 1);
      })) {
    return in.error();
  }
  if (params != 1 || !n) return make_error("bad_request", "expected [n]");
  return *n;
}

TEST_F(ClarensFixture, FaultPrecedenceIsParseDeniedMethodThenParams) {
  service.register_method(
      "count", &one_int, &tree::write_tree,
      [](const std::int64_t& n, const Proxy&) {
        return Expected<XrValue>(XrValue(n + 1));
      });
  const Proxy intruder(Identity{"/CN=Someone Else"}, "ligo", {}, 0.0,
                       hours(1));
  std::optional<MethodResponse> reply;
  bus.register_endpoint(bus.endpoint("raw-client"), [&](const Envelope& env) {
    auto parsed = MethodResponse::parse(env.payload);
    ASSERT_TRUE(parsed.has_value()) << env.payload;
    reply = std::move(*parsed);
  });
  std::uint64_t seq = 0;
  const auto fault_of = [&](const Proxy& proxy, const std::string& payload) {
    reply.reset();
    bus.send(bus.endpoint("raw-client"), bus.endpoint("sphinx-server"),
             payload, std::make_shared<const Proxy>(proxy), ++seq);
    engine.run_until();
    EXPECT_TRUE(reply.has_value() && reply->is_fault) << payload;
    return reply.has_value()
               ? std::pair(reply->fault.code, reply->fault.message)
               : std::pair(std::int64_t{0}, std::string());
  };
  const std::string refused = MethodCall{"count", {XrValue("x")}}.serialize();
  // A syntax error anywhere in the envelope is a parse fault, even for a
  // caller who would be denied, and even behind a param the decoder
  // would refuse.
  std::string bad_number = refused;
  bad_number.insert(bad_number.find("</params>"),
                    "<param><value><i8>12abc</i8></value></param>");
  EXPECT_EQ(fault_of(intruder, bad_number).first, 1);
  EXPECT_EQ(fault_of(user_proxy(), bad_number).first, 1);
  // Then authorization: before the method lookup and the params' refusal.
  EXPECT_EQ(fault_of(intruder, MethodCall{"nope", {}}.serialize()).first, 3);
  EXPECT_EQ(fault_of(intruder, refused).first, 3);
  // Then the method lookup, then the decoder's refusal.
  EXPECT_EQ(fault_of(user_proxy(), MethodCall{"nope", {}}.serialize()).first,
            2);
  EXPECT_EQ(fault_of(user_proxy(), refused),
            std::pair(std::int64_t{100},
                      std::string("bad_request: expected [n]")));
  // An accepted call runs its handler.
  reply.reset();
  bus.send(bus.endpoint("raw-client"), bus.endpoint("sphinx-server"),
           MethodCall{"count", {XrValue(41)}}.serialize(),
           std::make_shared<const Proxy>(user_proxy()), ++seq);
  engine.run_until();
  ASSERT_TRUE(reply.has_value());
  EXPECT_FALSE(reply->is_fault);
  EXPECT_EQ(reply->value, XrValue(42));
}

}  // namespace
}  // namespace sphinx::rpc
