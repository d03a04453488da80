// Tests for the bus-level network fault model: injected loss,
// duplication, reorder spikes, timed partition windows, the split drop
// counters, and the byte-identity guarantee for fault-free configs.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "obs/recorder.hpp"
#include "rpc/transport.hpp"
#include "sim/engine.hpp"

namespace sphinx::rpc {
namespace {

/// Sends `payload` from `from` to `to` as call 1.
void send(MessageBus& bus, std::string_view from, std::string_view to,
          std::string payload) {
  bus.send(bus.endpoint(from), bus.endpoint(to), std::move(payload), {}, 1);
}

class FaultBusFixture : public ::testing::Test {
 protected:
  FaultBusFixture() { bus.set_recorder(&recorder); }

  /// Installs one rule and returns the bus for chaining.
  MessageBus& with_rule(LinkFaultRule rule, std::uint64_t faults_seed = 42) {
    NetworkFaultConfig config;
    config.rules.push_back(rule);
    bus.set_fault_model(config, Rng(faults_seed));
    return bus;
  }

  /// Registers a sink endpoint that counts deliveries.
  std::size_t* sink(const std::string& name) {
    auto counter = std::make_unique<std::size_t>(0);
    std::size_t* raw = counter.get();
    counters_.push_back(std::move(counter));
    bus.register_endpoint(bus.endpoint(name),
                          [raw](const Envelope&) { ++*raw; });
    return raw;
  }

  /// The recorder's count `name` (e.g. "bus.lost") from source "bus".
  [[nodiscard]] std::uint64_t counter(const std::string& name) const {
    return recorder.counter(name, "bus");
  }

  sim::Engine engine;
  obs::Recorder recorder{engine};
  MessageBus bus{engine, Rng(1), 0.05, 0.0};

 private:
  std::vector<std::unique_ptr<std::size_t>> counters_;
};

TEST_F(FaultBusFixture, CertainLossDropsEveryMessage) {
  LinkFaultRule rule;  // empty prefixes: all links
  rule.loss = 1.0;
  with_rule(rule);
  std::size_t* got = sink("server");
  for (int i = 0; i < 8; ++i) send(bus, "client", "server", "m");
  engine.run_until();
  EXPECT_EQ(*got, 0u);
  EXPECT_EQ(counter("bus.lost"), 8u);
  EXPECT_EQ(counter("bus.dropped_no_endpoint"), 0u);
}

TEST_F(FaultBusFixture, CertainDuplicationDeliversTwice) {
  LinkFaultRule rule;
  rule.duplicate = 1.0;
  with_rule(rule);
  std::size_t* got = sink("server");
  send(bus, "client", "server", "m");
  engine.run_until();
  EXPECT_EQ(*got, 2u);
  EXPECT_EQ(counter("bus.duplicated"), 1u);
}

TEST_F(FaultBusFixture, PartitionWindowIsHalfOpen) {
  LinkFaultRule rule;
  rule.partition = true;
  rule.start = 10.0;
  rule.end = 20.0;
  with_rule(rule);
  std::size_t* got = sink("server");
  for (const SimTime at : {5.0, 10.0, 19.99, 20.0}) {
    engine.schedule_at(at, "send", [this] { send(bus, "c", "server", "m"); });
  }
  engine.run_until();
  // Sends at t=10 and t=19.99 fall inside [start, end); 5.0 and 20.0 pass.
  EXPECT_EQ(*got, 2u);
  EXPECT_EQ(counter("bus.partitioned"), 2u);
  EXPECT_EQ(counter("bus.lost"), 0u);
}

TEST_F(FaultBusFixture, RuleMatchingIsSymmetricAndPrefixBased) {
  LinkFaultRule rule;
  rule.from_prefix = "client";
  rule.to_prefix = "server";
  rule.partition = true;
  with_rule(rule);
  std::size_t* to_server = sink("server/out");
  std::size_t* to_client = sink("client-7");
  std::size_t* to_other = sink("other");
  send(bus, "client-7", "server/out", "req");    // forward: partitioned
  send(bus, "server/out", "client-7", "reply");  // reverse: partitioned too
  send(bus, "client-7", "other", "side");        // unmatched link: delivered
  engine.run_until();
  EXPECT_EQ(*to_server, 0u);
  EXPECT_EQ(*to_client, 0u);
  EXPECT_EQ(*to_other, 1u);
  EXPECT_EQ(counter("bus.partitioned"), 2u);
}

TEST_F(FaultBusFixture, ReorderSpikeDelaysDelivery) {
  LinkFaultRule rule;
  rule.reorder = 1.0;
  rule.reorder_spike = 100.0;
  with_rule(rule);
  std::vector<SimTime> delivered_at;
  bus.register_endpoint(bus.endpoint("server"), [&](const Envelope&) {
    delivered_at.push_back(engine.now());
  });
  send(bus, "client", "server", "m");
  engine.run_until();
  ASSERT_EQ(delivered_at.size(), 1u);
  EXPECT_GT(delivered_at[0], 0.05);  // base latency plus a spike
  EXPECT_LT(delivered_at[0], 100.05 + 1e-9);
  EXPECT_EQ(counter("bus.reordered"), 1u);
}

TEST_F(FaultBusFixture, DropDetailDistinguishesUnregisteredFromMissing) {
  std::size_t* got = sink("ephemeral");
  send(bus, "client", "ephemeral", "in-flight");
  // Drop the in-flight message.
  bus.unregister_endpoint(bus.endpoint("ephemeral"));
  send(bus, "client", "never-wired", "lost cause");
  engine.run_until();
  EXPECT_EQ(*got, 0u);
  EXPECT_EQ(counter("bus.dropped_no_endpoint"), 2u);
  std::vector<std::string> details;
  for (const obs::TraceView& e : recorder.trace().events()) {
    if (e.kind == obs::TraceKind::kBusDrop) details.emplace_back(e.detail);
  }
  ASSERT_EQ(details.size(), 2u);
  EXPECT_EQ(details[0], "endpoint_unregistered");
  EXPECT_EQ(details[1], "missing_endpoint");
}

TEST_F(FaultBusFixture, HandoffWindowDistinguishesPlannedDropsFromCrash) {
  std::size_t* got = sink("sphinx-server/shard0");
  send(bus, "client", "sphinx-server/shard0", "in-flight");

  // Planned ownership transfer: announce the handoff, then take the
  // endpoint down.  The in-flight reply is dropped -- but as
  // "endpoint_handoff", counted separately from crash-style drops.
  bus.expect_handoff(bus.endpoint("sphinx-server/shard0"));
  bus.unregister_endpoint(bus.endpoint("sphinx-server/shard0"));
  engine.run_until();
  EXPECT_EQ(*got, 0u);
  EXPECT_EQ(counter("bus.dropped_handoff"), 1u);
  EXPECT_EQ(counter("bus.dropped_no_endpoint"), 0u);

  std::vector<std::string> details;
  for (const obs::TraceView& e : recorder.trace().events()) {
    if (e.kind == obs::TraceKind::kBusDrop) details.emplace_back(e.detail);
  }
  ASSERT_EQ(details.size(), 1u);
  EXPECT_EQ(details[0], "endpoint_handoff");
}

TEST_F(FaultBusFixture, ReRegistrationClosesTheHandoffWindow) {
  bus.expect_handoff(bus.endpoint("sphinx-server/shard0"));

  // The new owner registering the endpoint completes the handoff; a
  // later unregister is a plain crash again, not a handoff remnant.
  std::size_t* got = sink("sphinx-server/shard0");
  send(bus, "client", "sphinx-server/shard0", "post-handoff");
  engine.run_until();
  EXPECT_EQ(*got, 1u);
  EXPECT_EQ(counter("bus.dropped_handoff"), 0u);

  send(bus, "client", "sphinx-server/shard0", "in-flight");
  bus.unregister_endpoint(bus.endpoint("sphinx-server/shard0"));
  engine.run_until();
  EXPECT_EQ(counter("bus.dropped_handoff"), 0u);
  EXPECT_EQ(counter("bus.dropped_no_endpoint"), 1u);
  std::vector<std::string> details;
  for (const obs::TraceView& e : recorder.trace().events()) {
    if (e.kind == obs::TraceKind::kBusDrop) details.emplace_back(e.detail);
  }
  ASSERT_EQ(details.size(), 1u);
  EXPECT_EQ(details[0], "endpoint_unregistered");
}

// --- control-plane lane -----------------------------------------------------

// Control traffic (names under the configured prefix) must not perturb
// the core latency stream: a run with heartbeats interleaved delivers
// the core messages at exactly the times a heartbeat-free run does.
TEST(ControlStream, ControlTrafficNeverShiftsCoreLatencyDraws) {
  auto run = [](bool with_ctrl_traffic) {
    sim::Engine engine;
    MessageBus bus{engine, Rng(1), 0.05, 0.05};
    bus.set_control_stream("ctrl/", Rng(99));
    std::vector<SimTime> delivered_at;
    bus.register_endpoint(bus.endpoint("server"), [&](const Envelope&) {
      delivered_at.push_back(engine.now());
    });
    bus.register_endpoint(bus.endpoint("ctrl/coordinator"),
                          [](const Envelope&) {});
    for (int i = 0; i < 16; ++i) {
      engine.schedule_at(static_cast<double>(i), "send", [&bus] {
        send(bus, "client", "server", "core");
      });
      if (with_ctrl_traffic) {
        engine.schedule_at(static_cast<double>(i) + 0.5, "beat", [&bus] {
          send(bus, "ctrl/hb/s0", "ctrl/coordinator", "renew");
        });
      }
    }
    engine.run_until();
    return delivered_at;
  };
  EXPECT_EQ(run(false), run(true));
}

// Control traffic is exempt from probabilistic faults (loss here), and
// its draws never consume from the faults stream either.
TEST(ControlStream, ControlTrafficIsExemptFromProbabilisticFaults) {
  sim::Engine engine;
  obs::Recorder recorder(engine);
  MessageBus bus{engine, Rng(1), 0.05, 0.0};
  bus.set_recorder(&recorder);
  bus.set_control_stream("ctrl/", Rng(99));
  NetworkFaultConfig config;
  LinkFaultRule rule;
  rule.loss = 1.0;
  config.rules.push_back(rule);
  bus.set_fault_model(config, Rng(7));
  std::size_t ctrl_delivered = 0;
  bus.register_endpoint(bus.endpoint("ctrl/coordinator"),
                        [&](const Envelope&) { ++ctrl_delivered; });
  std::size_t core_delivered = 0;
  bus.register_endpoint(bus.endpoint("server"),
                        [&](const Envelope&) { ++core_delivered; });
  for (int i = 0; i < 8; ++i) {
    send(bus, "ctrl/hb/s0", "ctrl/coordinator", "renew");
    send(bus, "client", "server", "core");
  }
  engine.run_until();
  EXPECT_EQ(ctrl_delivered, 8u);
  EXPECT_EQ(core_delivered, 0u);
  EXPECT_EQ(recorder.counter("bus.lost", "bus"), 8u);
}

// Partitions are deterministic (no RNG draw), so the control lane still
// honors them: a partition covering the coordinator severs heartbeats.
TEST(ControlStream, ControlTrafficStillHonorsPartitions) {
  sim::Engine engine;
  obs::Recorder recorder(engine);
  MessageBus bus{engine, Rng(1), 0.05, 0.0};
  bus.set_recorder(&recorder);
  bus.set_control_stream("ctrl/", Rng(99));
  NetworkFaultConfig config;
  LinkFaultRule cut;
  cut.from_prefix = "ctrl/hb/";
  cut.to_prefix = "ctrl/coordinator";
  cut.start = 1.0;
  cut.end = 2.0;
  cut.partition = true;
  config.rules.push_back(cut);
  bus.set_fault_model(config, Rng(7));
  std::size_t delivered = 0;
  bus.register_endpoint(bus.endpoint("ctrl/coordinator"),
                        [&](const Envelope&) { ++delivered; });
  engine.schedule_at(0.5, "s", [&] {
    send(bus, "ctrl/hb/s0", "ctrl/coordinator", "renew");
  });
  engine.schedule_at(1.5, "s", [&] {
    send(bus, "ctrl/hb/s0", "ctrl/coordinator", "renew");
  });
  engine.schedule_at(2.5, "s", [&] {
    send(bus, "ctrl/hb/s0", "ctrl/coordinator", "renew");
  });
  engine.run_until();
  EXPECT_EQ(delivered, 2u);
  EXPECT_EQ(recorder.counter("bus.partitioned", "bus"), 1u);
}

TEST_F(FaultBusFixture, InjectedFaultsEmitObserveOnlyTraceEvents) {
  LinkFaultRule loss;
  loss.loss = 1.0;
  loss.end = 1.0;
  LinkFaultRule dup;
  dup.duplicate = 1.0;
  dup.start = 1.0;
  dup.end = 2.0;
  LinkFaultRule cut;
  cut.partition = true;
  cut.start = 2.0;
  NetworkFaultConfig config;
  config.rules = {loss, dup, cut};
  bus.set_fault_model(config, Rng(9));
  sink("server");
  engine.schedule_at(0.5, "s", [this] { send(bus, "c", "server", "a"); });
  engine.schedule_at(1.5, "s", [this] { send(bus, "c", "server", "b"); });
  engine.schedule_at(2.5, "s", [this] { send(bus, "c", "server", "c"); });
  engine.run_until();
  EXPECT_EQ(recorder.counter("bus.lost", "bus"), 1u);
  EXPECT_EQ(recorder.counter("bus.duplicated", "bus"), 1u);
  EXPECT_EQ(recorder.counter("bus.partitioned", "bus"), 1u);
}

// The fault model must be pay-for-what-you-use: installing a config whose
// rules can never fire leaves delivery timing and stats byte-identical to
// a bus with no model at all, because fault draws come from a dedicated
// stream and zero-probability rules draw nothing that alters delivery.
TEST(FaultModelDeterminism, InertConfigKeepsDeliveryTimingIdentical) {
  auto run = [](bool install_inert_model) {
    sim::Engine engine;
    MessageBus bus{engine, Rng(1), 0.05, 0.02};
    if (install_inert_model) {
      NetworkFaultConfig config;
      config.rules.push_back(LinkFaultRule{});  // all-zero probabilities
      bus.set_fault_model(config, Rng(1234));
    }
    std::vector<SimTime> delivered_at;
    bus.register_endpoint(bus.endpoint("server"), [&](const Envelope&) {
      delivered_at.push_back(engine.now());
    });
    for (int i = 0; i < 32; ++i) {
      engine.schedule_at(static_cast<double>(i), "send", [&bus] {
        send(bus, "client", "server", "m");
      });
    }
    engine.run_until();
    return delivered_at;
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(FaultModelDeterminism, SameSeedSameFaultSequence) {
  auto run = [] {
    sim::Engine engine;
    obs::Recorder recorder(engine);
    MessageBus bus{engine, Rng(1), 0.05, 0.0};
    bus.set_recorder(&recorder);
    NetworkFaultConfig config;
    LinkFaultRule rule;
    rule.loss = 0.3;
    rule.duplicate = 0.2;
    rule.reorder = 0.2;
    config.rules.push_back(rule);
    bus.set_fault_model(config, Rng(77));
    std::size_t delivered = 0;
    bus.register_endpoint(bus.endpoint("server"),
                          [&](const Envelope&) { ++delivered; });
    for (int i = 0; i < 64; ++i) {
      engine.schedule_at(static_cast<double>(i), "send", [&bus] {
        send(bus, "client", "server", "m");
      });
    }
    engine.run_until();
    return std::tuple{delivered, recorder.counter("bus.lost", "bus"),
                      recorder.counter("bus.duplicated", "bus"),
                      recorder.counter("bus.reordered", "bus")};
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a, b);
  EXPECT_GT(std::get<1>(a), 0u);  // the probabilities actually fired
  EXPECT_GT(std::get<2>(a), 0u);
}

}  // namespace
}  // namespace sphinx::rpc
