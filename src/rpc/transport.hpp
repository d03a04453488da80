#pragma once
/// \file transport.hpp
/// In-simulation message bus with delivery latency and injected faults.
///
/// All client/server traffic (scheduling requests, planning decisions,
/// tracker reports) travels as envelopes on this bus.  Delivery is
/// asynchronous on the simulation engine with configurable latency and
/// jitter, so message delay is part of every experiment, exactly as WAN
/// latency was on Grid3.  An optional NetworkFaultConfig turns the wire
/// into a fault domain: per-link loss, duplication, reordering spikes and
/// timed partition windows, all drawn from a dedicated seeded RNG stream
/// so fault-free runs stay byte-identical to pre-fault-model builds.

#include <functional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "obs/trace.hpp"
#include "rpc/gsi.hpp"
#include "sim/engine.hpp"

namespace sphinx::obs {
class Recorder;
}  // namespace sphinx::obs

namespace sphinx::rpc {

/// One message in flight.
struct Envelope {
  std::string from;          ///< sender endpoint name
  std::string to;            ///< recipient endpoint name
  std::string payload;       ///< serialized XML-RPC call or response
  Proxy proxy;               ///< caller credential (GSI)
  SimTime sent_at = 0.0;  // sphinx-lint-allow(test-only): the bus in this pair measures latency from it
  /// End-to-end call sequence number, stable across retransmissions of
  /// the same logical call.  Requests carry one >= 1; replies copy the
  /// request's value.
  std::uint64_t call_seq = 0;
};

/// One fault rule scoped to a link (endpoint-name prefix pair) and a time
/// window.  Matching is symmetric -- a rule for (client, server) also
/// affects server->client replies -- and an empty prefix matches every
/// endpoint.  Probabilities are per transmission.
struct LinkFaultRule {
  std::string from_prefix;   ///< "" = any endpoint
  std::string to_prefix;     ///< "" = any endpoint
  SimTime start = 0.0;       ///< active while start <= now < end
  SimTime end = kNever;
  double loss = 0.0;         ///< P(message silently lost)
  double duplicate = 0.0;    ///< P(message delivered twice)
  double reorder = 0.0;      ///< P(extra uniform [0, reorder_spike) delay)
  Duration reorder_spike = 5.0;
  bool partition = false;    ///< drop everything on the link in-window
};

/// The whole fault plan for one bus: rules are evaluated in order and
/// compose (loss probabilities combine as 1 - prod(1 - p)).
struct NetworkFaultConfig {
  std::vector<LinkFaultRule> rules;

  [[nodiscard]] bool empty() const noexcept { return rules.empty(); }
};

/// Named-endpoint message bus.
class MessageBus {
 public:
  using Handler = std::function<void(const Envelope&)>;

  /// \param base_latency one-way delivery delay; \param jitter uniform
  /// extra delay in [0, jitter).
  MessageBus(sim::Engine& engine, Rng rng, Duration base_latency = 0.05,
             Duration jitter = 0.05);

  /// Registers (or replaces) an endpoint handler.  Registration closes
  /// any pending handoff window for the name (see expect_handoff()).
  void register_endpoint(const std::string& name, Handler handler);
  /// Removes an endpoint; in-flight messages to it will be dropped.
  void unregister_endpoint(const std::string& name);

  /// Opens a *planned handoff* window for an endpoint: until the name is
  /// registered again, in-flight messages to it are dropped with detail
  /// "endpoint_handoff" and counted as "bus.dropped_handoff" instead of
  /// "endpoint_unregistered" / "bus.dropped_no_endpoint".  The control
  /// plane marks a dead shard here before adoption re-registers it, so
  /// drops during a deliberate ownership transfer are distinguishable
  /// from drops caused by a crashed peer.
  void expect_handoff(const std::string& name);

  /// Sends a request envelope.  `call_seq` (>= 1) threads the caller's
  /// end-to-end sequence number through the wire, which correlates the
  /// reply.
  void send(const std::string& from, const std::string& to,
            std::string payload, Proxy proxy, std::uint64_t call_seq);

  /// Sends a reply correlated with `request` (copies its call_seq).
  void reply(const Envelope& request, std::string payload);

  /// Installs the network fault model.  `faults_rng` must be a dedicated
  /// stream (e.g. seeds.stream("bus/faults")): fault draws never touch
  /// the latency-jitter stream, so enabling an all-zero config leaves
  /// delivery timing byte-identical.
  void set_fault_model(NetworkFaultConfig config, Rng faults_rng);

  /// Routes control-plane traffic -- envelopes whose sender or recipient
  /// name starts with `prefix` -- onto a dedicated latency stream and
  /// exempts it from the *probabilistic* fault model (loss, duplication,
  /// reorder; partition windows still apply -- they are deterministic
  /// and consume no draws).  Rationale: heartbeat/lease traffic differs
  /// by design between a failover run and its uncrashed baseline, so its
  /// draws must never interleave with the core streams or the
  /// differential oracle's byte-equality breaks.  `rng` must be a
  /// dedicated stream (e.g. seeds.stream("bus/ctrl")).
  void set_control_stream(std::string prefix, Rng rng);

  [[nodiscard]] sim::Engine& engine() noexcept { return engine_; }

  /// Attaches a flight recorder; every delivery records its latency and
  /// every injected fault records an observe-only event, with the sender
  /// as source and the recipient as subject.  Endpoints come and go, so
  /// their trace names are looked up per event, a lookup that allocates
  /// nothing once an endpoint has been traced.  Pass nullptr to detach.
  /// Observation only -- attaching a recorder changes neither delivery
  /// timing nor the RNG streams.
  void set_recorder(obs::Recorder* recorder) noexcept {
    recorder_ = recorder;
  }

 private:
  void post(Envelope envelope);
  void deliver_in(Duration delay, Envelope envelope);
  /// Traces one event about `env` (recorder attached).
  void record(obs::TraceKind kind, const Envelope& env, obs::Name detail,
              double value);
  [[nodiscard]] static bool rule_matches(const LinkFaultRule& rule,
                                         const Envelope& env, SimTime now);

  sim::Engine& engine_;
  Rng rng_;
  Duration base_latency_;
  Duration jitter_;
  std::unordered_map<std::string, Handler> endpoints_;
  /// Every name ever registered, so a delivery-time drop can distinguish
  /// "endpoint_unregistered" (peer went away) from "missing_endpoint"
  /// (never wired up -- a config bug).
  std::unordered_set<std::string> ever_registered_;
  /// Endpoints inside a planned-handoff window (expect_handoff() opened
  /// it, re-registration closes it).  Probed only, never iterated.
  std::unordered_set<std::string> handoff_windows_;
  NetworkFaultConfig faults_;
  // Placeholder seed, never drawn from: configuring faults move-assigns
  // a stream-derived Rng over it.
  Rng faults_rng_{0};  // sphinx-lint-allow(rng-raw)
  bool faults_enabled_ = false;
  // Placeholder seed like faults_rng_: set_control_stream() move-assigns
  // a stream-derived Rng over it.
  Rng control_rng_{0};  // sphinx-lint-allow(rng-raw)
  std::string control_prefix_;
  bool control_enabled_ = false;
  obs::Recorder* recorder_ = nullptr;
};

}  // namespace sphinx::rpc
