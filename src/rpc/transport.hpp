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

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"
#include "obs/trace.hpp"
#include "rpc/gsi.hpp"
#include "sim/engine.hpp"

namespace sphinx::obs {
class Recorder;
}  // namespace sphinx::obs

namespace sphinx::rpc {

/// An endpoint of one bus: the index its name was interned at.  A bus
/// hands out ids densely, in the order names first reach it, and never
/// reuses one; an id stays valid across any number of registrations.
enum class EndpointId : std::uint32_t {};

/// One message in flight.
struct Envelope {
  EndpointId from{};    ///< sender
  EndpointId to{};      ///< recipient
  std::string payload;  ///< serialized XML-RPC call or response
  /// The caller's credential (GSI), shared by every transmission of a
  /// call; null on a reply.
  std::shared_ptr<const Proxy> proxy;
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
///
/// A name costs a hash only where it enters: endpoint() interns it once,
/// and everything after -- registration, sends, replies, delivery, fault
/// matching, tracing -- works on the EndpointId.  Each id has one record
/// holding its handler, whether the name was ever registered and whether
/// a handoff window is open.  An envelope in flight waits in a slot of
/// the bus's own table, so a delivery event captures only the bus and a
/// slot index and allocates nothing.
///
/// Handlers may re-enter the bus: a handler may send, reply, and
/// register, unregister or replace any endpoint while it runs, its own
/// included.  A replaced or unregistered handler finishes the delivery
/// it is running, and the next delivery sees the new registration.
class MessageBus {
 public:
  using Handler = std::function<void(const Envelope&)>;

  /// \param base_latency one-way delivery delay; \param jitter uniform
  /// extra delay in [0, jitter).
  MessageBus(sim::Engine& engine, Rng rng, Duration base_latency = 0.05,
             Duration jitter = 0.05);

  /// The id of endpoint `name`, interned on first use.  Interning
  /// registers nothing: a message to a name never registered is dropped
  /// as "missing_endpoint".
  [[nodiscard]] EndpointId endpoint(std::string_view name);
  /// The name `id` was interned from.
  [[nodiscard]] const std::string& name(EndpointId id) const {
    return endpoints_[index(id)].name;
  }

  /// Registers (or replaces) an endpoint handler.  Registration closes
  /// any pending handoff window for the name (see expect_handoff()).
  void register_endpoint(EndpointId id, Handler handler);
  /// Removes an endpoint; in-flight messages to it will be dropped.
  void unregister_endpoint(EndpointId id);

  /// Opens a *planned handoff* window for an endpoint: until the name is
  /// registered again, in-flight messages to it are dropped with detail
  /// "endpoint_handoff" and counted as "bus.dropped_handoff" instead of
  /// "endpoint_unregistered" / "bus.dropped_no_endpoint".  The control
  /// plane marks a dead shard here before adoption re-registers it, so
  /// drops during a deliberate ownership transfer are distinguishable
  /// from drops caused by a crashed peer.
  void expect_handoff(EndpointId id);

  /// Sends a request envelope.  `call_seq` (>= 1) threads the caller's
  /// end-to-end sequence number through the wire, which correlates the
  /// reply; `proxy` is shared, not copied, by every transmission.
  void send(EndpointId from, EndpointId to, std::string payload,
            std::shared_ptr<const Proxy> proxy, std::uint64_t call_seq);

  /// Sends a reply correlated with `request` (copies its call_seq); a
  /// reply carries no proxy.
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
  /// as source and the recipient as subject.  Each endpoint's trace name
  /// is resolved once per attached recorder: here for the endpoints
  /// interned so far, and by endpoint() for later ones.  Pass nullptr to
  /// detach.  Observation only -- attaching a recorder changes neither
  /// delivery timing nor the RNG streams.
  void set_recorder(obs::Recorder* recorder);

 private:
  /// One interned name.
  struct Endpoint {
    std::string name;
    /// Null while unregistered.  Shared, so a delivery keeps running the
    /// handler it started even if that handler replaces itself.
    std::shared_ptr<const Handler> handler;
    /// Registered at least once, so a delivery-time drop can tell
    /// "endpoint_unregistered" (peer went away) from "missing_endpoint"
    /// (never wired up -- a config bug).
    bool ever_registered = false;
    /// Inside a planned-handoff window (expect_handoff() opened it,
    /// registration closes it).
    bool handoff = false;
    /// The name starts with the control-stream prefix.
    bool control = false;
    obs::Name trace_name{};  ///< in the attached recorder's table
  };
  /// An envelope between its send and its delivery, in a slot of
  /// in_flight_; a free slot holds a moved-from one.
  struct InFlight {
    Envelope envelope;
    SimTime sent_at = 0.0;
  };

  [[nodiscard]] static std::size_t index(EndpointId id) noexcept {
    return static_cast<std::size_t>(id);
  }
  /// The record of `id`, which must be one this bus issued.
  [[nodiscard]] Endpoint& entry(EndpointId id);
  [[nodiscard]] bool is_control(std::string_view name) const noexcept;
  void post(Envelope envelope);
  void deliver_in(Duration delay, Envelope envelope);
  void deliver(std::uint32_t slot);
  /// Traces one event about `env` (recorder attached).
  void record(obs::TraceKind kind, const Envelope& env, obs::Name detail,
              double value);
  [[nodiscard]] bool rule_matches(const LinkFaultRule& rule,
                                  const Envelope& env, SimTime now) const;

  sim::Engine& engine_;
  Rng rng_;
  Duration base_latency_;
  Duration jitter_;
  std::vector<Endpoint> endpoints_;  ///< by EndpointId
  /// Name -> id.  Probed only, never iterated.
  std::unordered_map<std::string, EndpointId, StringHash, std::equal_to<>>
      ids_;
  std::vector<InFlight> in_flight_;
  std::vector<std::uint32_t> free_slots_;  ///< in_flight_ slots to reuse
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
