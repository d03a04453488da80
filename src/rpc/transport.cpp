#include "rpc/transport.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/contracts.hpp"
#include "obs/recorder.hpp"

namespace sphinx::rpc {

MessageBus::MessageBus(sim::Engine& engine, Rng rng, Duration base_latency,
                       Duration jitter)
    : engine_(engine),
      rng_(std::move(rng)),
      base_latency_(base_latency),
      jitter_(jitter) {
  SPHINX_ASSERT(base_latency_ >= 0, "latency must be non-negative");
  SPHINX_ASSERT(jitter_ >= 0, "jitter must be non-negative");
}

EndpointId MessageBus::endpoint(std::string_view name) {
  if (const auto it = ids_.find(name); it != ids_.end()) return it->second;
  SPHINX_INVARIANT(
      endpoints_.size() < std::numeric_limits<std::uint32_t>::max(),
      "endpoint ids exhausted");
  const EndpointId id{static_cast<std::uint32_t>(endpoints_.size())};
  Endpoint& added = endpoints_.emplace_back();
  added.name = name;
  added.control = is_control(name);
  if (recorder_ != nullptr) added.trace_name = recorder_->name(name);
  ids_.emplace(added.name, id);
  return id;
}

MessageBus::Endpoint& MessageBus::entry(EndpointId id) {
  SPHINX_PRECONDITION(index(id) < endpoints_.size(), "unknown endpoint id");
  return endpoints_[index(id)];
}

void MessageBus::register_endpoint(EndpointId id, Handler handler) {
  SPHINX_ASSERT(handler != nullptr, "endpoint handler must not be null");
  Endpoint& target = entry(id);
  target.handler = std::make_shared<const Handler>(std::move(handler));
  target.ever_registered = true;
  // Registration completes a planned handoff: the name has an owner
  // again, so later drops (if any) are back to crash semantics.
  target.handoff = false;
}

void MessageBus::unregister_endpoint(EndpointId id) {
  entry(id).handler.reset();
}

void MessageBus::expect_handoff(EndpointId id) { entry(id).handoff = true; }

void MessageBus::set_fault_model(NetworkFaultConfig config, Rng faults_rng) {
  for (const LinkFaultRule& rule : config.rules) {
    SPHINX_ASSERT(rule.loss >= 0 && rule.loss <= 1, "loss is a probability");
    SPHINX_ASSERT(rule.duplicate >= 0 && rule.duplicate <= 1,
                  "duplicate is a probability");
    SPHINX_ASSERT(rule.reorder >= 0 && rule.reorder <= 1,
                  "reorder is a probability");
    SPHINX_ASSERT(rule.reorder_spike >= 0, "spike must be non-negative");
    SPHINX_ASSERT(rule.end >= rule.start, "fault window must not be inverted");
  }
  faults_ = std::move(config);
  faults_rng_ = std::move(faults_rng);
  faults_enabled_ = !faults_.rules.empty();
}

void MessageBus::set_control_stream(std::string prefix, Rng rng) {
  control_prefix_ = std::move(prefix);
  control_rng_ = std::move(rng);
  control_enabled_ = !control_prefix_.empty();
  for (Endpoint& known : endpoints_) known.control = is_control(known.name);
}

void MessageBus::set_recorder(obs::Recorder* recorder) {
  recorder_ = recorder;
  if (recorder_ == nullptr) return;
  for (Endpoint& known : endpoints_) {
    known.trace_name = recorder_->name(known.name);
  }
}

bool MessageBus::is_control(std::string_view name) const noexcept {
  return control_enabled_ && name.starts_with(control_prefix_);
}

void MessageBus::send(EndpointId from, EndpointId to, std::string payload,
                      std::shared_ptr<const Proxy> proxy,
                      std::uint64_t call_seq) {
  SPHINX_PRECONDITION(call_seq >= 1, "requests carry a call sequence >= 1");
  SPHINX_PRECONDITION(
      index(from) < endpoints_.size() && index(to) < endpoints_.size(),
      "unknown endpoint id");
  post(Envelope{from, to, std::move(payload), std::move(proxy), call_seq});
}

void MessageBus::reply(const Envelope& request, std::string payload) {
  post(Envelope{request.to, request.from, std::move(payload), nullptr,
                request.call_seq});
}

void MessageBus::record(obs::TraceKind kind, const Envelope& env,
                        obs::Name detail, double value) {
  recorder_->event(kind, endpoints_[index(env.from)].trace_name,
                   endpoints_[index(env.to)].trace_name, detail, value);
}

bool MessageBus::rule_matches(const LinkFaultRule& rule, const Envelope& env,
                              SimTime now) const {
  if (now < rule.start || now >= rule.end) return false;
  const std::string& from = endpoints_[index(env.from)].name;
  const std::string& to = endpoints_[index(env.to)].name;
  // Symmetric: a (client, server) rule also hits server->client replies;
  // an empty prefix matches every name.
  return (from.starts_with(rule.from_prefix) &&
          to.starts_with(rule.to_prefix)) ||
         (from.starts_with(rule.to_prefix) &&
          to.starts_with(rule.from_prefix));
}

void MessageBus::post(Envelope envelope) {
  // Control-plane traffic draws its latency from a dedicated stream and
  // skips the probabilistic faults below: its volume differs by design
  // between a failover run and its baseline, so letting it touch rng_ or
  // faults_rng_ would desynchronize every later core draw.
  const bool control = endpoints_[index(envelope.from)].control ||
                       endpoints_[index(envelope.to)].control;
  // The legacy latency-jitter draw comes first and always happens, so a
  // bus with no fault model consumes the identical rng_ sequence as one
  // that predates faults entirely.
  Rng& latency_rng = control ? control_rng_ : rng_;
  Duration delay =
      base_latency_ + (jitter_ > 0 ? latency_rng.uniform(0.0, jitter_) : 0.0);

  if (faults_enabled_) {
    const SimTime now = engine_.now();
    bool partitioned = false;
    double pass_loss = 1.0;
    double pass_duplicate = 1.0;
    double pass_reorder = 1.0;
    Duration spike = 0.0;
    for (const LinkFaultRule& rule : faults_.rules) {
      if (!rule_matches(rule, envelope, now)) continue;
      partitioned = partitioned || rule.partition;
      pass_loss *= 1.0 - rule.loss;
      pass_duplicate *= 1.0 - rule.duplicate;
      if (rule.reorder > 0) {
        pass_reorder *= 1.0 - rule.reorder;
        spike = std::max(spike, rule.reorder_spike);
      }
    }
    if (partitioned) {
      if (recorder_ != nullptr) {
        record(obs::TraceKind::kBusPartitionDrop, envelope, {}, 0.0);
        recorder_->count("bus", "bus.partitioned");
      }
      return;
    }
    // Partitions (above) are deterministic and apply to everything, the
    // control plane included -- a severed link severs heartbeats too.
    // The probabilistic faults below consume faults_rng_ draws, so
    // control traffic must not reach them (see set_control_stream()).
    if (control) {
      deliver_in(delay, std::move(envelope));
      return;
    }
    if (pass_loss < 1.0 && faults_rng_.chance(1.0 - pass_loss)) {
      if (recorder_ != nullptr) {
        record(obs::TraceKind::kBusLoss, envelope, {}, 0.0);
        recorder_->count("bus", "bus.lost");
      }
      return;
    }
    if (pass_duplicate < 1.0 && faults_rng_.chance(1.0 - pass_duplicate)) {
      if (recorder_ != nullptr) {
        record(obs::TraceKind::kBusDuplicate, envelope, {}, 0.0);
        recorder_->count("bus", "bus.duplicated");
      }
      // The duplicate's extra jitter comes from the fault stream so the
      // legacy stream still sees exactly one draw per logical send.
      const Duration dup_delay =
          base_latency_ +
          (jitter_ > 0 ? faults_rng_.uniform(0.0, jitter_) : 0.0);
      deliver_in(dup_delay, envelope);
    }
    if (pass_reorder < 1.0 && faults_rng_.chance(1.0 - pass_reorder)) {
      const Duration extra =
          spike > 0 ? faults_rng_.uniform(0.0, spike) : 0.0;
      delay += extra;
      if (recorder_ != nullptr) {
        record(obs::TraceKind::kBusReorder, envelope, {}, extra);
        recorder_->count("bus", "bus.reordered");
      }
    }
  }

  deliver_in(delay, std::move(envelope));
}

void MessageBus::deliver_in(Duration delay, Envelope envelope) {
  std::uint32_t slot = 0;
  if (free_slots_.empty()) {
    SPHINX_INVARIANT(
        in_flight_.size() < std::numeric_limits<std::uint32_t>::max(),
        "in-flight slots exhausted");
    slot = static_cast<std::uint32_t>(in_flight_.size());
    in_flight_.push_back(InFlight{std::move(envelope), engine_.now()});
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    in_flight_[slot] = InFlight{std::move(envelope), engine_.now()};
  }
  // Two words: std::function keeps the capture inline.
  engine_.schedule_in(delay, "bus:deliver", [this, slot] { deliver(slot); });
}

void MessageBus::deliver(std::uint32_t slot) {
  // The envelope leaves its slot before anything runs: a handler may send
  // (reusing the slot or growing the table) while it reads `env`.
  const Envelope env = std::move(in_flight_[slot].envelope);
  const SimTime sent_at = in_flight_[slot].sent_at;
  free_slots_.push_back(slot);

  const Endpoint& target = endpoints_[index(env.to)];
  if (target.handler == nullptr) {
    // A planned-handoff window is not a crash: the old owner
    // unregistered deliberately and a new owner is on the way, so the
    // drop gets its own counter and detail.
    if (recorder_ == nullptr) return;
    if (target.handoff) {
      recorder_->count("bus", "bus.dropped_handoff");
      record(obs::TraceKind::kBusDrop, env,
             recorder_->name("endpoint_handoff"), 0.0);
      return;
    }
    recorder_->count("bus", "bus.dropped_no_endpoint");
    record(obs::TraceKind::kBusDrop, env,
           recorder_->name(target.ever_registered ? "endpoint_unregistered"
                                                  : "missing_endpoint"),
           0.0);
    return;
  }
  // A copy of the pointer, not of the handler: the record may be
  // replaced (or the table grown) while the handler runs.
  const std::shared_ptr<const Handler> handler = target.handler;
  if (recorder_ != nullptr) {
    const Duration latency = engine_.now() - sent_at;
    record(obs::TraceKind::kBusDelivery, env, {}, latency);
    recorder_->observe("bus", "bus.delivery_latency", latency);
  }
  (*handler)(env);
}

}  // namespace sphinx::rpc
