#include "rpc/transport.hpp"

#include <algorithm>
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

void MessageBus::register_endpoint(const std::string& name, Handler handler) {
  SPHINX_ASSERT(handler != nullptr, "endpoint handler must not be null");
  endpoints_[name] = std::move(handler);
  ever_registered_.insert(name);
  // Registration completes a planned handoff: the name has an owner
  // again, so later drops (if any) are back to crash semantics.
  handoff_windows_.erase(name);
}

void MessageBus::unregister_endpoint(const std::string& name) {
  endpoints_.erase(name);
}

void MessageBus::expect_handoff(const std::string& name) {
  handoff_windows_.insert(name);
}

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
}

void MessageBus::send(const std::string& from, const std::string& to,
                      std::string payload, Proxy proxy,
                      std::uint64_t call_seq) {
  SPHINX_PRECONDITION(call_seq >= 1, "requests carry a call sequence >= 1");
  Envelope env;
  env.from = from;
  env.to = to;
  env.payload = std::move(payload);
  env.proxy = std::move(proxy);
  env.call_seq = call_seq;
  post(std::move(env));
}

void MessageBus::reply(const Envelope& request, std::string payload) {
  Envelope env;
  env.from = request.to;
  env.to = request.from;
  env.payload = std::move(payload);
  env.call_seq = request.call_seq;
  post(std::move(env));
}

void MessageBus::record(obs::TraceKind kind, const Envelope& env,
                        obs::Name detail, double value) {
  recorder_->event(kind, recorder_->name(env.from), recorder_->name(env.to),
                   detail, value);
}

bool MessageBus::rule_matches(const LinkFaultRule& rule, const Envelope& env,
                              SimTime now) {
  if (now < rule.start || now >= rule.end) return false;
  const auto has_prefix = [](const std::string& name,
                             const std::string& prefix) {
    return prefix.empty() || name.rfind(prefix, 0) == 0;
  };
  // Symmetric: a (client, server) rule also hits server->client replies.
  return (has_prefix(env.from, rule.from_prefix) &&
          has_prefix(env.to, rule.to_prefix)) ||
         (has_prefix(env.from, rule.to_prefix) &&
          has_prefix(env.to, rule.from_prefix));
}

void MessageBus::post(Envelope envelope) {
  envelope.sent_at = engine_.now();
  // Control-plane traffic draws its latency from a dedicated stream and
  // skips the probabilistic faults below: its volume differs by design
  // between a failover run and its baseline, so letting it touch rng_ or
  // faults_rng_ would desynchronize every later core draw.
  const auto has_prefix = [this](const std::string& name) {
    return name.rfind(control_prefix_, 0) == 0;
  };
  const bool control =
      control_enabled_ && (has_prefix(envelope.from) || has_prefix(envelope.to));
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
  engine_.schedule_in(
      delay, "bus:deliver",
      [this, env = std::move(envelope)]() {
        const auto it = endpoints_.find(env.to);
        if (it == endpoints_.end()) {
          // A planned-handoff window is not a crash: the old owner
          // unregistered deliberately and a new owner is on the way, so
          // the drop gets its own counter and detail.
          if (handoff_windows_.contains(env.to)) {
            if (recorder_ != nullptr) {
              recorder_->count("bus", "bus.dropped_handoff");
              record(obs::TraceKind::kBusDrop, env,
                     recorder_->name("endpoint_handoff"), 0.0);
            }
            return;
          }
          const bool known = ever_registered_.contains(env.to);
          if (recorder_ != nullptr) {
            recorder_->count("bus", "bus.dropped_no_endpoint");
            record(obs::TraceKind::kBusDrop, env,
                   recorder_->name(known ? "endpoint_unregistered"
                                         : "missing_endpoint"),
                   0.0);
          }
          return;
        }
        if (recorder_ != nullptr) {
          const Duration latency = engine_.now() - env.sent_at;
          record(obs::TraceKind::kBusDelivery, env, {}, latency);
          recorder_->observe("bus", "bus.delivery_latency", latency);
        }
        it->second(env);
      });
}

}  // namespace sphinx::rpc
