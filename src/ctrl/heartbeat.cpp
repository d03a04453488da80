#include "ctrl/heartbeat.hpp"

#include <utility>

#include "ctrl/coordinator.hpp"
#include "ctrl/renew.hpp"

namespace sphinx::ctrl {

HeartbeatAgent::HeartbeatAgent(rpc::MessageBus& bus, std::string shard,
                               std::string owner, std::uint64_t epoch,
                               Duration phase, rpc::Proxy proxy)
    : shard_(std::move(shard)), owner_(std::move(owner)), epoch_(epoch) {
  // One transmission per beat: a lost beat is simply superseded by the
  // next one, so the retry budget is a single attempt with the timeout at
  // the beat period (a straggler reply never outlives its beat by more
  // than one period).
  rpc::RetryPolicy retry;
  retry.timeout = kHeartbeatPeriod;
  retry.max_timeout = kHeartbeatPeriod;
  retry.backoff = 1.0;
  retry.jitter = 0.0;
  retry.max_attempts = 1;
  client_ = std::make_unique<rpc::ClarensClient>(
      bus, "ctrl/hb/" + owner_ + "/" + shard_, std::move(proxy), retry);
  beat_ = std::make_unique<sim::PeriodicProcess>(
      bus.engine(), "ctrl:heartbeat", kHeartbeatPeriod, [this] { beat(); },
      phase);
}

HeartbeatAgent::~HeartbeatAgent() = default;

void HeartbeatAgent::start() { beat_->start(); }
void HeartbeatAgent::stop() { beat_->stop(); }

void HeartbeatAgent::beat() {
  client_->call(
      kCoordinatorEndpoint, encode_renew(shard_, owner_, epoch_),
      &read_renew_outcome, [this](Expected<RenewOutcome> outcome) {
        // A lost beat, a renewal or an unknown shard needs nothing here:
        // the next beat supersedes it, and the coordinator counts the
        // renewals ("ctrl.lease_renewals").
        if (outcome && *outcome == RenewOutcome::kFenced) {
          // The shard was adopted out from under us.  Stop immediately:
          // continuing to beat (or to schedule) on a lost shard is the
          // split-brain the epoch exists to prevent.
          beat_->stop();
        }
      });
}

}  // namespace sphinx::ctrl
