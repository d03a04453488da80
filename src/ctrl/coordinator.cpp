#include "ctrl/coordinator.hpp"

#include <utility>

#include "obs/trace.hpp"

namespace sphinx::ctrl {

LeaseCoordinator::LeaseCoordinator(rpc::MessageBus& bus,
                                   Duration monitor_phase)
    : bus_(bus) {
  register_methods();
  monitor_ = std::make_unique<sim::PeriodicProcess>(
      bus_.engine(), "ctrl:monitor", kMonitorPeriod,
      [this] { monitor_sweep(); }, monitor_phase);
}

LeaseCoordinator::~LeaseCoordinator() = default;

void LeaseCoordinator::register_methods() {
  rpc::AuthzPolicy policy;
  policy.allow_vo(kControlVo);
  service_ = std::make_unique<rpc::ClarensService>(bus_, kCoordinatorEndpoint,
                                                   std::move(policy));
  service_->register_method(
      "ctrl.renew", &decode_renew, &write_renew_outcome,
      [this](const Renewal& renewal, const rpc::Proxy&) {
        return handle_renew(renewal);
      });
}

std::uint64_t LeaseCoordinator::grant(const std::string& shard,
                                      const std::string& owner) {
  const std::uint64_t epoch =
      leases_.grant(shard, owner, bus_.engine().now(), kLeaseTtl);
  if (recorder_ != nullptr) {
    recorder_->event(obs::TraceKind::kLeaseGranted, source_name_,
                     recorder_->name(shard), recorder_->name(owner),
                     static_cast<double>(epoch));
    recorder_->count("ctrl", "ctrl.leases_granted");
  }
  return epoch;
}

void LeaseCoordinator::set_recorder(obs::Recorder* recorder) {
  recorder_ = recorder;
  if (recorder_ != nullptr) source_name_ = recorder_->name(kCoordinatorEndpoint);
}

void LeaseCoordinator::set_adopt_handler(AdoptHandler handler) {
  adopt_handler_ = std::move(handler);
}

void LeaseCoordinator::set_adopted_callback(AdoptedCallback callback) {
  adopted_callback_ = std::move(callback);
}

void LeaseCoordinator::start() { monitor_->start(); }
void LeaseCoordinator::stop() { monitor_->stop(); }

Expected<RenewOutcome> LeaseCoordinator::handle_renew(
    const Renewal& renewal) {
  const RenewOutcome outcome =
      leases_.renew(renewal.shard, renewal.owner, renewal.epoch,
                    bus_.engine().now(), kLeaseTtl);
  if (recorder_ == nullptr) return outcome;
  switch (outcome) {
    case RenewOutcome::kRenewed:
      recorder_->count("ctrl", "ctrl.lease_renewals");
      break;
    case RenewOutcome::kFenced:
      recorder_->event(obs::TraceKind::kLeaseFenced, source_name_,
                       recorder_->name(renewal.shard),
                       recorder_->name(renewal.owner),
                       static_cast<double>(renewal.epoch));
      recorder_->count("ctrl", "ctrl.lease_fenced");
      break;
    case RenewOutcome::kUnknownShard:
      break;
  }
  return outcome;
}

void LeaseCoordinator::monitor_sweep() {
  const SimTime now = bus_.engine().now();
  // Phase 1: declare newly overdue leases dead.  mark_expired() flips
  // them out of expired()'s view, so each missed deadline is announced
  // exactly once no matter how often the monitor sweeps.
  for (const Lease& lease : leases_.expired(now)) {
    leases_.mark_expired(lease.shard);
    if (recorder_ != nullptr) {
      recorder_->event(obs::TraceKind::kLeaseExpired, source_name_,
                       recorder_->name(lease.shard),
                       recorder_->name(lease.owner),
                       static_cast<double>(lease.epoch));
      recorder_->count("ctrl", "ctrl.lease_expired");
    }
  }
  // Phase 2: adopt every dead shard that has a candidate.  dead() is the
  // standing work-list -- a shard whose adoption fails (no survivor, or
  // the handler refused) simply comes back on the next sweep.
  for (const Lease& lease : leases_.dead()) {
    const std::optional<std::string> adopter =
        leases_.first_live_owner(now, lease.owner);
    if (!adopter.has_value()) continue;
    if (adopt_handler_ != nullptr &&
        !adopt_handler_(lease.shard, lease.owner, *adopter).ok()) {
      continue;
    }
    const std::uint64_t epoch =
        leases_.transfer(lease.shard, *adopter, now, kLeaseTtl);
    if (recorder_ != nullptr) {
      recorder_->event(obs::TraceKind::kShardAdopted, source_name_,
                       recorder_->name(lease.shard),
                       recorder_->name(lease.owner, "->", *adopter),
                       static_cast<double>(epoch));
      recorder_->count("ctrl", "ctrl.shard_adoptions");
    }
    if (adopted_callback_ != nullptr) {
      adopted_callback_(lease.shard, *adopter, epoch);
    }
  }
}

}  // namespace sphinx::ctrl
