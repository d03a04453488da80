#pragma once
/// \file coordinator.hpp
/// The control-plane coordinator: lease service + failure monitor +
/// dead-shard adoption.
///
/// One coordinator serves a multi-scheduler deployment.  It hosts the
/// `ctrl.renew` Clarens method the HeartbeatAgents call, keeps the
/// LeaseTable, and runs a periodic monitor that declares a
/// shard dead when its owner stops renewing.  On expiry it picks the
/// adopter -- the first scheduler in grant order that still holds a
/// current lease of its own -- and runs the installed AdoptHandler,
/// which recovers the dead shard from its CheckpointImage + journal
/// suffix and re-registers its endpoint.  Only when the handler succeeds
/// is the lease transferred (epoch + 1), fencing the old owner.
///
/// Trace policy: granted / expired / adopted / fenced each emit one
/// event; successful renewals are metrics-only ("ctrl.lease_renewals"),
/// because per-beat trace lines would dwarf the scheduling trace they
/// ride alongside.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common/error.hpp"
#include "common/time.hpp"
#include "ctrl/lease.hpp"
#include "ctrl/renew.hpp"
#include "obs/recorder.hpp"
#include "rpc/clarens.hpp"
#include "rpc/transport.hpp"
#include "sim/engine.hpp"

namespace sphinx::ctrl {

/// The coordinator's bus endpoint, where HeartbeatAgents send renewals.
inline constexpr const char* kCoordinatorEndpoint = "ctrl/coordinator";
/// Lease lifetime.  It tolerates two missed beats: with a 1 s heartbeat
/// (kHeartbeatPeriod) and a 3 s TTL, expiry needs three consecutive
/// silent beats, so one delayed delivery never triggers a spurious
/// failover.
inline constexpr Duration kLeaseTtl = 3.0;
/// Cadence of the expiry monitor.
inline constexpr Duration kMonitorPeriod = 1.0;
/// VO whose proxies may invoke ctrl methods.
inline constexpr const char* kControlVo = "ivdgl";

class LeaseCoordinator {
 public:
  /// Recovers the dead shard's scheduler under `new_owner`.  Runs inside
  /// the monitor sweep, before the lease is transferred: a handler
  /// failure leaves the lease expired and the next sweep retries.
  using AdoptHandler = std::function<StatusOrError(
      const std::string& shard, const std::string& dead_owner,
      const std::string& new_owner)>;
  /// Fires after a successful transfer -- the harness's hook for
  /// starting the new owner's HeartbeatAgent with the new epoch.
  using AdoptedCallback = std::function<void(
      const std::string& shard, const std::string& new_owner,
      std::uint64_t epoch)>;

  /// \param monitor_phase offset of the first monitor sweep after
  /// start().
  LeaseCoordinator(rpc::MessageBus& bus, Duration monitor_phase);

  ~LeaseCoordinator();
  LeaseCoordinator(const LeaseCoordinator&) = delete;
  LeaseCoordinator& operator=(const LeaseCoordinator&) = delete;

  /// Grants `shard`'s initial lease to `owner` (epoch 1).
  std::uint64_t grant(const std::string& shard, const std::string& owner);

  void set_adopt_handler(AdoptHandler handler);
  void set_adopted_callback(AdoptedCallback callback);
  /// Observation only: lease lifecycle events and ctrl.* counters.
  void set_recorder(obs::Recorder* recorder);

  /// Starts / stops the expiry monitor.
  void start();
  void stop();

  [[nodiscard]] const LeaseTable& leases() const noexcept { return leases_; }

 private:
  void register_methods();
  /// One monitor sweep: declares overdue leases dead and adopts them
  /// onto survivors.
  void monitor_sweep();
  Expected<RenewOutcome> handle_renew(const Renewal& renewal);

  rpc::MessageBus& bus_;
  LeaseTable leases_;
  std::unique_ptr<rpc::ClarensService> service_;
  std::unique_ptr<sim::PeriodicProcess> monitor_;
  AdoptHandler adopt_handler_;
  AdoptedCallback adopted_callback_;
  obs::Recorder* recorder_ = nullptr;
  obs::Name source_name_{};  ///< kCoordinatorEndpoint in the recorder's trace
};

}  // namespace sphinx::ctrl
