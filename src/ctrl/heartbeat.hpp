#pragma once
/// \file heartbeat.hpp
/// The owner-side half of the lease protocol: periodic renewals.
///
/// Each scheduler instance runs one HeartbeatAgent per shard it owns.
/// The agent beats on a fixed period, sending `ctrl.renew` to the
/// coordinator over the ordinary at-least-once Clarens layer -- the same
/// wire, latency model and GSI authorization every other SPHINX call
/// uses.  Its endpoint lives under the "ctrl/" prefix, so the bus routes
/// its latency draws onto the dedicated control stream and the
/// differential oracle can strip its traffic wholesale (heartbeat volume
/// differs between a failover run and its baseline by design).
///
/// A beat is best-effort: max_attempts = 1, because the next beat
/// supersedes any retransmission the retry machinery could make.  When
/// the coordinator answers "fenced" the agent stops itself -- a fenced
/// owner lost the shard to adoption and must not keep acting on it.

#include <cstdint>
#include <memory>
#include <string>

#include "common/time.hpp"
#include "rpc/clarens.hpp"
#include "rpc/transport.hpp"
#include "sim/engine.hpp"

namespace sphinx::ctrl {

/// Beat period: one ctrl.renew every this many sim-seconds.
inline constexpr Duration kHeartbeatPeriod = 1.0;

class HeartbeatAgent {
 public:
  /// \param shard the shard whose lease this agent renews; \param owner
  /// the scheduler instance name the lease is bound to; \param epoch the
  /// epoch the lease was granted (or transferred) at; \param phase the
  /// offset of the first beat after start() (staggers agents so beats
  /// never share an engine timestamp with each other).
  HeartbeatAgent(rpc::MessageBus& bus, std::string shard, std::string owner,
                 std::uint64_t epoch, Duration phase, rpc::Proxy proxy);
  ~HeartbeatAgent();

  HeartbeatAgent(const HeartbeatAgent&) = delete;
  HeartbeatAgent& operator=(const HeartbeatAgent&) = delete;

  void start();
  /// Stops beating -- the crash harness calls this when it kills the
  /// owning scheduler, which is exactly what lets the lease expire.
  void stop();

  [[nodiscard]] const std::string& shard() const noexcept { return shard_; }
  [[nodiscard]] const std::string& owner() const noexcept { return owner_; }
  /// False once stopped -- by stop(), or by the agent itself when the
  /// coordinator fenced a renewal as stale (it must not be restarted).
  [[nodiscard]] bool running() const noexcept { return beat_->running(); }

 private:
  void beat();

  std::string shard_;
  std::string owner_;
  std::uint64_t epoch_;
  std::unique_ptr<rpc::ClarensClient> client_;
  std::unique_ptr<sim::PeriodicProcess> beat_;
};

}  // namespace sphinx::ctrl
