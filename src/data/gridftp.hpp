#pragma once
/// \file gridftp.hpp
/// GridFTP-style wide-area transfer simulation.
///
/// Transfers share site uplink/downlink bandwidth using a fluid model:
/// every active transfer gets min(src_uplink / n_src, dst_downlink /
/// n_dst) bytes per second, recomputed whenever a transfer starts or
/// finishes.  Stage-in time is therefore load-dependent, which is what
/// makes the paper's jobs take "three or four minutes" instead of one.
///
/// Cost: a site is resolved once per transfer to a *port* that holds its
/// link and live flow counts, and in-flight flows sit in an id-ordered
/// vector of port indices.  A start, cancel or finish therefore costs one
/// pass over the in-flight flows and no hashing.  Determinism contract:
/// progress is applied as `rate*dt` to every flow in id order at each of
/// those events, and completion times, byte counters and every figure
/// depend on exactly that arithmetic in exactly that order.

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/ids.hpp"
#include "common/time.hpp"
#include "data/lfn.hpp"
#include "sim/engine.hpp"

namespace sphinx::data {

/// Per-site network capacity in bytes/second.
struct LinkConfig {
  /// 10 MB/s default.
  double uplink_bps = 10e6;  // sphinx-lint-allow(test-only): the transfer model in this pair reads it
  double downlink_bps = 10e6;  // sphinx-lint-allow(test-only): the transfer model in this pair reads it
};

/// Aggregate transfer counters.
struct TransferStats {
  std::size_t started = 0;
  std::size_t completed = 0;
  std::size_t cancelled = 0;
  double bytes_moved = 0.0;  // sphinx-lint-allow(test-only): tests read the transfer counters
};

class TransferService {
 public:
  /// Callback receives the transfer id and the wall-clock duration the
  /// transfer actually took.
  using Callback = std::function<void(TransferId, Duration)>;

  explicit TransferService(sim::Engine& engine);
  /// The pending completion event holds `this`.
  TransferService(const TransferService&) = delete;
  TransferService& operator=(const TransferService&) = delete;

  /// Sets (or replaces) a site's link capacities.
  void set_link(SiteId site, LinkConfig link);
  [[nodiscard]] LinkConfig link(SiteId site) const;

  /// Starts a transfer of `bytes` from `src` to `dst`.  A transfer within
  /// one site completes immediately (local access).  The callback fires
  /// exactly once unless the transfer is cancelled.
  TransferId transfer(SiteId src, SiteId dst, double bytes, Callback done);

  /// Cancels an in-flight transfer; its callback never fires.
  void cancel(TransferId id);

  [[nodiscard]] std::size_t active() const noexcept { return flows_.size(); }
  [[nodiscard]] const TransferStats& stats() const noexcept { return stats_; }

  /// Contention-free lower bound on the duration of a transfer, used by
  /// planners for estimation.
  [[nodiscard]] Duration estimate(SiteId src, SiteId dst, double bytes) const;

 private:
  /// One site's attachment to the WAN: its link and how many in-flight
  /// flows leave (`uplinks`) and enter (`downlinks`) it.  The shares are
  /// rebalance()'s per-port working values.
  struct Port {
    LinkConfig link;
    int uplinks = 0;
    int downlinks = 0;
    double up_share = 0.0;
    double down_share = 0.0;
  };

  struct Flow {
    TransferId id;
    std::uint32_t src = 0;  ///< index into ports_
    std::uint32_t dst = 0;  ///< index into ports_
    double remaining = 0.0;
    double rate = 0.0;  ///< current bytes/sec
    SimTime started_at = 0.0;
    /// remaining/rate determined the pending completion event, so the
    /// flow is force-completed when it fires (guards against
    /// floating-point residues that would otherwise reschedule with
    /// ~zero progress).
    bool due = false;
    Callback done;
  };

  /// The port of `site`, added with the default link on first use.
  std::uint32_t port(SiteId site);
  /// Applies elapsed progress to every flow.
  void advance_to_now();
  /// Recomputes rates and reschedules the next completion.
  void rebalance();
  /// The completion event: retires due and drained flows, then fires
  /// their callbacks.
  void complete_due();

  sim::Engine& engine_;
  std::vector<Port> ports_;
  /// Site -> index into ports_; looked up, never iterated.
  std::unordered_map<SiteId, std::uint32_t> port_of_;
  /// Ascending id (ids are issued in increasing order, so a start
  /// appends).  Iteration feeds stats accumulation, completion scheduling
  /// and callbacks, all of which must replay identically under a fixed
  /// seed (rule ordered-escape).
  std::vector<Flow> flows_;
  IdGenerator<TransferId> ids_;
  SimTime last_update_ = 0.0;
  sim::EventHandle next_completion_;
  TransferStats stats_;
};

}  // namespace sphinx::data
