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
/// link and live flow counts, and the two ports to their *pair* through a
/// flat per-port row, with no hashing.  In-flight flows are grouped by
/// pair: every flow of a pair gets the same rate, and each pair keeps its
/// flows sorted by remaining bytes.  A start, cancel or finish therefore
/// computes one rate and one ETA per active pair and retires flows from
/// the small end of each pair; only the progress step visits every flow.
/// Determinism contract: the per-flow arithmetic is unchanged (each
/// flow's `max(0, remaining - rate*dt)` at each of those events, its ETA
/// `remaining / rate` and the due test against one window), and finished
/// flows' callbacks fire in id order.  Completion times and every figure
/// depend on exactly that arithmetic and that order.

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

  [[nodiscard]] std::size_t active() const noexcept {
    return slots_.size() - free_slots_.size();
  }

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
    /// Destination port -> index into pairs_ (kNoPair: none yet).
    std::vector<std::uint32_t> pair_to;
  };

  /// One in-flight flow as its pair orders it.
  struct Lane {
    double remaining = 0.0;
    std::uint32_t slot = 0;  ///< index into slots_
  };

  /// The in-flight flows from one port to another.  They share one rate,
  /// so progress never reorders them: `lanes` stays sorted by remaining
  /// bytes, descending, and the flow that ends first is at the back.
  struct Pair {
    std::uint32_t src = 0;  ///< index into ports_
    std::uint32_t dst = 0;  ///< index into ports_
    double rate = 0.0;  ///< current bytes/sec of each flow
    Duration eta = kNever;  ///< the back lane's, as of the last rebalance
    /// The last `due` lanes are due: remaining/rate determined the
    /// pending completion event, so they are force-completed when it
    /// fires (guards against floating-point residues that would otherwise
    /// reschedule with ~zero progress).
    std::size_t due = 0;
    std::vector<Lane> lanes;
  };

  /// What a flow needs only when it starts, is cancelled or finishes.
  struct Slot {
    TransferId id;  ///< invalid while the slot is free
    std::uint32_t pair = 0;  ///< index into pairs_
    SimTime started_at = 0.0;
    Callback done;
  };

  /// The port of `site`, added with the default link on first use.
  std::uint32_t port(SiteId site);
  /// The pair from port `src` to port `dst`, added on first use.
  std::uint32_t pair_of(std::uint32_t src, std::uint32_t dst);
  /// Clears a flow's slot (dropping its callback) and returns it to the
  /// free list.
  void free_slot(std::uint32_t slot);
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
  std::vector<Pair> pairs_;
  /// The pairs with flows in flight, in no meaningful order: nothing
  /// reads it in order (the soonest ETA is a minimum, and callbacks fire
  /// in id order).
  std::vector<std::uint32_t> active_pairs_;
  /// Cancel scans it for an id; cancels are rare (a job removed while
  /// its inputs stage in), so starts and finishes stay free of hashing.
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  IdGenerator<TransferId> ids_;
  SimTime last_update_ = 0.0;
  sim::EventHandle next_completion_;
};

}  // namespace sphinx::data
