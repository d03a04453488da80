#include "data/gridftp.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace sphinx::data {
namespace {
constexpr double kEpsilonBytes = 1e-6;  // snap tiny residues to done
}

TransferService::TransferService(sim::Engine& engine) : engine_(engine) {}

std::uint32_t TransferService::port(SiteId site) {
  const auto [it, added] =
      port_of_.try_emplace(site, static_cast<std::uint32_t>(ports_.size()));
  if (added) ports_.emplace_back();
  return it->second;
}

void TransferService::set_link(SiteId site, LinkConfig link) {
  SPHINX_ASSERT(link.uplink_bps > 0 && link.downlink_bps > 0,
                "link capacities must be positive");
  const std::uint32_t p = port(site);
  ports_[p].link = link;
}

LinkConfig TransferService::link(SiteId site) const {
  const auto it = port_of_.find(site);
  return it == port_of_.end() ? LinkConfig{} : ports_[it->second].link;
}

Duration TransferService::estimate(SiteId src, SiteId dst,
                                   double bytes) const {
  if (src == dst || bytes <= 0) return 0.0;
  const double rate = std::min(link(src).uplink_bps, link(dst).downlink_bps);
  return bytes / rate;
}

TransferId TransferService::transfer(SiteId src, SiteId dst, double bytes,
                                     Callback done) {
  SPHINX_ASSERT(done != nullptr, "transfer callback must not be null");
  SPHINX_ASSERT(bytes >= 0, "transfer size must be non-negative");
  const TransferId id = ids_.next();
  ++stats_.started;

  if (src == dst || bytes <= 0) {
    // Local replica: no WAN movement.  Complete on the next tick so the
    // caller's bookkeeping finishes first.
    ++stats_.completed;
    stats_.bytes_moved += bytes;
    engine_.schedule_in(0.0, "gridftp:local",
                        [done = std::move(done), id] { done(id, 0.0); });
    return id;
  }

  advance_to_now();
  Flow flow;
  flow.id = id;
  flow.src = port(src);
  flow.dst = port(dst);
  flow.remaining = bytes;
  flow.started_at = engine_.now();
  flow.done = std::move(done);
  ++ports_[flow.src].uplinks;
  ++ports_[flow.dst].downlinks;
  flows_.push_back(std::move(flow));
  rebalance();
  return id;
}

void TransferService::cancel(TransferId id) {
  const auto it = std::lower_bound(
      flows_.begin(), flows_.end(), id,
      [](const Flow& f, TransferId key) { return f.id < key; });
  if (it == flows_.end() || it->id != id) return;
  advance_to_now();
  --ports_[it->src].uplinks;
  --ports_[it->dst].downlinks;
  flows_.erase(it);
  ++stats_.cancelled;
  rebalance();
}

void TransferService::advance_to_now() {
  const SimTime now = engine_.now();
  const Duration dt = now - last_update_;
  if (dt > 0) {
    for (Flow& f : flows_) {
      f.remaining = std::max(0.0, f.remaining - f.rate * dt);
      stats_.bytes_moved += f.rate * dt;
    }
  }
  last_update_ = now;
}

void TransferService::rebalance() {
  for (Port& p : ports_) {
    if (p.uplinks > 0) p.up_share = p.link.uplink_bps / p.uplinks;
    if (p.downlinks > 0) p.down_share = p.link.downlink_bps / p.downlinks;
  }
  Duration soonest = kNever;
  for (Flow& f : flows_) {
    f.rate = std::min(ports_[f.src].up_share, ports_[f.dst].down_share);
    if (f.rate <= 0) continue;
    const Duration eta = f.remaining / f.rate;
    if (eta < soonest) soonest = eta;
  }

  engine_.cancel(next_completion_);
  next_completion_ = sim::EventHandle{};
  if (soonest == kNever) return;
  // Transfers whose ETA (numerically) equals the minimum are *due*: they
  // will be force-completed when the event fires, so floating-point
  // residue can never strand a transfer in a zero-progress reschedule
  // loop.  A small relative window also batches near-simultaneous ends.
  // Every start, cancel and finish reschedules, so the flags still
  // describe flows_ when the event fires.
  const Duration window = soonest + 1e-9 * (1.0 + soonest);
  for (Flow& f : flows_) {
    f.due = f.rate > 0 && f.remaining / f.rate <= window;
  }
  next_completion_ = engine_.schedule_in(soonest, "gridftp:complete",
                                         [this] { complete_due(); });
}

void TransferService::complete_due() {
  advance_to_now();
  // Retire every due or drained flow (ties complete together), compacting
  // the survivors in place so they keep their id order.
  std::vector<Flow> finished;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    Flow& f = flows_[i];
    if (f.due || f.remaining <= kEpsilonBytes) {
      --ports_[f.src].uplinks;
      --ports_[f.dst].downlinks;
      finished.push_back(std::move(f));
    } else {
      if (kept != i) flows_[kept] = std::move(f);
      ++kept;
    }
  }
  flows_.resize(kept);
  // Callbacks may start transfers, so they fire only after the survivors
  // are rebalanced.
  rebalance();
  for (Flow& f : finished) {
    ++stats_.completed;
    f.done(f.id, engine_.now() - f.started_at);
  }
}

}  // namespace sphinx::data
