#include "data/gridftp.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace sphinx::data {
namespace {
constexpr double kEpsilonBytes = 1e-6;  // snap tiny residues to done
constexpr std::uint32_t kNoPair = 0xffffffff;
}

TransferService::TransferService(sim::Engine& engine) : engine_(engine) {}

std::uint32_t TransferService::port(SiteId site) {
  const auto [it, added] =
      port_of_.try_emplace(site, static_cast<std::uint32_t>(ports_.size()));
  if (added) ports_.emplace_back();
  return it->second;
}

std::uint32_t TransferService::pair_of(std::uint32_t src, std::uint32_t dst) {
  std::vector<std::uint32_t>& row = ports_[src].pair_to;
  if (row.size() <= dst) row.resize(dst + 1, kNoPair);
  if (row[dst] == kNoPair) {
    row[dst] = static_cast<std::uint32_t>(pairs_.size());
    Pair& pair = pairs_.emplace_back();
    pair.src = src;
    pair.dst = dst;
  }
  return row[dst];
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

  if (src == dst || bytes <= 0) {
    // Local replica: no WAN movement.  Complete on the next tick so the
    // caller's bookkeeping finishes first.
    engine_.schedule_in(0.0, "gridftp:local",
                        [done = std::move(done), id] { done(id, 0.0); });
    return id;
  }

  advance_to_now();
  const std::uint32_t src_port = port(src);
  const std::uint32_t dst_port = port(dst);
  const std::uint32_t p = pair_of(src_port, dst_port);
  std::uint32_t slot = 0;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  slots_[slot] = Slot{id, p, engine_.now(), std::move(done)};
  Pair& pair = pairs_[p];
  if (pair.lanes.empty()) active_pairs_.push_back(p);
  // The lanes were just advanced, so the new flow is ordered against
  // current values.
  const auto at = std::partition_point(
      pair.lanes.begin(), pair.lanes.end(),
      [bytes](const Lane& lane) { return lane.remaining >= bytes; });
  pair.lanes.insert(at, Lane{bytes, slot});
  ++ports_[src_port].uplinks;
  ++ports_[dst_port].downlinks;
  rebalance();
  return id;
}

void TransferService::cancel(TransferId id) {
  if (!id.valid()) return;  // free slots hold the invalid id
  const auto it = std::find_if(slots_.begin(), slots_.end(),
                               [id](const Slot& s) { return s.id == id; });
  if (it == slots_.end()) return;
  advance_to_now();
  const auto slot = static_cast<std::uint32_t>(it - slots_.begin());
  const std::uint32_t p = it->pair;
  Pair& pair = pairs_[p];
  pair.lanes.erase(std::find_if(
      pair.lanes.begin(), pair.lanes.end(),
      [slot](const Lane& lane) { return lane.slot == slot; }));
  if (pair.lanes.empty()) std::erase(active_pairs_, p);
  --ports_[pair.src].uplinks;
  --ports_[pair.dst].downlinks;
  free_slot(slot);
  rebalance();
}

void TransferService::free_slot(std::uint32_t slot) {
  slots_[slot] = Slot{};
  free_slots_.push_back(slot);
}

void TransferService::advance_to_now() {
  const SimTime now = engine_.now();
  const Duration dt = now - last_update_;
  if (dt > 0) {
    for (const std::uint32_t p : active_pairs_) {
      const double rate = pairs_[p].rate;
      for (Lane& lane : pairs_[p].lanes) {
        lane.remaining = std::max(0.0, lane.remaining - rate * dt);
      }
    }
  }
  last_update_ = now;
}

void TransferService::rebalance() {
  for (Port& p : ports_) {
    if (p.uplinks > 0) p.up_share = p.link.uplink_bps / p.uplinks;
    if (p.downlinks > 0) p.down_share = p.link.downlink_bps / p.downlinks;
  }
  // remaining / rate grows with remaining, so a pair's back lane has the
  // pair's soonest ETA.
  Duration soonest = kNever;
  for (const std::uint32_t p : active_pairs_) {
    Pair& pair = pairs_[p];
    pair.rate =
        std::min(ports_[pair.src].up_share, ports_[pair.dst].down_share);
    if (pair.rate <= 0) continue;
    pair.eta = pair.lanes.back().remaining / pair.rate;
    if (pair.eta < soonest) soonest = pair.eta;
  }

  engine_.cancel(next_completion_);
  next_completion_ = sim::EventHandle{};
  if (soonest == kNever) return;
  // Transfers whose ETA (numerically) equals the minimum are *due*: they
  // will be force-completed when the event fires, so floating-point
  // residue can never strand a transfer in a zero-progress reschedule
  // loop.  A small relative window also batches near-simultaneous ends.
  // The due lanes of a pair are a run at its back, so the test stops at
  // the first lane outside the window, and a pair whose back lane is
  // outside has none.  Every start, cancel and finish reschedules, so the
  // counts still describe the lanes when the event fires.
  const Duration window = soonest + 1e-9 * (1.0 + soonest);
  for (const std::uint32_t p : active_pairs_) {
    Pair& pair = pairs_[p];
    pair.due = 0;
    if (pair.rate <= 0 || pair.eta > window) continue;
    for (auto lane = pair.lanes.rbegin();
         lane != pair.lanes.rend() && lane->remaining / pair.rate <= window;
         ++lane) {
      ++pair.due;
    }
  }
  next_completion_ = engine_.schedule_in(soonest, "gridftp:done",
                                         [this] { complete_due(); });
}

void TransferService::complete_due() {
  advance_to_now();
  // Retire every due or drained flow (ties complete together).  Both are
  // runs at the back of their pair, so each pair retires one run, and a
  // pair left empty leaves the active list.
  std::vector<Slot> finished;
  std::size_t kept = 0;
  for (const std::uint32_t p : active_pairs_) {
    Pair& pair = pairs_[p];
    for (std::size_t retired = 0;
         !pair.lanes.empty() && (retired < pair.due ||
                                 pair.lanes.back().remaining <= kEpsilonBytes);
         ++retired) {
      finished.push_back(std::move(slots_[pair.lanes.back().slot]));
      free_slot(pair.lanes.back().slot);
      pair.lanes.pop_back();
      --ports_[pair.src].uplinks;
      --ports_[pair.dst].downlinks;
    }
    if (!pair.lanes.empty()) active_pairs_[kept++] = p;
  }
  active_pairs_.resize(kept);
  std::sort(finished.begin(), finished.end(),
            [](const Slot& a, const Slot& b) { return a.id < b.id; });
  // Callbacks may start transfers, so they fire only after the survivors
  // are rebalanced.
  rebalance();
  for (Slot& f : finished) f.done(f.id, engine_.now() - f.started_at);
}

}  // namespace sphinx::data
