// Property-style tests: invariants that must hold across randomized
// inputs and operation sequences (parameterized by seed).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cctype>
#include <cmath>
#include <concepts>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "chaos/campaign.hpp"
#include "chaos/schedule.hpp"
#include "common/hash.hpp"
#include "common/stats.hpp"
#include "core/warehouse.hpp"
#include "ctrl/lease.hpp"
#include "ctrl/renew.hpp"
#include "data/gridftp.hpp"
#include "data/rls.hpp"
#include "db/database.hpp"
#include "exp/scenario.hpp"
#include "grid/site.hpp"
#include "image_reference.hpp"
#include "obs/recorder.hpp"
#include "rls_reference.hpp"
#include "rpc/clarens.hpp"
#include "rpc/xmlrpc.hpp"
#include "sim/engine.hpp"
#include "submission_reference.hpp"
#include "submit/condor_g.hpp"
#include "trace_reference.hpp"
#include "warehouse_reference.hpp"
#include "wire_reference.hpp"
#include "workflow/generator.hpp"

namespace sphinx {
namespace {

class SeededProperty : public ::testing::TestWithParam<std::uint64_t> {};

// --- engine determinism ---------------------------------------------------

TEST_P(SeededProperty, EngineRunsAreBitIdentical) {
  const auto trace = [&](std::uint64_t seed) {
    sim::Engine engine;
    Rng rng(seed);
    std::vector<double> fired_times;
    // A random mix of plain events, chains and cancellations.
    std::vector<sim::EventHandle> handles;
    for (int i = 0; i < 200; ++i) {
      handles.push_back(engine.schedule_at(
          rng.uniform(0, 1000), "e",
          [&fired_times, &engine] { fired_times.push_back(engine.now()); }));
    }
    for (int i = 0; i < 50; ++i) {
      engine.cancel(handles[static_cast<std::size_t>(
          rng.uniform_int(0, 199))]);
    }
    engine.run_until();
    return fired_times;
  };
  EXPECT_EQ(trace(GetParam()), trace(GetParam()));
}

// --- transfer byte conservation -------------------------------------------

TEST_P(SeededProperty, TransferServiceConservesBytes) {
  sim::Engine engine;
  data::TransferService transfers(engine);
  Rng rng(GetParam());
  for (std::uint64_t s = 1; s <= 6; ++s) {
    transfers.set_link(SiteId(s), {rng.uniform(2e6, 30e6),
                                   rng.uniform(2e6, 30e6)});
  }
  double requested = 0.0;
  double completed_bytes = 0.0;
  std::vector<std::pair<TransferId, double>> started;
  std::map<std::uint64_t, int> fired;  // id -> callbacks
  std::set<std::uint64_t> cancelled;
  int beat_bound = 0;
  for (int i = 0; i < 120; ++i) {
    const double bytes = rng.uniform(1e6, 2e8);
    const auto src = SiteId(static_cast<std::uint64_t>(rng.uniform_int(1, 6)));
    const auto dst = SiteId(static_cast<std::uint64_t>(rng.uniform_int(1, 6)));
    engine.schedule_at(rng.uniform(0, 500), "start", [&, src, dst, bytes] {
      requested += bytes;
      const auto on_done = [&, src, dst, bytes](TransferId id, Duration took) {
        completed_bytes += bytes;
        ++fired[id.value()];
        // No flow outruns its contention-free rate r.  A flow may end
        // early by the due window (1e-9 relative, on an ETA no longer than
        // the flow took) or by the 1e-6-byte snap, 1e-6 / r seconds.
        const double r = std::min(transfers.link(src).uplink_bps,
                                  transfers.link(dst).downlink_bps);
        const Duration slack = 1e-9 * (1.0 + took) + 1e-6 / r;
        if (took < transfers.estimate(src, dst, bytes) - slack) ++beat_bound;
      };
      const TransferId id = transfers.transfer(src, dst, bytes, on_done);
      started.emplace_back(id, bytes);
    });
  }
  // Random cancellations along the way.
  for (int i = 0; i < 20; ++i) {
    engine.schedule_at(rng.uniform(100, 400), "cancel", [&] {
      if (started.empty()) return;
      const TransferId id =
          started[static_cast<std::size_t>(rng.uniform_int(
                      0, static_cast<std::int64_t>(started.size() - 1)))]
              .first;
      const std::size_t before = transfers.active();
      transfers.cancel(id);
      if (transfers.active() < before) cancelled.insert(id.value());
    });
  }
  engine.run_until();
  EXPECT_EQ(transfers.active(), 0u);
  EXPECT_EQ(started.size(), 120u);
  EXPECT_LE(completed_bytes, requested + 1.0);
  // Every callback fired once, and only for transfers not cancelled.
  EXPECT_EQ(fired.size(), started.size() - cancelled.size());
  for (const auto& [id, bytes] : started) {
    const auto it = fired.find(id.value());
    EXPECT_EQ(it == fired.end() ? 0 : it->second,
              cancelled.contains(id.value()) ? 0 : 1)
        << "transfer " << id.value();
  }
  EXPECT_EQ(beat_bound, 0);
}

// --- transfer model exactness ---------------------------------------------

/// The map-based fluid model that data::TransferService replaced, kept as
/// a reference implementation: flow counts rebuilt in hash maps and a
/// link lookup per flow at every rebalance, flows in an id-ordered
/// std::map.  TransferService must reproduce it bit for bit.
class ReferenceTransferService {
 public:
  using Callback = data::TransferService::Callback;

  explicit ReferenceTransferService(sim::Engine& engine) : engine_(engine) {}

  void set_link(SiteId site, data::LinkConfig link) { links_[site] = link; }

  [[nodiscard]] data::LinkConfig link(SiteId site) const {
    const auto it = links_.find(site);
    return it == links_.end() ? data::LinkConfig{} : it->second;
  }

  TransferId transfer(SiteId src, SiteId dst, double bytes, Callback done) {
    const TransferId id = ids_.next();
    if (src == dst || bytes <= 0) {
      engine_.schedule_in(0.0, "gridftp:local",
                          [done = std::move(done), id] { done(id, 0.0); });
      return id;
    }
    advance_to_now();
    Active a;
    a.src = src;
    a.dst = dst;
    a.remaining = bytes;
    a.started_at = engine_.now();
    a.done = std::move(done);
    active_.emplace(id, std::move(a));
    rebalance();
    return id;
  }

  void cancel(TransferId id) {
    const auto it = active_.find(id);
    if (it == active_.end()) return;
    advance_to_now();
    active_.erase(it);
    rebalance();
  }

  [[nodiscard]] std::size_t active() const noexcept { return active_.size(); }

  /// Whether in-flight `id` has flows of its own link pair on both sides
  /// of it in remaining-bytes order.
  [[nodiscard]] bool inside_its_pair(TransferId id) const {
    const auto it = active_.find(id);
    if (it == active_.end()) return false;
    const Active& flow = it->second;
    bool smaller = false;
    bool larger = false;
    for (const auto& [other, a] : active_) {
      if (a.src != flow.src || a.dst != flow.dst) continue;
      smaller = smaller || a.remaining < flow.remaining;
      larger = larger || a.remaining > flow.remaining;
    }
    return smaller && larger;
  }

 private:
  struct Active {
    SiteId src;
    SiteId dst;
    double remaining = 0.0;
    double rate = 0.0;
    SimTime started_at = 0.0;
    Callback done;
  };

  void advance_to_now() {
    const SimTime now = engine_.now();
    const Duration dt = now - last_update_;
    if (dt > 0) {
      for (auto& [id, a] : active_) {
        a.remaining = std::max(0.0, a.remaining - a.rate * dt);
      }
    }
    last_update_ = now;
  }

  void rebalance() {
    std::unordered_map<SiteId, int> up_count;
    std::unordered_map<SiteId, int> down_count;
    for (const auto& [id, a] : active_) {
      ++up_count[a.src];
      ++down_count[a.dst];
    }
    for (auto& [id, a] : active_) {
      const double up_share = link(a.src).uplink_bps / up_count[a.src];
      const double down_share = link(a.dst).downlink_bps / down_count[a.dst];
      a.rate = std::min(up_share, down_share);
    }
    schedule_next_completion();
  }

  void schedule_next_completion() {
    engine_.cancel(next_completion_);
    next_completion_ = sim::EventHandle{};
    due_.clear();
    if (active_.empty()) return;
    Duration soonest = kNever;
    for (const auto& [id, a] : active_) {
      if (a.rate <= 0) continue;
      const Duration eta = a.remaining / a.rate;
      if (eta < soonest) soonest = eta;
    }
    if (soonest == kNever) return;
    const Duration window = soonest + 1e-9 * (1.0 + soonest);
    for (const auto& [id, a] : active_) {
      if (a.rate > 0 && a.remaining / a.rate <= window) due_.push_back(id);
    }
    next_completion_ =
        engine_.schedule_in(soonest, "gridftp:complete", [this] {
          advance_to_now();
          for (const TransferId id : due_) {
            const auto it = active_.find(id);
            if (it != active_.end()) it->second.remaining = 0.0;
          }
          std::vector<std::pair<TransferId, Active>> finished;
          for (auto it = active_.begin(); it != active_.end();) {
            if (it->second.remaining <= 1e-6) {
              finished.emplace_back(it->first, std::move(it->second));
              it = active_.erase(it);
            } else {
              ++it;
            }
          }
          rebalance();
          for (auto& [id, a] : finished) {
            a.done(id, engine_.now() - a.started_at);
          }
        });
  }

  sim::Engine& engine_;
  // Looked up, never iterated.
  std::unordered_map<SiteId, data::LinkConfig> links_;
  std::map<TransferId, Active> active_;
  IdGenerator<TransferId> ids_;
  SimTime last_update_ = 0.0;
  sim::EventHandle next_completion_;
  std::vector<TransferId> due_;
};

/// What one drive of a transfer model observed, plus how much of each
/// awkward case the seeded schedule actually exercised.
struct TransferTrace {
  /// (id, duration, sim time) per callback, in firing order.
  std::vector<std::tuple<std::uint64_t, Duration, SimTime>> completions;
  std::size_t active = 0;
  int cancels_live = 0;
  int cancels_finished = 0;
  int cancels_unknown = 0;
  int ties = 0;  ///< WAN completions sharing a time and duration
  /// WAN completions while an earlier-started flow of the same link pair
  /// is still in flight.
  int overtakes = 0;
  /// WAN starts on a link pair whose earlier flows have all left.
  int refills = 0;
  /// Live cancels of a flow with flows of its pair on both sides of it in
  /// remaining-bytes order (counted on the reference drive only).
  int cancels_inside = 0;
  sim::EventHandle next_event;
};

template <typename Service>
TransferTrace drive_transfer_model(std::uint64_t seed) {
  constexpr std::uint64_t kSites = 7;  // site 7 starts on the default link
  sim::Engine engine;
  Service transfers(engine);
  Rng rng(seed);
  for (std::uint64_t s = 1; s < kSites; ++s) {
    transfers.set_link(SiteId(s), {rng.uniform(2e6, 30e6),
                                   rng.uniform(2e6, 30e6)});
  }
  TransferTrace trace;
  std::uint64_t last_issued = 0;
  std::vector<bool> finished(1, false);
  int follow_ups = 80;
  const auto site = [&] {
    return SiteId(static_cast<std::uint64_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(kSites))));
  };
  // The WAN flows in flight per (src, dst) link pair, and each one's pair.
  using Route = std::pair<std::uint64_t, std::uint64_t>;
  std::map<Route, std::set<std::uint64_t>> in_flight;
  std::map<std::uint64_t, Route> route_of;
  // Completion callbacks record themselves and sometimes start a
  // follow-up transfer (local, empty or WAN), re-entering transfer().
  std::function<void(TransferId, Duration)> done;
  const auto start = [&](SiteId src, SiteId dst, double bytes) {
    last_issued = transfers.transfer(src, dst, bytes, done).value();
    finished.resize(last_issued + 1, false);
    if (src == dst || bytes <= 0) return;
    const Route route{src.value(), dst.value()};
    const auto [flows, added] = in_flight.try_emplace(route);
    if (!added && flows->second.empty()) ++trace.refills;
    flows->second.insert(last_issued);
    route_of.emplace(last_issued, route);
  };
  const auto cancel = [&](std::uint64_t id) {
    bool inside = false;
    if constexpr (std::is_same_v<Service, ReferenceTransferService>) {
      inside = transfers.inside_its_pair(TransferId(id));
    }
    const std::size_t before = transfers.active();
    transfers.cancel(TransferId(id));
    if (transfers.active() < before) {
      ++trace.cancels_live;
      if (inside) ++trace.cancels_inside;
      in_flight[route_of.at(id)].erase(id);
    } else if (id > last_issued) {
      ++trace.cancels_unknown;
    } else if (finished[id]) {
      ++trace.cancels_finished;
    }
  };
  done = [&](TransferId id, Duration took) {
    const auto& prev = trace.completions;
    if (took > 0 && !prev.empty() && std::get<1>(prev.back()) == took &&
        std::get<2>(prev.back()) == engine.now()) {
      ++trace.ties;
    }
    trace.completions.emplace_back(id.value(), took, engine.now());
    finished[id.value()] = true;
    if (const auto route = route_of.find(id.value()); route != route_of.end()) {
      std::set<std::uint64_t>& flows = in_flight[route->second];
      if (*flows.begin() < id.value()) ++trace.overtakes;
      flows.erase(id.value());
    }
    const std::uint64_t k = id.value();
    if (k % 3 == 0 && follow_ups > 0) {
      --follow_ups;
      start(SiteId(1 + k % kSites), SiteId(1 + (k / 3) % kSites),
            k % 5 == 0 ? 0.0 : 1e6 * static_cast<double>(1 + k % 40));
    }
  };

  for (int i = 0; i < 150; ++i) {
    const SiteId src = site();
    const SiteId dst = site();
    const double bytes = rng.chance(0.1) ? 0.0 : rng.uniform(1e5, 2e8);
    engine.schedule_at(rng.uniform(0, 600), "start",
                       [&, src, dst, bytes] { start(src, dst, bytes); });
  }
  // Bursts over one link pair, so rates are identical: two transfers of
  // equal size (their ETAs tie exactly) and two a relative 1e-12 larger,
  // which finish inside the due window and are force-completed with them.
  for (int burst = 0; burst < 4; ++burst) {
    const SiteId src = SiteId(1 + static_cast<std::uint64_t>(burst));
    const SiteId dst = SiteId(6 - static_cast<std::uint64_t>(burst));
    const double bytes = rng.uniform(1e6, 5e7);
    engine.schedule_at(rng.uniform(0, 600), "burst", [&, src, dst, bytes] {
      for (int j = 0; j < 4; ++j) {
        start(src, dst, bytes * (1.0 + static_cast<double>(j / 2) * 1e-12));
      }
    });
  }
  // Cancels hit either any id up to well past the last one issued, or
  // one of the few most recent ids, which is likely still in flight.
  for (int i = 0; i < 60; ++i) {
    const bool recent = rng.chance(0.5);
    const auto pick = static_cast<std::uint64_t>(
        recent ? rng.uniform_int(0, 4) : rng.uniform_int(1, 320));
    engine.schedule_at(rng.uniform(0, 900), "cancel", [&, recent, pick] {
      const std::uint64_t id =
          recent ? last_issued - std::min(pick, last_issued) : pick;
      cancel(id);
    });
  }
  // Capacities change under live flows; rates follow at the next event.
  engine.schedule_at(rng.uniform(200, 400), "relink", [&] {
    transfers.set_link(SiteId(1), {rng.uniform(2e6, 30e6),
                                   rng.uniform(2e6, 30e6)});
    transfers.set_link(SiteId(kSites), {4e6, 9e6});
  });
  // A ladder on one link pair: three flows start together, largest first,
  // and a second later the middle one is cancelled from between the
  // other two (none of them can finish within a second).
  engine.schedule_at(300.0, "ladder", [&] {
    for (const double bytes : {9e7, 6e7, 3e7}) {
      start(SiteId(2), SiteId(5), bytes);
    }
    const std::uint64_t middle = last_issued - 1;
    engine.schedule_in(1.0, "ladder-cancel", [&, middle] { cancel(middle); });
  });
  engine.run_until();
  trace.active = transfers.active();
  // Handles are issued in sequence, so this one counts the events the
  // model scheduled.
  trace.next_event = engine.schedule_in(0.0, "probe", [] {});
  return trace;
}

TEST_P(SeededProperty, TransferServiceMatchesReferenceModelExactly) {
  const TransferTrace want =
      drive_transfer_model<ReferenceTransferService>(GetParam());
  const TransferTrace got = drive_transfer_model<data::TransferService>(
      GetParam());
  // The schedule reached every awkward case.
  EXPECT_GT(want.cancels_live, 0);
  EXPECT_GT(want.cancels_finished, 0);
  EXPECT_GT(want.cancels_unknown, 0);
  EXPECT_GT(want.ties, 0);
  EXPECT_GT(want.overtakes, 0);
  EXPECT_GT(want.refills, 0);
  EXPECT_GT(want.cancels_inside, 0);
  EXPECT_TRUE(std::any_of(want.completions.begin(), want.completions.end(),
                          [](const auto& c) { return std::get<1>(c) == 0.0; }));
  // Bit-identical: == on every double, no tolerance.
  EXPECT_EQ(got.completions, want.completions);
  EXPECT_EQ(got.cancels_live, want.cancels_live);
  EXPECT_EQ(got.cancels_finished, want.cancels_finished);
  EXPECT_EQ(got.cancels_unknown, want.cancels_unknown);
  EXPECT_EQ(got.active, 0u);
  EXPECT_EQ(want.active, 0u);
  EXPECT_TRUE(got.next_event == want.next_event);
}

// --- site CPU accounting under chaos ---------------------------------------

TEST_P(SeededProperty, SiteAccountingSurvivesChaos) {
  sim::Engine engine;
  grid::SiteConfig config;
  config.name = "chaos";
  config.cpus = 8;
  config.runtime_noise = 0.2;
  grid::Site site(engine, SiteId(1), config, Rng(GetParam()));
  Rng rng(GetParam() ^ 0xabcdef);

  std::vector<SubmissionId> live;
  std::size_t events_after_terminal = 0;
  std::unordered_map<std::uint64_t, bool> terminal;

  for (int i = 0; i < 300; ++i) {
    engine.schedule_at(rng.uniform(0, 2000), "op", [&] {
      const double dice = rng.uniform();
      if (dice < 0.55) {
        grid::RemoteJob job;
        job.compute_time = rng.uniform(10, 300);
        job.vo = rng.chance(0.5) ? "uscms" : "background";
        const auto sid = site.submit(std::move(job), [&](const grid::JobEvent& e) {
          if (terminal[e.submission.value()]) ++events_after_terminal;
          if (grid::is_terminal(e.state)) terminal[e.submission.value()] = true;
        });
        if (sid.has_value()) live.push_back(*sid);
      } else if (dice < 0.75 && !live.empty()) {
        (void)site.cancel(live[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(live.size() - 1)))]);
      } else if (dice < 0.82) {
        site.go_down();
      } else if (dice < 0.89) {
        site.become_black_hole();
      } else if (dice < 0.93) {
        site.degrade();
      } else {
        site.recover();
      }
      // Invariant: the queue report never exceeds physical CPUs.
      if (const auto q = site.query(); q.has_value()) {
        EXPECT_GE(q->running, 0);
        EXPECT_LE(q->running, config.cpus);
        EXPECT_GE(q->queued, 0);
        EXPECT_EQ(q->free_cpus, q->cpus - q->running);
      }
    });
  }
  engine.run_until(hours(24));
  EXPECT_EQ(events_after_terminal, 0u) << "events emitted after terminal state";
  // Count algebra: no more submissions end than were accepted.
  const auto ended =
      std::count_if(terminal.begin(), terminal.end(),
                    [](const auto& entry) { return entry.second; });
  EXPECT_LE(static_cast<std::size_t>(ended), live.size());
}

// --- the submission path against the never-retiring reference --------------

/// What one drive of a submission path (sites plus a Condor-G gateway)
/// observed, plus how much of each awkward case the schedule reached.
struct SubmissionTrace {
  /// (what, id, attempt, state, sim time, answer, flag) per observation:
  /// a gateway event with the gateway's state_of and site_responsive for
  /// its attempt, asked from inside the callback; a site event of a
  /// direct submission; a probe of a live attempt; and the result of
  /// every submit and cancel.
  using Observation =
      std::tuple<char, std::uint64_t, int, int, SimTime, int, bool>;
  std::vector<Observation> log;
  int staged = 0;
  int unstaged = 0;
  int two_live = 0;  ///< a new attempt of a job with one still live
  int cancels_live = 0;
  int cancels_finished = 0;
  int cancels_unknown = 0;
  int cancels_in_staging = 0;
  int cancels_in_running = 0;
  int site_cancels_in_callback = 0;
  int resubmits_in_failed = 0;
  int resubmits_in_removed = 0;
  int downs_while_staging = 0;
  int downs_while_running = 0;
  int black_holes = 0;
  int degrades = 0;
  int recovers = 0;
  std::size_t active_transfers = 0;
  sim::EventHandle next_event;
};

template <typename Grid, typename Gateway>
SubmissionTrace drive_submission_path(std::uint64_t seed) {
  using submit::GatewayJobState;
  using Key = std::pair<std::uint64_t, int>;
  constexpr int kSites = 3;
  constexpr SimTime kSpan = 4000.0;
  sim::Engine engine;
  Grid grid(engine, SeedTree(seed));
  Rng rng(seed ^ 0x51de5eedull);
  std::vector<SiteId> sites;
  for (int i = 0; i < kSites; ++i) {
    grid::SiteSpec spec;
    spec.site.name = std::string("site-") + static_cast<char>('a' + i);
    spec.site.cpus = 2 + i;
    spec.site.runtime_noise = 0.2;
    spec.site.vo_priority["atlas"] = 1.0;
    sites.push_back(grid.add_site(spec));
  }
  data::TransferService transfers(engine);
  for (const SiteId site : sites) {
    transfers.set_link(site, {rng.uniform(2e6, 20e6), rng.uniform(2e6, 20e6)});
  }
  data::ReplicaLocationService rls;
  Gateway gateway(grid, transfers, rls, "gw");
  SubmissionTrace trace;
  const auto pick_site = [&] {
    return sites[static_cast<std::size_t>(rng.uniform_int(0, kSites - 1))];
  };
  const auto state_code = [](std::optional<GatewayJobState> state) {
    return state.has_value() ? static_cast<int>(*state) : -1;
  };

  // The schedule's own view of each attempt: live until its terminal event.
  struct Attempt {
    submit::SubmitRequest request;
    GatewayJobState last = GatewayJobState::kSubmitted;
    bool live = false;
    bool cancel_in_staging = false;
    bool cancel_in_running = false;
    int resubmits_left = 0;
  };
  std::map<Key, Attempt> attempts;
  std::map<std::uint64_t, int> next_attempt;
  std::vector<Key> finished;
  // Keys are taken by value: the reference destroys a replaced record's
  // callback, whose captured key would dangle, from inside its own call.
  std::function<void(Key, const submit::GatewayEvent&)> on_event;
  const auto submit = [&](Key key) {
    Attempt& attempt = attempts.at(key);
    attempt.live = true;
    attempt.last = GatewayJobState::kSubmitted;
    const bool accepted = gateway.submit(
        attempt.request,
        [&on_event, key](const submit::GatewayEvent& e) { on_event(key, e); });
    trace.log.emplace_back('S', key.first, key.second, 0, engine.now(), 0,
                           accepted);
    return accepted;
  };
  const auto cancel = [&](Key key) {
    const bool removed = gateway.cancel(JobId(key.first), key.second);
    trace.log.emplace_back('C', key.first, key.second, 0, engine.now(), 0,
                           removed);
    return removed;
  };
  on_event = [&](Key key, const submit::GatewayEvent& e) {
    const JobId job = JobId(key.first);
    trace.log.emplace_back(
        'G', e.job.value(), e.attempt, static_cast<int>(e.state), e.at,
        state_code(gateway.state_of(job, key.second)),
        gateway.site_responsive(job, key.second));
    Attempt& attempt = attempts.at(key);
    attempt.last = e.state;
    switch (e.state) {
      case GatewayJobState::kStaging:
        if (attempt.cancel_in_staging && cancel(key)) {
          ++trace.cancels_in_staging;
        }
        return;
      case GatewayJobState::kRunning:
        if (attempt.cancel_in_running && cancel(key)) {
          ++trace.cancels_in_running;
        }
        return;
      case GatewayJobState::kCompleted:
      case GatewayJobState::kHeld:
        attempt.live = false;
        finished.push_back(key);
        return;
      case GatewayJobState::kFailed:
      case GatewayJobState::kRemoved:
        attempt.live = false;
        finished.push_back(key);
        // DAGMan's retry: the same (job, attempt) again, re-placed, from
        // inside the relay of the attempt it replaces.
        if (attempt.resubmits_left > 0) {
          --attempt.resubmits_left;
          ++(e.state == GatewayJobState::kFailed ? trace.resubmits_in_failed
                                                 : trace.resubmits_in_removed);
          attempt.request.site = pick_site();
          submit(key);
        }
        return;
      default:
        return;
    }
  };

  // Gateway submissions: staged or not, some onto a site that is down,
  // some racing a live attempt of the same job.
  const auto down_site = [&]() -> std::optional<SiteId> {
    for (const SiteId site : sites) {
      if (!grid.site(site).query().has_value()) return site;
    }
    return std::nullopt;
  };
  for (int i = 0; i < 220; ++i) {
    engine.schedule_at(rng.uniform(0, kSpan), "submit", [&] {
      const auto job = static_cast<std::uint64_t>(rng.uniform_int(1, 40));
      for (const auto& [key, attempt] : attempts) {
        if (key.first == job && attempt.live) {
          ++trace.two_live;
          break;
        }
      }
      const Key key{job, ++next_attempt[job]};
      Attempt attempt;
      submit::SubmitRequest& request = attempt.request;
      request.job = JobId(job);
      request.name = "job-" + std::to_string(job);
      request.user = UserId(1);
      request.vo = rng.chance(0.3) ? "atlas" : "uscms";
      request.priority = rng.uniform(-1.0, 1.0);
      request.compute_time = rng.uniform(20, 400);
      request.attempt = key.second;
      const auto down = down_site();
      request.site = down.has_value() && rng.chance(0.3) ? *down : pick_site();
      if (rng.chance(0.6)) {
        const auto inputs = rng.uniform_int(1, 3);
        for (std::int64_t k = 0; k < inputs; ++k) {
          const double draw = rng.uniform();
          const SiteId source = draw < 0.15 ? request.site : pick_site();
          const double bytes = draw > 0.9 ? 0.0 : rng.uniform(5e7, 6e8);
          request.inputs.push_back(
              {"lfn://in/" + std::to_string(k), source, bytes});
        }
      }
      request.output = "lfn://out/" + std::to_string(job) + "." +
                       std::to_string(key.second);
      request.output_bytes = rng.uniform(1e5, 1e7);
      attempt.cancel_in_staging = rng.chance(0.1);
      attempt.cancel_in_running = rng.chance(0.1);
      attempt.resubmits_left = rng.chance(0.5) ? 2 : 0;
      const bool staged = !request.inputs.empty();
      attempts.emplace(key, std::move(attempt));
      if (submit(key)) ++(staged ? trace.staged : trace.unstaged);
    });
  }
  // Cancels of a live attempt (probed first), a finished one and one the
  // gateway never saw.
  for (int i = 0; i < 90; ++i) {
    engine.schedule_at(rng.uniform(0, kSpan + 600), "cancel", [&] {
      const double draw = rng.uniform();
      if (draw < 0.5) {
        std::vector<Key> live;
        for (const auto& [key, attempt] : attempts) {
          if (attempt.live) live.push_back(key);
        }
        if (live.empty()) return;
        const Key key = live[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(live.size() - 1)))];
        const JobId job = JobId(key.first);
        trace.log.emplace_back('P', key.first, key.second, 0, engine.now(),
                               state_code(gateway.state_of(job, key.second)),
                               gateway.site_responsive(job, key.second));
        if (cancel(key)) ++trace.cancels_live;
      } else if (draw < 0.8) {
        if (finished.empty()) return;
        const Key key = finished[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(finished.size() - 1)))];
        if (attempts.at(key).live) return;  // resubmitted since
        if (!cancel(key)) ++trace.cancels_finished;
      } else {
        const Key key{rng.chance(0.5) ? 999u : 1u, rng.chance(0.5) ? 99 : 0};
        if (!cancel(key)) ++trace.cancels_unknown;
      }
    });
  }
  // Outages, each ended by a recover, counting the attempts a site that
  // goes down loses mid-flight.
  const auto log_health = [&](SiteId site) {
    const auto status = grid.site(site).query();
    trace.log.emplace_back('H', site.value(), 0,
                           status.has_value() ? status->queued : -1,
                           engine.now(),
                           status.has_value() ? status->running : -1, false);
  };
  for (int i = 0; i < 24; ++i) {
    const SiteId site = pick_site();
    const SimTime at = rng.uniform(0, kSpan);
    const double kind = rng.uniform();
    engine.schedule_at(at, "outage", [&, site, kind] {
      if (kind < 0.5) {
        bool staging = false;
        bool running = false;
        for (const auto& [key, attempt] : attempts) {
          if (!attempt.live || attempt.request.site != site) continue;
          staging |= attempt.last == GatewayJobState::kStaging;
          running |= attempt.last == GatewayJobState::kRunning;
        }
        trace.downs_while_staging += staging ? 1 : 0;
        trace.downs_while_running += running ? 1 : 0;
        grid.site(site).go_down();
      } else if (kind < 0.75) {
        grid.site(site).become_black_hole();
        ++trace.black_holes;
      } else {
        grid.site(site).degrade();
        ++trace.degrades;
      }
      log_health(site);
    });
    engine.schedule_at(at + rng.uniform(60, 600), "repair", [&, site] {
      grid.site(site).recover();
      ++trace.recovers;
      log_health(site);
    });
  }
  // Direct site submissions, background-load style, some staged through
  // an engine delay; some cancel themselves from inside their own
  // kStaging or kRunning event.
  std::map<std::uint64_t, std::pair<SiteId, SubmissionId>> direct;
  for (std::uint64_t tag = 1; tag <= 80; ++tag) {
    engine.schedule_at(rng.uniform(0, kSpan), "direct", [&, tag] {
      const SiteId site = pick_site();
      grid::RemoteJob job;
      job.vo = rng.chance(0.5) ? "atlas" : "background";
      job.compute_time = rng.uniform(10, 300);
      if (rng.chance(0.4)) {
        const Duration delay = rng.uniform(1, 60);
        job.stage = [&engine, delay](std::function<void()> done) {
          engine.schedule_in(delay, "direct:stage", std::move(done));
        };
      }
      const double cancel_at = rng.uniform();
      const auto sid = grid.site(site).submit(
          std::move(job), [&, tag, site, cancel_at](const grid::JobEvent& e) {
            trace.log.emplace_back('J', tag, 0, static_cast<int>(e.state),
                                   e.at, static_cast<int>(e.submission.value()),
                                   false);
            const bool staging = e.state == grid::RemoteJobState::kStaging;
            const bool running = e.state == grid::RemoteJobState::kRunning;
            if ((staging && cancel_at < 0.1) ||
                (running && cancel_at > 0.9)) {
              if (grid.site(site).cancel(e.submission)) {
                ++trace.site_cancels_in_callback;
              }
            }
          });
      if (sid.has_value()) direct.emplace(tag, std::pair{site, *sid});
    });
  }
  for (int i = 0; i < 30; ++i) {
    engine.schedule_at(rng.uniform(0, kSpan), "direct:cancel", [&] {
      const auto tag = static_cast<std::uint64_t>(rng.uniform_int(1, 90));
      const auto it = direct.find(tag);
      const bool removed =
          it != direct.end() &&
          grid.site(it->second.first).cancel(it->second.second);
      trace.log.emplace_back('K', tag, 0, 0, engine.now(), 0, removed);
    });
  }
  engine.run_until();
  trace.active_transfers = transfers.active();
  // Handles are numbered in sequence, so this one counts the events both
  // layers scheduled.
  trace.next_event = engine.schedule_in(0.0, "probe", [] {});
  return trace;
}

TEST_P(SeededProperty, SubmissionPathMatchesReference) {
  const SubmissionTrace want = drive_submission_path<
      submission_reference::Grid, submission_reference::CondorG>(GetParam());
  const SubmissionTrace got =
      drive_submission_path<grid::Grid, submit::CondorG>(GetParam());
  // The schedule reached every case.
  EXPECT_GT(want.staged, 0);
  EXPECT_GT(want.unstaged, 0);
  EXPECT_GT(want.two_live, 0);
  EXPECT_GT(want.cancels_live, 0);
  EXPECT_GT(want.cancels_finished, 0);
  EXPECT_GT(want.cancels_unknown, 0);
  EXPECT_GT(want.cancels_in_staging, 0);
  EXPECT_GT(want.cancels_in_running, 0);
  EXPECT_GT(want.site_cancels_in_callback, 0);
  EXPECT_GT(want.resubmits_in_failed, 0);
  EXPECT_GT(want.resubmits_in_removed, 0);
  EXPECT_GT(want.downs_while_staging, 0);
  EXPECT_GT(want.downs_while_running, 0);
  EXPECT_GT(want.black_holes, 0);
  EXPECT_GT(want.degrades, 0);
  EXPECT_GT(want.recovers, 0);
  // Every observation equal, sim times by ==.
  ASSERT_EQ(got.log.size(), want.log.size());
  for (std::size_t i = 0; i < want.log.size(); ++i) {
    if (got.log[i] != want.log[i]) {
      const auto& [w0, w1, w2, w3, w4, w5, w6] = want.log[i];
      const auto& [g0, g1, g2, g3, g4, g5, g6] = got.log[i];
      ADD_FAILURE() << "first differing observation " << i << "\n  reference: "
                    << w0 << ' ' << w1 << ' ' << w2 << ' ' << w3 << ' ' << w4
                    << ' ' << w5 << ' ' << w6 << "\n  retiring:  " << g0 << ' '
                    << g1 << ' ' << g2 << ' ' << g3 << ' ' << g4 << ' ' << g5
                    << ' ' << g6;
      break;
    }
  }
  EXPECT_EQ(got.active_transfers, want.active_transfers);
  EXPECT_TRUE(got.next_event == want.next_event);
  RecordProperty("observations", static_cast<int>(want.log.size()));
}

// --- journal replay equivalence ---------------------------------------------

/// A row with an indexed int, an indexed text and an unindexed real.
struct KeyedRow {
  std::int64_t k = 0;
  std::string s;
  double x = 0.0;

  static constexpr auto columns() {
    return std::tuple{db::indexed("k", &KeyedRow::k),
                      db::indexed("s", &KeyedRow::s),
                      db::column("x", &KeyedRow::x)};
  }
};

/// A database declaring one KeyedRow table, "t".
struct KeyedStore {
  db::Database db;
  db::Table<KeyedRow>& t = db.create_table<KeyedRow>("t");
};

/// Every key of `Member` in `t` (plus `absent`) finds exactly the rows a
/// scan finds, in id order.
template <auto Member, typename Key>
void expect_index_matches_scan(const db::Table<KeyedRow>& t, Key absent) {
  std::set<Key> keys = {absent};
  t.for_each([&](db::RowId, const KeyedRow& row) { keys.insert(row.*Member); });
  for (const Key& key : keys) {
    std::vector<db::RowId> expected;
    t.for_each([&](db::RowId id, const KeyedRow& row) {
      if (row.*Member == key) expected.push_back(id);
    });
    EXPECT_EQ(t.find_by<Member>(key), expected);
    EXPECT_EQ(t.first<Member>(key),
              expected.empty() ? db::kInvalidRow : expected.front());
  }
}

TEST_P(SeededProperty, JournalReplayMatchesOriginal) {
  Rng rng(GetParam());
  KeyedStore original;
  db::Table<KeyedRow>& table = original.t;
  std::vector<db::RowId> rows;
  for (int i = 0; i < 400; ++i) {
    const double dice = rng.uniform();
    if (dice < 0.6 || rows.empty()) {
      rows.push_back(table.insert({rng.uniform_int(0, 1000),
                                   "s" + std::to_string(i % 17),
                                   rng.uniform(0, 1)}));
    } else if (dice < 0.85) {
      // Re-key an indexed column (k or s) and write the unindexed x.
      const db::RowId row = rows[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(rows.size() - 1)))];
      if (dice < 0.75) {
        table.set<&KeyedRow::s>(row, "u" + std::to_string(i % 23));
      } else {
        table.set<&KeyedRow::k>(row, rng.uniform_int(0, 1000));
      }
      table.set<&KeyedRow::x>(row, rng.uniform(0, 1));
    } else {
      const auto idx = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(rows.size() - 1)));
      table.erase(rows[idx]);
      rows.erase(rows.begin() + static_cast<std::ptrdiff_t>(idx));
    }
  }
  // Replay directly, through the text form and from a checkpoint image.
  KeyedStore direct;
  ASSERT_TRUE(direct.db.recover(original.db.durable()).ok());
  const auto parsed = db::Journal::parse(original.db.journal().serialize());
  ASSERT_TRUE(parsed.has_value());
  KeyedStore via_text;
  ASSERT_TRUE(via_text.db.recover(db::DurableState{nullptr, 0, *parsed}).ok());
  const auto image = [](KeyedStore& store) {
    store.db.checkpoint();
    return *store.db.durable().image;
  };
  const std::string want = image(original);
  KeyedStore restored;
  ASSERT_TRUE(restored.db.recover(original.db.durable()).ok());

  // Images print reals at 17 digits, so every bit of x counts.
  EXPECT_EQ(image(direct), want);
  EXPECT_EQ(image(via_text), want);
  EXPECT_EQ(image(restored), want);

  // Every index answers every key (plus one absent key) exactly as a
  // scan of the rows does.
  for (const KeyedStore* store : {&original, &direct, &via_text, &restored}) {
    expect_index_matches_scan<&KeyedRow::k>(store->t, std::int64_t{-1});
    expect_index_matches_scan<&KeyedRow::s>(store->t, std::string("absent"));
  }
}

// --- workload generator invariants ------------------------------------------

TEST_P(SeededProperty, GeneratedWorkloadsAreWellFormed) {
  workflow::IdSpace ids;
  data::ReplicaLocationService rls;
  workflow::WorkloadConfig config;
  Rng meta(GetParam());
  config.jobs_per_dag = static_cast<int>(meta.uniform_int(1, 25));
  config.min_inputs = static_cast<int>(meta.uniform_int(1, 3));
  config.max_inputs = config.min_inputs + static_cast<int>(meta.uniform_int(0, 3));
  config.max_parents = static_cast<int>(meta.uniform_int(0, 4));
  workflow::WorkloadGenerator generator(config, Rng(GetParam()), ids, rls,
                                        {SiteId(1), SiteId(2), SiteId(3)});
  for (int d = 0; d < 10; ++d) {
    const workflow::Dag dag = generator.generate("p" + std::to_string(d));
    ASSERT_TRUE(dag.validate().ok());
    EXPECT_EQ(dag.size(), static_cast<std::size_t>(config.jobs_per_dag));
    for (const auto& job : dag.jobs()) {
      EXPECT_GE(static_cast<int>(job.inputs.size()), config.min_inputs);
      EXPECT_LE(static_cast<int>(job.inputs.size()),
                std::max(config.max_inputs, config.max_parents));
      EXPECT_LE(dag.parents(job.id).size(),
                static_cast<std::size_t>(config.max_parents));
      // Every non-parent input must be resolvable through the RLS.
      for (const auto& input : job.inputs) {
        bool from_parent = false;
        for (const JobId parent : dag.parents(job.id)) {
          if (dag.job(parent).output == input) from_parent = true;
        }
        if (!from_parent) {
          EXPECT_FALSE(rls.locate(input).empty()) << input;
        }
      }
    }
  }
}

// --- chaos schedule synthesis ----------------------------------------------

TEST_P(SeededProperty, ChaosSchedulesAreSortedAndNonOverlapping) {
  chaos::ScheduleConfig config;
  const auto schedule =
      chaos::synthesize(GetParam(), config, exp::Scenario::site_names());
  EXPECT_GT(schedule.outage_count(), 0u);
  for (const auto& [site, list] : schedule.outages) {
    for (std::size_t i = 0; i < list.size(); ++i) {
      EXPECT_GE(list[i].at, 0.0);
      EXPECT_GE(list[i].duration, config.min_duration);
      if (i > 0) {
        // Next outage starts strictly after the previous repair (the
        // FailureModel schedule contract, plus the 1 s seq-order gap).
        EXPECT_GE(list[i].at,
                  list[i - 1].at + list[i - 1].duration + 1.0);
      }
    }
  }
  for (std::size_t i = 1; i < schedule.crash_records.size(); ++i) {
    EXPECT_GT(schedule.crash_records[i], schedule.crash_records[i - 1]);
  }
}

TEST_P(SeededProperty, ChaosScheduleSynthesisIsSeedDeterministic) {
  chaos::ScheduleConfig config;
  const auto sites = exp::Scenario::site_names();
  const auto a = chaos::synthesize(GetParam(), config, sites);
  const auto b = chaos::synthesize(GetParam(), config, sites);
  EXPECT_EQ(chaos::to_json(a), chaos::to_json(b));
  const auto other = chaos::synthesize(GetParam() + 1000, config, sites);
  EXPECT_NE(chaos::to_json(a), chaos::to_json(other));
}

TEST_P(SeededProperty, ScheduledOutagesAlternateWithRepairs) {
  // Drive a real scenario from a synthesized schedule and read the
  // flight recorder back: per site, outage and repair events must
  // strictly alternate starting with an outage, and every repair lands
  // after its outage.  (The final outage may still be open at horizon.)
  chaos::ScheduleConfig config;
  config.span = hours(3);
  config.outages = 6;
  config.bursts = 1;
  config.burst_sites = 2;
  const auto schedule =
      chaos::synthesize(GetParam(), config, exp::Scenario::site_names());

  exp::ScenarioConfig scenario_config;
  scenario_config.seed = GetParam();
  scenario_config.site_failures = false;
  scenario_config.outage_schedules = schedule.outages;
  exp::Scenario scenario(scenario_config);
  scenario.add_tenant("alt", {});
  scenario.start();
  scenario.run(hours(12));

  std::map<std::string_view, int> open;  // site -> currently-down?
  std::map<std::string_view, SimTime> last_outage_at;
  std::size_t outages_seen = 0;
  for (const auto& event : scenario.recorder().trace().events()) {
    if (event.kind == obs::TraceKind::kSiteOutage) {
      EXPECT_EQ(open[event.source], 0) << event.source << " double outage";
      open[event.source] = 1;
      last_outage_at[event.source] = event.at;
      ++outages_seen;
    } else if (event.kind == obs::TraceKind::kSiteRepair) {
      EXPECT_EQ(open[event.source], 1) << event.source << " repair w/o outage";
      open[event.source] = 0;
      EXPECT_GT(event.at, last_outage_at[event.source]);
    }
  }
  EXPECT_EQ(outages_seen, schedule.outage_count());
}

// --- stats edge cases -----------------------------------------------------

TEST_P(SeededProperty, PercentileSingleSampleIsThatSample) {
  Rng rng(GetParam());
  const double x = rng.uniform(-1000.0, 1000.0);
  // With one sample every quantile is the sample itself.
  EXPECT_DOUBLE_EQ(percentile({x}, 0.0), x);
  EXPECT_DOUBLE_EQ(percentile({x}, 0.5), x);
  EXPECT_DOUBLE_EQ(percentile({x}, 1.0), x);
}

TEST_P(SeededProperty, PercentileExtremesAreMinAndMax) {
  Rng rng(GetParam());
  std::vector<double> samples;
  double min = 0.0;
  double max = 0.0;
  const int n = static_cast<int>(rng.uniform_int(1, 50));
  for (int i = 0; i < n; ++i) {
    const double x = rng.uniform(-1e6, 1e6);
    samples.push_back(x);
    min = samples.size() == 1 ? x : std::min(min, x);
    max = samples.size() == 1 ? x : std::max(max, x);
  }
  EXPECT_DOUBLE_EQ(percentile(samples, 0.0), min);
  EXPECT_DOUBLE_EQ(percentile(samples, 1.0), max);
  // Quantiles are monotone in q.
  EXPECT_LE(percentile(samples, 0.25), percentile(samples, 0.75));
}

// --- XML-RPC wire against the DOM reference --------------------------------

/// The XML-RPC path that the streaming writer and pull reader replaced,
/// kept as a reference implementation: every envelope is built as an
/// XmlNode tree and written out compactly, or parsed by a recursive-descent
/// XML parser into such a tree and then decoded.  The streaming writer must
/// reproduce its bytes exactly; the pull parser may accept only what it
/// accepts, and must then decode the same value.
namespace dom {

using tree::XrValue;

struct XmlNode {
  std::string name;
  std::vector<XmlNode> children;
  std::string text;

  XmlNode() = default;
  explicit XmlNode(std::string n) : name(std::move(n)) {}
  XmlNode(std::string n, std::string t)
      : name(std::move(n)), text(std::move(t)) {}

  XmlNode& add_child(XmlNode c) {
    children.push_back(std::move(c));
    return children.back();
  }
  [[nodiscard]] const XmlNode* child(const std::string& n) const {
    for (const XmlNode& c : children) {
      if (c.name == n) return &c;
    }
    return nullptr;
  }
};

std::string escape(const std::string& raw) {
  std::string out;
  for (const char c : raw) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      case '\'': out += "&apos;"; break;
      default: out += c;
    }
  }
  return out;
}

void write(const XmlNode& node, std::string& out) {
  out += "<" + node.name;
  if (node.children.empty() && node.text.empty()) {
    out += "/>";
    return;
  }
  out += ">" + escape(node.text);
  for (const XmlNode& c : node.children) write(c, out);
  out += "</" + node.name + ">";
}

/// Attributes are parsed (their entities must decode) and dropped.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Expected<XmlNode> parse() {
    skip_ws();
    if (text_.compare(pos_, 2, "<?") == 0) {
      const auto end = text_.find("?>", pos_);
      if (end == std::string::npos) return fail("bad XML declaration");
      pos_ = end + 2;
    }
    skip_ws();
    auto root = parse_element();
    if (!root) return root;
    skip_ws();
    if (pos_ != text_.size()) return fail("trailing content after root");
    return root;
  }

 private:
  static Unexpected<Error> fail(const std::string& what) {
    return make_error("xml_parse", what);
  }
  [[nodiscard]] bool at_end() const { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const { return at_end() ? '\0' : text_[pos_]; }
  char take() { return at_end() ? '\0' : text_[pos_++]; }

  void skip_ws() {
    while (!at_end() && std::isspace(static_cast<unsigned char>(peek()))) {
      ++pos_;
    }
  }

  std::string parse_name() {
    std::string name;
    while (!at_end() && (std::isalnum(static_cast<unsigned char>(peek())) ||
                         peek() == '_' || peek() == '-' || peek() == '.' ||
                         peek() == ':')) {
      name += take();
    }
    return name;
  }

  static Expected<std::string> decode(std::string_view raw) {
    std::string out;
    for (std::size_t i = 0; i < raw.size(); ++i) {
      if (raw[i] != '&') {
        out += raw[i];
        continue;
      }
      const auto semi = raw.find(';', i);
      if (semi == std::string_view::npos) return fail("unterminated entity");
      const std::string_view entity = raw.substr(i + 1, semi - i - 1);
      if (entity == "amp") out += '&';
      else if (entity == "lt") out += '<';
      else if (entity == "gt") out += '>';
      else if (entity == "quot") out += '"';
      else if (entity == "apos") out += '\'';
      else return fail("unknown entity");
      i = semi;
    }
    return out;
  }

  Expected<XmlNode> parse_element() {
    if (take() != '<') return fail("expected '<'");
    XmlNode node;
    node.name = parse_name();
    if (node.name.empty()) return fail("empty element name");
    while (true) {
      skip_ws();
      if (peek() == '/') {
        ++pos_;
        if (take() != '>') return fail("expected '>' after '/'");
        return node;
      }
      if (peek() == '>') {
        ++pos_;
        break;
      }
      if (parse_name().empty()) return fail("expected attribute name");
      skip_ws();
      if (take() != '=') return fail("expected '='");
      skip_ws();
      const char quote = take();
      if (quote != '"' && quote != '\'') return fail("expected quote");
      std::string raw;
      while (!at_end() && peek() != quote) raw += take();
      if (take() != quote) return fail("unterminated attribute");
      if (auto decoded = decode(raw); !decoded) {
        return Unexpected<Error>{decoded.error()};
      }
    }
    std::string raw_text;
    while (true) {
      if (at_end()) return fail("unexpected end");
      if (peek() != '<') {
        raw_text += take();
        continue;
      }
      if (text_.compare(pos_, 2, "</") == 0) {
        pos_ += 2;
        if (parse_name() != node.name) return fail("mismatched close tag");
        skip_ws();
        if (take() != '>') return fail("expected '>' in close tag");
        auto decoded = decode(raw_text);
        if (!decoded) return Unexpected<Error>{decoded.error()};
        node.text = std::move(*decoded);
        if (!node.children.empty() &&
            node.text.find_first_not_of(" \t\r\n") == std::string::npos) {
          node.text.clear();
        }
        return node;
      }
      auto child = parse_element();
      if (!child) return child;
      node.children.push_back(std::move(*child));
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

XmlNode to_xml(const XrValue& v) {
  XmlNode value("value");
  if (v.is_int()) {
    value.add_child(XmlNode("i8", std::to_string(v.as_int())));
  } else if (v.is_double()) {
    std::ostringstream oss;
    oss.precision(17);
    oss << v.as_double();
    value.add_child(XmlNode("double", oss.str()));
  } else if (v.is_bool()) {
    value.add_child(XmlNode("boolean", v.as_bool() ? "1" : "0"));
  } else if (v.is_string()) {
    value.add_child(XmlNode("string", v.as_string()));
  } else if (v.is_array()) {
    XmlNode& data =
        value.add_child(XmlNode("array")).add_child(XmlNode("data"));
    for (const XrValue& item : v.as_array()) data.add_child(to_xml(item));
  } else {
    XmlNode& strct = value.add_child(XmlNode("struct"));
    for (const auto& [k, m] : v.as_struct()) {
      XmlNode& member = strct.add_child(XmlNode("member"));
      member.add_child(XmlNode("name", k));
      member.add_child(to_xml(m));
    }
  }
  return value;
}

Expected<XrValue> from_xml(const XmlNode& node) {
  if (node.name != "value") return make_error("xmlrpc_parse", "not <value>");
  if (node.children.empty()) return XrValue(node.text);
  const XmlNode& t = node.children.front();
  try {
    if (t.name == "i4" || t.name == "int" || t.name == "i8") {
      return XrValue(static_cast<std::int64_t>(std::stoll(t.text)));
    }
    if (t.name == "double") return XrValue(std::stod(t.text));
  } catch (const std::exception&) {
    return make_error("xmlrpc_parse", "bad number");
  }
  if (t.name == "boolean") {
    if (t.text != "0" && t.text != "1") {
      return make_error("xmlrpc_parse", "bad boolean");
    }
    return XrValue(t.text == "1");
  }
  if (t.name == "string") return XrValue(t.text);
  if (t.name == "array") {
    const XmlNode* data = t.child("data");
    if (data == nullptr) return make_error("xmlrpc_parse", "no <data>");
    XrValue::Array items;
    for (const XmlNode& c : data->children) {
      auto item = from_xml(c);
      if (!item) return item;
      items.push_back(std::move(*item));
    }
    return XrValue(std::move(items));
  }
  if (t.name == "struct") {
    XrValue::Struct members;
    for (const XmlNode& member : t.children) {
      if (member.name != "member") {
        return make_error("xmlrpc_parse", "not <member>");
      }
      const XmlNode* name = member.child("name");
      const XmlNode* value = member.child("value");
      if (name == nullptr || value == nullptr) {
        return make_error("xmlrpc_parse", "incomplete <member>");
      }
      auto v = from_xml(*value);
      if (!v) return v;
      members.emplace(name->text, std::move(*v));  // the first duplicate wins
    }
    return XrValue(std::move(members));
  }
  return make_error("xmlrpc_parse", "unknown value type");
}

std::string serialize(const XmlNode& root) {
  std::string out = "<?xml version=\"1.0\"?>";
  write(root, out);
  return out;
}

std::string serialize(const tree::MethodCall& call) {
  XmlNode root("methodCall");
  root.add_child(XmlNode("methodName", call.method));
  XmlNode& params = root.add_child(XmlNode("params"));
  for (const XrValue& p : call.params) {
    params.add_child(XmlNode("param")).add_child(to_xml(p));
  }
  return serialize(root);
}

std::string serialize(const tree::MethodResponse& r) {
  XmlNode root("methodResponse");
  if (r.is_fault) {
    XrValue::Struct f;
    f.emplace("faultCode", XrValue(r.fault.code));
    f.emplace("faultString", XrValue(r.fault.message));
    root.add_child(XmlNode("fault")).add_child(to_xml(XrValue(std::move(f))));
  } else {
    root.add_child(XmlNode("params"))
        .add_child(XmlNode("param"))
        .add_child(to_xml(r.value));
  }
  return serialize(root);
}

Expected<tree::MethodCall> parse_call(const std::string& xml) {
  auto doc = Parser(xml).parse();
  if (!doc) return Unexpected<Error>{doc.error()};
  const XmlNode* name = doc->child("methodName");
  if (doc->name != "methodCall" || name == nullptr || name->text.empty()) {
    return make_error("xmlrpc_parse", "not a call");
  }
  tree::MethodCall call;
  call.method = name->text;
  if (const XmlNode* params = doc->child("params"); params != nullptr) {
    for (const XmlNode& param : params->children) {
      const XmlNode* value = param.child("value");
      if (value == nullptr) return make_error("xmlrpc_parse", "no <value>");
      auto v = from_xml(*value);
      if (!v) return Unexpected<Error>{v.error()};
      call.params.push_back(std::move(*v));
    }
  }
  return call;
}

/// Throws AssertionError when a fault member has the wrong type.
Expected<tree::MethodResponse> parse_response(const std::string& xml) {
  auto doc = Parser(xml).parse();
  if (!doc) return Unexpected<Error>{doc.error()};
  if (doc->name != "methodResponse") {
    return make_error("xmlrpc_parse", "not a response");
  }
  if (const XmlNode* fault = doc->child("fault"); fault != nullptr) {
    const XmlNode* value = fault->child("value");
    if (value == nullptr) return make_error("xmlrpc_parse", "no <value>");
    auto v = from_xml(*value);
    if (!v) return Unexpected<Error>{v.error()};
    if (v->find("faultCode") == nullptr || v->find("faultString") == nullptr) {
      return make_error("xmlrpc_parse", "fault struct incomplete");
    }
    return tree::MethodResponse::failure(v->at("faultCode").as_int(),
                                        v->at("faultString").as_string());
  }
  const XmlNode* params = doc->child("params");
  if (params == nullptr || params->children.empty()) {
    return make_error("xmlrpc_parse", "no params");
  }
  const XmlNode* value = params->children.front().child("value");
  if (value == nullptr) return make_error("xmlrpc_parse", "no <value>");
  auto v = from_xml(*value);
  if (!v) return Unexpected<Error>{v.error()};
  return tree::MethodResponse::success(std::move(*v));
}

}  // namespace dom

/// Wire text: every character the writer escapes, blanks, entity-like
/// text, a two-byte UTF-8 letter; a third of the draws are empty.
std::string wire_text(Rng& rng) {
  static constexpr std::string_view kAlphabet =
      "aZ09 _-.:&<>\"';#\t\n\r\xc3\xa9";
  std::string s;
  const auto n = rng.chance(1.0 / 3) ? 0 : rng.uniform_int(1, 12);
  for (std::int64_t i = 0; i < n; ++i) {
    s += kAlphabet[static_cast<std::size_t>(
        rng.uniform_int(0, kAlphabet.size() - 1))];
  }
  return s;
}

/// A double from raw bits, biased toward NaN (any payload and sign),
/// +-inf, +-0 and subnormals.
double wire_double(Rng& rng) {
  constexpr std::uint64_t kSign = 0x8000000000000000ull;
  constexpr std::uint64_t kExponent = 0x7ff0000000000000ull;
  std::uint64_t bits = rng.engine()();
  switch (rng.uniform_int(0, 5)) {
    case 0: bits |= kExponent; break;                    // NaN, rarely inf
    case 1: bits = (bits & kSign) | kExponent; break;    // +-inf
    case 2: bits &= kSign; break;                        // +-0
    case 3: bits &= ~kExponent; break;                   // subnormal
    case 4: return static_cast<double>(rng.uniform_int(-999, 999)) / 8;
    default: break;
  }
  return std::bit_cast<double>(bits);
}

/// Random values nested up to 5 deep (a top-level value is depth 1).
tree::XrValue wire_value(Rng& rng, int depth) {
  switch (rng.uniform_int(0, depth < 5 ? 5 : 3)) {
    case 0:
      return tree::XrValue(rng.chance(0.2)
                              ? std::numeric_limits<std::int64_t>::min()
                              : static_cast<std::int64_t>(rng.engine()()));
    case 1: return tree::XrValue(wire_double(rng));
    case 2: return tree::XrValue(rng.chance(0.5));
    case 3: return tree::XrValue(wire_text(rng));
    case 4: {
      tree::XrValue::Array items;
      for (auto n = rng.uniform_int(0, 3); n > 0; --n) {
        items.push_back(wire_value(rng, depth + 1));
      }
      return tree::XrValue(std::move(items));
    }
    default: {
      tree::XrValue::Struct members;
      for (auto n = rng.uniform_int(0, 3); n > 0; --n) {
        members.emplace(wire_text(rng), wire_value(rng, depth + 1));
      }
      return tree::XrValue(std::move(members));
    }
  }
}

int value_depth(const tree::XrValue& v) {
  int deepest = 0;
  if (v.is_array()) {
    for (const auto& item : v.as_array()) {
      deepest = std::max(deepest, value_depth(item));
    }
  } else if (v.is_struct()) {
    for (const auto& [k, m] : v.as_struct()) {
      deepest = std::max(deepest, value_depth(m));
    }
  }
  return deepest + 1;
}

bool has_subnormal(const tree::XrValue& v) {
  if (v.is_double()) return std::fpclassify(v.as_double()) == FP_SUBNORMAL;
  if (v.is_array()) {
    return std::any_of(v.as_array().begin(), v.as_array().end(), has_subnormal);
  }
  if (v.is_struct()) {
    return std::any_of(v.as_struct().begin(), v.as_struct().end(),
                       [](const auto& m) { return has_subnormal(m.second); });
  }
  return false;
}

/// One seeded byte mutation: delete, insert (a byte or one of
/// `fragments`), replace or splice (from a document of `corpus`).
void mutate(Rng& rng, std::string& doc, const std::vector<std::string>& corpus,
            const std::vector<std::string>& fragments) {
  static constexpr std::string_view kBytes = "<>/&;= \n\t\"'?!-+.0159aeinx\v";
  const auto at = [&](std::size_t size) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(size)));
  };
  const auto byte = [&] {
    return kBytes[static_cast<std::size_t>(
        rng.uniform_int(0, kBytes.size() - 1))];
  };
  switch (rng.uniform_int(0, 3)) {
    case 0: {
      const std::size_t pos = at(doc.size());
      doc.erase(pos, static_cast<std::size_t>(rng.uniform_int(1, 8)));
      break;
    }
    case 1: {
      const std::size_t pos = at(doc.size());
      if (rng.chance(0.5)) {
        doc.insert(pos, 1, byte());
      } else {
        doc.insert(pos, fragments[static_cast<std::size_t>(
                            rng.uniform_int(0, fragments.size() - 1))]);
      }
      break;
    }
    case 2:
      if (!doc.empty()) doc[at(doc.size() - 1)] = byte();
      break;
    default: {
      const std::string& donor = corpus[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(corpus.size()) - 1))];
      const std::size_t from = at(donor.size());
      const std::size_t pos = at(doc.size());
      doc.replace(pos, static_cast<std::size_t>(rng.uniform_int(0, 16)),
                  donor.substr(from, static_cast<std::size_t>(
                                         rng.uniform_int(1, 48))));
      break;
    }
  }
}

/// XML-RPC fragments the wire mutators insert.
const std::vector<std::string> kXmlFragments = {
    "<value>", "</value>", "<i8>", "</i8>", "<double>", "<string>",
    "<array>", "<data>", "</data>", "<struct>", "<member>", "<name>",
    "<param>", "</param>", "<value/>", "<string/>", "<data/>", "<struct/>",
    "<value>&apos;a&gt;</value>", "&amp;", "&lt;", "&bogus;", "nan", "inf",
    "1e-310", "-", "0x"};

TEST_P(SeededProperty, XmlRpcWireMatchesDomReference) {
  Rng rng(GetParam());
  // (a) Bytes: the writer reproduces the DOM writer, and a parsed
  // document writes back the same bytes.
  std::vector<std::string> calls;
  std::vector<std::string> responses;
  int deepest = 0;
  for (int i = 0; i < 150; ++i) {
    tree::MethodCall call{"m" + wire_text(rng), {}};
    if (i == 0) {
      // Whatever the seed, one param nests 5 deep: struct, array, struct,
      // array, random leaf.
      tree::XrValue v = wire_value(rng, 5);
      for (int d = 4; d >= 1; --d) {
        using tree::XrValue;
        v = d % 2 == 0 ? XrValue(XrValue::Array{v})
                       : XrValue(XrValue::Struct{{wire_text(rng), v}});
      }
      call.params.push_back(std::move(v));
    }
    for (auto n = rng.uniform_int(0, 3); n > 0; --n) {
      call.params.push_back(wire_value(rng, 1));
    }
    for (const tree::XrValue& p : call.params) {
      deepest = std::max(deepest, value_depth(p));
    }
    const std::string bytes = call.serialize();
    EXPECT_EQ(bytes, dom::serialize(call));
    const auto parsed = tree::MethodCall::parse(bytes);
    ASSERT_TRUE(parsed.has_value()) << bytes;
    EXPECT_EQ(parsed->serialize(), bytes);
    calls.push_back(bytes);

    const tree::MethodResponse response =
        rng.chance(0.25)
            ? tree::MethodResponse::failure(
                  static_cast<std::int64_t>(rng.engine()()), wire_text(rng))
            : tree::MethodResponse::success(wire_value(rng, 1));
    const std::string reply = response.serialize();
    EXPECT_EQ(reply, dom::serialize(response));
    const auto reparsed = tree::MethodResponse::parse(reply);
    ASSERT_TRUE(reparsed.has_value()) << reply;
    EXPECT_EQ(reparsed->serialize(), reply);
    responses.push_back(reply);
  }
  EXPECT_EQ(deepest, 5);

  // (b) Mutated documents: whatever the pull parser accepts, the
  // reference accepts too, with the same result.  The one exception is a
  // subnormal double, which std::stod rejects as out of range.  Inputs
  // only the pull parser rejects: attributes; whitespace inside tags or
  // other than " \t\r\n" between them; text beside a typed value or
  // inside a non-leaf element; elements out of order, missing, repeated
  // or unknown; number text that is not entirely a number (blanks, '+',
  // a junk suffix, hex); duplicate struct members; more than one response
  // param; mistyped fault members (the reference throws).
  std::vector<std::string> corpus = calls;
  corpus.insert(corpus.end(), responses.begin(), responses.end());
  int both = 0;
  int only_pull = 0;
  int only_reference = 0;
  constexpr int kMutations = 12500;
  for (int i = 0; i < kMutations; ++i) {
    const bool is_call = rng.chance(0.5);
    const auto& pool = is_call ? calls : responses;
    std::string doc = pool[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1))];
    for (auto n = rng.uniform_int(1, 3); n > 0; --n) {
      mutate(rng, doc, corpus, kXmlFragments);
    }

    bool pull_ok = false;
    bool reference_ok = false;
    bool subnormal = false;
    std::string pull_bytes;
    std::string reference_bytes;
    if (is_call) {
      const auto got = tree::MethodCall::parse(doc);
      const auto want = dom::parse_call(doc);
      pull_ok = got.has_value();
      reference_ok = want.has_value();
      if (pull_ok) {
        pull_bytes = got->serialize();
        subnormal = std::any_of(got->params.begin(), got->params.end(),
                                has_subnormal);
      }
      if (reference_ok) reference_bytes = dom::serialize(*want);
    } else {
      const auto got = tree::MethodResponse::parse(doc);
      pull_ok = got.has_value();
      if (pull_ok) {
        pull_bytes = got->serialize();
        subnormal = has_subnormal(got->value);
      }
      try {
        const auto want = dom::parse_response(doc);
        reference_ok = want.has_value();
        if (reference_ok) reference_bytes = dom::serialize(*want);
      } catch (const AssertionError&) {
        // A mistyped fault member: the reference throws.
      }
    }
    if (pull_ok && reference_ok) {
      ++both;
      EXPECT_EQ(pull_bytes, reference_bytes) << doc;
    } else if (pull_ok) {
      ++only_pull;
      EXPECT_TRUE(subnormal) << doc;
    } else if (reference_ok) {
      ++only_reference;
    }
  }
  EXPECT_GT(both, kMutations / 50);
  EXPECT_GT(only_reference, kMutations / 200);
  RecordProperty("both_accepted", both);
  RecordProperty("only_pull_accepted", only_pull);
  RecordProperty("only_reference_accepted", only_reference);
}

// --- typed wire against the tree reference ---------------------------------

/// An id: for a `clean` message a small one, else one from the whole
/// 64-bit range, biased toward 0, small ids and the values that turn
/// negative as an i8.
std::uint64_t wire_id(Rng& rng, bool clean) {
  switch (clean ? 1 : rng.uniform_int(0, 3)) {
    case 0: return static_cast<std::uint64_t>(rng.uniform_int(0, 2));
    case 1: return static_cast<std::uint64_t>(rng.uniform_int(1, 40));
    case 2: return 0x8000000000000000ull + static_cast<std::uint64_t>(
                                              rng.uniform_int(-1, 1));
    default: return rng.engine()();
  }
}

/// A duration or size: finite and >= 0 for a `clean` message, else from
/// raw bits.
double wire_size(Rng& rng, bool clean) {
  return clean ? static_cast<double>(rng.uniform_int(0, 9999)) / 8
               : wire_double(rng);
}

/// An attempt number: in range, at its edges, or outside them.
int wire_attempt(Rng& rng, bool clean) {
  switch (clean ? 0 : rng.uniform_int(0, 3)) {
    case 0: return static_cast<int>(rng.uniform_int(1, 4));
    case 1: return rng.chance(0.5) ? 0 : -3;
    case 2: return std::numeric_limits<int>::max();
    default: return static_cast<int>(rng.engine()());
  }
}

/// A plan with hostile strings; half of them are otherwise well formed,
/// the rest carry ids, numbers and attempts from the whole range.
core::ExecutionPlan wire_plan(Rng& rng) {
  const bool clean = rng.chance(0.5);
  core::ExecutionPlan plan;
  plan.job = JobId(wire_id(rng, clean));
  plan.dag = DagId(wire_id(rng, clean));
  plan.job_name = wire_text(rng);
  plan.site = SiteId(wire_id(rng, clean));
  plan.compute_time = wire_size(rng, clean);
  for (auto n = rng.uniform_int(0, 3); n > 0; --n) {
    plan.inputs.push_back(core::PlannedInput{
        wire_text(rng), SiteId(wire_id(rng, clean)), wire_size(rng, clean)});
  }
  plan.output = wire_text(rng);
  plan.output_bytes = wire_size(rng, clean);
  plan.attempt = wire_attempt(rng, clean);
  plan.persist_output = rng.chance(0.5);
  plan.persistent_site = SiteId(wire_id(rng, false));
  plan.batch_priority = wire_double(rng);
  plan.speculative = rng.chance(0.5);
  return plan;
}

core::TrackerReport wire_report(Rng& rng) {
  const bool clean = rng.chance(0.5);
  core::TrackerReport report;
  report.job = JobId(wire_id(rng, clean));
  report.kind = static_cast<core::ReportKind>(rng.uniform_int(0, 4));
  report.site = SiteId(wire_id(rng, clean));
  report.at = clean ? wire_size(rng, clean) : wire_double(rng);
  report.completion_time = wire_size(rng, clean);
  report.execution_time = wire_double(rng);
  report.idle_time = wire_double(rng);
  report.attempt = wire_attempt(rng, clean);
  return report;
}

/// A DAG submission: up to five jobs with distinct valid ids (some past
/// INT64_MAX unless `clean`), edges from earlier to later jobs whose data
/// the child consumes (or, now and then, does not).
core::DagSubmission wire_submission(Rng& rng) {
  const bool clean = rng.chance(0.5);
  core::DagSubmission s;
  s.client = wire_text(rng);
  s.user = UserId(wire_id(rng, false));
  s.dag = workflow::Dag(DagId(wire_id(rng, false)), wire_text(rng));
  std::vector<workflow::JobSpec> jobs;
  for (auto n = rng.uniform_int(0, 5); n > 0; --n) {
    workflow::JobSpec job;
    job.id = JobId(!clean && rng.chance(0.1)
                       ? 0x8000000000000000ull + jobs.size()
                       : 1 + jobs.size());
    job.name = wire_text(rng);
    job.compute_time = rng.chance(0.8) ? wire_size(rng, true)
                                       : wire_size(rng, clean);
    for (auto i = rng.uniform_int(0, 2); i > 0; --i) {
      job.inputs.push_back(wire_text(rng));
    }
    job.output = "lfn://" + wire_text(rng) + std::to_string(jobs.size());
    job.output_bytes = rng.chance(0.8) ? wire_size(rng, true)
                                       : wire_size(rng, clean);
    jobs.push_back(std::move(job));
  }
  std::vector<std::pair<JobId, JobId>> edges;
  for (std::size_t c = 1; c < jobs.size(); ++c) {
    for (std::size_t p = 0; p < c; ++p) {
      if (!rng.chance(0.4)) continue;
      if (clean || rng.chance(0.9)) jobs[c].inputs.push_back(jobs[p].output);
      edges.emplace_back(jobs[p].id, jobs[c].id);
    }
  }
  for (workflow::JobSpec& job : jobs) s.dag.add_job(std::move(job));
  for (const auto& [parent, child] : edges) s.dag.add_edge(parent, child);
  s.priority = rng.chance(0.8) ? 0.0 : wire_double(rng);
  s.deadline = rng.chance(0.5) ? kNever : wire_double(rng);
  if (clean) {
    s.priority = wire_size(rng, true);
    s.deadline = rng.chance(0.5) ? kNever : wire_size(rng, true);
  }
  return s;
}

/// Double equality for a decoded value: the same bits, except that any
/// NaN matches any NaN when `any_nan` (the text "nan" keeps no payload).
bool same(double a, double b, bool any_nan = false) {
  if (any_nan && std::isnan(a) && std::isnan(b)) return true;
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same(const core::ExecutionPlan& a, const core::ExecutionPlan& b,
          bool any_nan = false) {
  if (a.inputs.size() != b.inputs.size()) return false;
  for (std::size_t i = 0; i < a.inputs.size(); ++i) {
    if (a.inputs[i].lfn != b.inputs[i].lfn ||
        a.inputs[i].source != b.inputs[i].source ||
        !same(a.inputs[i].bytes, b.inputs[i].bytes, any_nan)) {
      return false;
    }
  }
  return a.job == b.job && a.dag == b.dag && a.job_name == b.job_name &&
         a.site == b.site && same(a.compute_time, b.compute_time, any_nan) &&
         a.output == b.output &&
         same(a.output_bytes, b.output_bytes, any_nan) &&
         a.attempt == b.attempt && a.persist_output == b.persist_output &&
         a.persistent_site == b.persistent_site &&
         same(a.batch_priority, b.batch_priority, any_nan) &&
         a.speculative == b.speculative;
}

bool same(const core::TrackerReport& a, const core::TrackerReport& b,
          bool any_nan = false) {
  return a.job == b.job && a.kind == b.kind && a.site == b.site &&
         same(a.at, b.at, any_nan) &&
         same(a.completion_time, b.completion_time, any_nan) &&
         same(a.execution_time, b.execution_time, any_nan) &&
         same(a.idle_time, b.idle_time, any_nan) && a.attempt == b.attempt;
}

bool same(const core::DagSubmission& a, const core::DagSubmission& b,
          bool any_nan = false) {
  if (a.client != b.client || a.user != b.user ||
      !same(a.priority, b.priority, any_nan) ||
      !same(a.deadline, b.deadline, any_nan) || a.dag.id() != b.dag.id() ||
      a.dag.name() != b.dag.name() || a.dag.size() != b.dag.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.dag.size(); ++i) {
    const workflow::JobSpec& x = a.dag.jobs()[i];
    const workflow::JobSpec& y = b.dag.jobs()[i];
    if (x.id != y.id || x.name != y.name ||
        !same(x.compute_time, y.compute_time, any_nan) ||
        x.inputs != y.inputs || x.output != y.output ||
        !same(x.output_bytes, y.output_bytes, any_nan) ||
        a.dag.parents(x.id) != b.dag.parents(y.id)) {
      return false;
    }
  }
  return true;
}

/// Values `==` compares: ids, flags, renew verdicts.
template <typename T>
  requires std::equality_comparable<T>
bool same(const T& a, const T& b) {
  return a == b;
}

bool same(const core::AttemptCancel& a, const core::AttemptCancel& b) {
  return a.job == b.job && a.attempt == b.attempt;
}

bool same(const ctrl::Renewal& a, const ctrl::Renewal& b) {
  return a.shard == b.shard && a.owner == b.owner && a.epoch == b.epoch;
}

/// Both outcomes refused with the same error, or accepted the same value.
template <typename T>
::testing::AssertionResult same_outcome(const Expected<T>& got,
                                        const Expected<T>& want) {
  if (got.has_value() != want.has_value()) {
    return ::testing::AssertionFailure()
           << (got ? "typed accepted, tree refused: " + want.error().to_string()
                   : "typed refused (" + got.error().to_string() +
                         "), tree accepted");
  }
  if (!got) {
    if (got.error().to_string() == want.error().to_string()) {
      return ::testing::AssertionSuccess();
    }
    return ::testing::AssertionFailure()
           << got.error().to_string() << " != " << want.error().to_string();
  }
  return same(*got, *want) ? ::testing::AssertionSuccess()
                           : ::testing::AssertionFailure() << "values differ";
}

/// The verdict a WirePair service gives a renewal: each of the three, by
/// epoch.
ctrl::RenewOutcome verdict(const ctrl::Renewal& renewal) {
  return static_cast<ctrl::RenewOutcome>(renewal.epoch % 3);
}

/// Two Clarens services on one bus, each hosting all six methods: one
/// wired the typed way (each method's params decoder and reply writer),
/// one the tree way (the generic decoder, then the reference checks, and
/// a tree reply).  Every handler keeps what it decoded and replies as its
/// method does: a flag, the DAG's id, or a renew verdict.
class WirePair {
 public:
  /// What the typed and the tree service decoded from the last request.
  template <typename T>
  struct Decoded {
    std::optional<T> typed;
    std::optional<T> tree;

    void reset() {
      typed.reset();
      tree.reset();
    }
    /// The tree service decoded the same whenever the typed one decoded.
    [[nodiscard]] ::testing::AssertionResult agree() const {
      if (!typed || (tree && same(*typed, *tree))) {
        return ::testing::AssertionSuccess();
      }
      return ::testing::AssertionFailure() << "decoded params differ";
    }
  };

  WirePair() {
    const auto ack = [](const auto&) { return true; };
    typed_method("sphinx_client.execute_plan", plan, &core::decode_plan,
                 &core::write_flag, ack);
    typed_method("sphinx.report", report, &core::decode_report,
                 &core::write_flag, ack);
    typed_method("sphinx.submit_dag", dag, &core::decode_dag,
                 &core::write_dag_id,
                 [](const core::DagSubmission& s) { return s.dag.id(); });
    typed_method("sphinx_client.dag_done", dag_done, &core::decode_dag_done,
                 &core::write_flag, ack);
    typed_method("sphinx_client.cancel_attempt", cancel,
                 &core::decode_cancel_attempt, &core::write_flag, ack);
    typed_method("ctrl.renew", renewal, &ctrl::decode_renew,
                 &ctrl::write_renew_outcome, &verdict);
    const auto tree_ack = [](const auto&) { return tree::XrValue(true); };
    tree_method("sphinx_client.execute_plan", plan, &tree::decode_plan_params,
                tree_ack);
    tree_method("sphinx.report", report, &tree::decode_report_params,
                tree_ack);
    tree_method("sphinx.submit_dag", dag, &tree::decode_submission,
                [](const core::DagSubmission& s) {
                  return tree::XrValue(s.dag.id().value());
                });
    tree_method("sphinx_client.dag_done", dag_done, &tree::decode_dag_done,
                tree_ack);
    tree_method("sphinx_client.cancel_attempt", cancel, &tree::decode_cancel,
                tree_ack);
    tree_method("ctrl.renew", renewal, &tree::decode_renew,
                [](const ctrl::Renewal& r) {
                  return tree::XrValue(tree::renew_text(verdict(r)));
                });
    bus_.register_endpoint(bus_.endpoint("caller"),
                           [this](const rpc::Envelope& reply) {
                             reply_ = reply.payload;
                           });
  }

  /// The reply of the typed service and of the tree service to `request`.
  std::pair<std::string, std::string> deliver(const std::string& request) {
    plan.reset();
    report.reset();
    dag.reset();
    dag_done.reset();
    cancel.reset();
    renewal.reset();
    return {deliver_to("typed", request), deliver_to("tree", request)};
  }

  /// Both services decoded the same params.
  [[nodiscard]] ::testing::AssertionResult agree() const {
    for (const ::testing::AssertionResult& each :
         {plan.agree(), report.agree(), dag.agree(), dag_done.agree(),
          cancel.agree(), renewal.agree()}) {
      if (!each) return each;
    }
    return ::testing::AssertionSuccess();
  }

  Decoded<core::ExecutionPlan> plan;
  Decoded<core::TrackerReport> report;
  Decoded<core::DagSubmission> dag;
  Decoded<DagId> dag_done;
  Decoded<core::AttemptCancel> cancel;
  Decoded<ctrl::Renewal> renewal;

 private:
  template <typename T, typename R, typename F>
  void typed_method(const std::string& name, Decoded<T>& slot,
                    Expected<T> (*decode)(rpc::XrReader&),
                    rpc::ClarensService::ReplyWriter<R> write, F reply) {
    typed_.register_method(
        name, decode, write,
        [&slot, reply](const T& params, const rpc::Proxy&) -> Expected<R> {
          slot.typed = params;
          return reply(params);
        });
  }

  template <typename T, typename F>
  void tree_method(const std::string& name, Decoded<T>& slot,
                   Expected<T> (*check)(const std::vector<tree::XrValue>&),
                   F reply) {
    tree_.register_method(
        name, &tree::any_params, &tree::write_tree,
        [&slot, check, reply](const std::vector<tree::XrValue>& params,
                              const rpc::Proxy&) -> Expected<tree::XrValue> {
          const Expected<T> decoded = check(params);
          if (!decoded) return Unexpected<Error>{decoded.error()};
          slot.tree = *decoded;
          return reply(*decoded);
        });
  }

  static rpc::AuthzPolicy policy() {
    rpc::AuthzPolicy policy;
    policy.allow_vo("uscms");
    return policy;
  }

  std::string deliver_to(const std::string& service,
                         const std::string& request) {
    reply_.clear();
    bus_.send(bus_.endpoint("caller"), bus_.endpoint(service), request,
              proxy_, ++seq_);
    engine_.run_until();
    return reply_;
  }

  sim::Engine engine_;
  rpc::MessageBus bus_{engine_, Rng(3), 0.01, 0.0};
  rpc::ClarensService typed_{bus_, "typed", policy()};
  rpc::ClarensService tree_{bus_, "tree", policy()};
  std::shared_ptr<const rpc::Proxy> proxy_ =
      std::make_shared<const rpc::Proxy>(rpc::Identity{"/CN=wire"}, "uscms",
                                         std::vector<std::string>{}, 0.0,
                                         hours(24));
  std::uint64_t seq_ = 0;
  std::string reply_;
};

/// An extra struct member for a skipped-member mutant: an unknown name
/// or one the message already has, with a random value, a struct that
/// repeats a member, or arrays nested around the depth cap.
std::string injected_member(Rng& rng) {
  static const std::vector<std::string> kNames = {
      "zz", "unknown", "job_id", "attempt", "inputs", "kind", "jobs", "lfn"};
  std::string value;
  switch (rng.uniform_int(0, 3)) {
    case 0: {
      const std::string call =
          tree::MethodCall{"m", {wire_value(rng, 1)}}.serialize();
      const std::size_t from = call.find("<param>") + 7;
      value = call.substr(from, call.rfind("</param>") - from);
      break;
    }
    case 1:
      value =
          "<value><struct><member><name>a</name><value>1</value></member>"
          "<member><name>a</name><value>2</value></member></struct></value>";
      break;
    default: {
      const auto depth = rng.uniform_int(56, 66);
      for (auto d = depth; d > 0; --d) value += "<value><array><data>";
      value += "<value>x</value>";
      for (auto d = depth; d > 0; --d) value += "</data></array></value>";
      break;
    }
  }
  const std::string member = "<member><name>" +
                             kNames[static_cast<std::size_t>(rng.uniform_int(
                                 0, kNames.size() - 1))] +
                             "</name>" + value + "</member>";
  return rng.chance(0.3) ? member + member : member;
}

/// `doc` with one of its params repeated or dropped: a call with one
/// param too many or too few, each param still well formed.
void reshape_params(Rng& rng, std::string& doc) {
  std::vector<std::pair<std::size_t, std::size_t>> params;  // [begin, end)
  for (std::size_t p = doc.find("<param>"); p != std::string::npos;
       p = doc.find("<param>", p + 1)) {
    params.emplace_back(p, doc.find("</param>", p) + 8);
  }
  if (params.empty()) return;
  const auto [begin, end] = params[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(params.size()) - 1))];
  if (rng.chance(0.5)) {
    doc.insert(end, doc.substr(begin, end - begin));
  } else {
    doc.erase(begin, end - begin);
  }
}

/// `doc` with an injected member before one of its members.
void inject_member(Rng& rng, std::string& doc) {
  std::vector<std::size_t> at;
  for (std::size_t p = doc.find("<member>"); p != std::string::npos;
       p = doc.find("<member>", p + 1)) {
    at.push_back(p);
  }
  if (at.empty()) return;
  doc.insert(at[static_cast<std::size_t>(rng.uniform_int(
                 0, static_cast<std::int64_t>(at.size()) - 1))],
             injected_member(rng));
}

/// A Clarens client whose every call is answered with a given reply
/// document, to read replies exactly as a ClarensClient reads them.
class ReplyProbe {
 public:
  ReplyProbe() {
    bus_.register_endpoint(bus_.endpoint("replier"),
                           [this](const rpc::Envelope& request) {
                             bus_.reply(request, reply_);
                           });
  }

  /// `reply` as the client's typed reader `read` takes it.
  template <typename R>
  Expected<R> read(const std::string& reply,
                   rpc::ClarensClient::ReplyReader<R> read) {
    reply_ = reply;
    std::optional<Expected<R>> got;
    client_.call("replier", "<call/>", read,
                 [&got](Expected<R> result) { got = std::move(result); });
    engine_.run_until();
    SPHINX_ASSERT(got.has_value(), "the probe call did not complete");
    return std::move(*got);
  }

  /// One reply mutant read typed and the tree way -- MethodResponse::parse,
  /// then the reference check of the value -- counting the outcome's
  /// class: a value, a fault, a parse error or another refusal.
  template <typename R>
  ::testing::AssertionResult same_reply(
      const std::string& doc, rpc::ClarensClient::ReplyReader<R> typed,
      Expected<R> (*check)(const tree::XrValue&),
      std::map<std::string, int>& classes) {
    const Expected<R> got = read(doc, typed);
    const Expected<R> want = tree::tree_reply(doc, check);
    ++classes[got                                      ? "value"
              : got.error().code.starts_with("fault:") ? "fault"
              : got.error().code == "xmlrpc_parse"     ? "parse"
                                                       : "refused"];
    return same_outcome(got, want);
  }

 private:
  sim::Engine engine_;
  rpc::MessageBus bus_{engine_, Rng(4), 0.01, 0.0};
  rpc::ClarensClient client_{
      bus_, "probe",
      rpc::Proxy{rpc::Identity{"/CN=probe"}, "uscms", {}, 0.0, hours(24)}};
  std::string reply_;
};

/// The bytes of a reply carrying `value`, written as a service writes it.
template <typename R>
std::string typed_reply(rpc::ClarensService::ReplyWriter<R> write, R value) {
  rpc::XrWriter out(rpc::kReplyBytes);
  out.begin_response();
  write(out, std::move(value));
  out.end_response();
  return std::move(out).take();
}

TEST_P(SeededProperty, TypedWireMatchesTreeReference) {
  Rng rng(GetParam() ^ 0x7e1eull);
  // (a) Generated calls of all six methods: the typed encoder writes the
  // bytes MethodCall writes from the reference tree, and the typed decoder
  // reads them back to what the reference reads -- the message itself, or
  // the same refusal (a NaN compute_time, a job id below 1, an attempt out
  // of range, ...).
  std::vector<std::string> plans;
  std::vector<std::string> reports;
  std::vector<std::string> dags;
  std::vector<std::string> dag_dones;
  std::vector<std::string> cancels;
  std::vector<std::string> renewals;
  int accepted = 0;
  for (int i = 0; i < 200; ++i) {
    const core::ExecutionPlan plan = wire_plan(rng);
    const std::string plan_bytes = core::encode_plan(plan);
    ASSERT_EQ(plan_bytes, tree::call_bytes("sphinx_client.execute_plan",
                                           {tree::encode_plan(plan)}));
    const auto plan_back = tree::typed_decode(plan_bytes, &core::decode_plan);
    const auto plan_want =
        tree::decode_plan(*tree::MethodCall::parse(plan_bytes)->params.begin());
    EXPECT_TRUE(same_outcome(plan_back, plan_want)) << plan_bytes;
    if (plan_back) {
      EXPECT_TRUE(same(*plan_back, plan, /*any_nan=*/true)) << plan_bytes;
      ++accepted;
    }
    plans.push_back(plan_bytes);

    const core::TrackerReport report = wire_report(rng);
    const std::string report_bytes = core::encode_report(report);
    ASSERT_EQ(report_bytes,
              tree::call_bytes("sphinx.report", {tree::encode_report(report)}));
    const auto report_back =
        tree::typed_decode(report_bytes, &core::decode_report);
    const auto report_want = tree::decode_report(
        *tree::MethodCall::parse(report_bytes)->params.begin());
    EXPECT_TRUE(same_outcome(report_back, report_want)) << report_bytes;
    if (report_back) {
      EXPECT_TRUE(same(*report_back, report, /*any_nan=*/true));
      ++accepted;
    }
    reports.push_back(report_bytes);

    const core::DagSubmission s = wire_submission(rng);
    const std::string dag_bytes =
        core::encode_dag(s.client, s.user, s.dag, s.priority, s.deadline);
    ASSERT_EQ(dag_bytes, tree::call_bytes("sphinx.submit_dag",
                                          tree::submit_params(
                                              s.client, s.user, s.dag,
                                              s.priority, s.deadline)));
    const auto dag_back = tree::typed_decode(dag_bytes, &core::decode_dag);
    const auto dag_want = tree::decode_submission(
        tree::MethodCall::parse(dag_bytes)->params);
    EXPECT_TRUE(same_outcome(dag_back, dag_want)) << dag_bytes;
    if (dag_back) {
      EXPECT_TRUE(same(*dag_back, s, /*any_nan=*/true));
      ++accepted;
    }
    dags.push_back(dag_bytes);

    const bool clean = rng.chance(0.5);
    const DagId done(wire_id(rng, clean));
    const std::string done_bytes = core::encode_dag_done(done);
    ASSERT_EQ(done_bytes, tree::call_bytes("sphinx_client.dag_done",
                                           tree::dag_done_params(done)));
    const auto done_back =
        tree::typed_decode(done_bytes, &core::decode_dag_done);
    EXPECT_TRUE(same_outcome(
        done_back,
        tree::decode_dag_done(tree::MethodCall::parse(done_bytes)->params)))
        << done_bytes;
    if (done_back) {
      EXPECT_EQ(*done_back, done);
      ++accepted;
    }
    dag_dones.push_back(done_bytes);

    const core::AttemptCancel cancel{JobId(wire_id(rng, clean)),
                                     wire_attempt(rng, clean)};
    const std::string cancel_bytes =
        core::encode_cancel_attempt(cancel.job, cancel.attempt);
    ASSERT_EQ(cancel_bytes,
              tree::call_bytes("sphinx_client.cancel_attempt",
                               tree::cancel_params(cancel.job, cancel.attempt)));
    const auto cancel_back =
        tree::typed_decode(cancel_bytes, &core::decode_cancel_attempt);
    EXPECT_TRUE(same_outcome(
        cancel_back,
        tree::decode_cancel(tree::MethodCall::parse(cancel_bytes)->params)))
        << cancel_bytes;
    if (cancel_back) {
      EXPECT_TRUE(same(*cancel_back, cancel)) << cancel_bytes;
      ++accepted;
    }
    cancels.push_back(cancel_bytes);

    const ctrl::Renewal renewal{wire_text(rng), wire_text(rng),
                                wire_id(rng, clean)};
    const std::string renew_bytes =
        ctrl::encode_renew(renewal.shard, renewal.owner, renewal.epoch);
    ASSERT_EQ(renew_bytes,
              tree::call_bytes("ctrl.renew",
                               tree::renew_params(renewal.shard, renewal.owner,
                                                  renewal.epoch)));
    const auto renew_back = tree::typed_decode(renew_bytes, &ctrl::decode_renew);
    EXPECT_TRUE(same_outcome(
        renew_back,
        tree::decode_renew(tree::MethodCall::parse(renew_bytes)->params)))
        << renew_bytes;
    if (renew_back) {
      EXPECT_TRUE(same(*renew_back, renewal)) << renew_bytes;
      ++accepted;
    }
    renewals.push_back(renew_bytes);
  }
  EXPECT_GT(accepted, 700);

  // (b) Mutants: every one is delivered to a service wired the typed way
  // and to one wired the tree way, and the replies -- fault code and
  // message (a parse fault's offset included), or result -- must be the
  // same bytes, and so must the decoded params whenever both accept.
  // Most mutants come from mutate() and the XML fragments; one in four
  // instead gets a struct member the decoders skip or repeat: an unknown
  // name or a known one, with a random value, a struct repeating a
  // member, or arrays nested across the depth cap; and some of the rest
  // get a param repeated or dropped, so the params counts and their
  // place among the checks are exercised.  No input class may differ.
  const std::vector<const std::vector<std::string>*> pools = {
      &plans, &reports, &dags, &dag_dones, &cancels, &renewals};
  std::vector<std::string> corpus;
  for (const auto* pool : pools) {
    corpus.insert(corpus.end(), pool->begin(), pool->end());
  }
  WirePair wire;
  int both_accepted = 0;
  int both_refused = 0;
  int differing = 0;
  constexpr int kMutationsPerMessage = 12500;
  for (const auto* pool : pools) {
    for (int i = 0; i < kMutationsPerMessage; ++i) {
      std::string doc = (*pool)[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(pool->size()) - 1))];
      if (rng.chance(0.25)) {
        inject_member(rng, doc);
      } else if (rng.chance(0.2)) {
        reshape_params(rng, doc);
      } else {
        for (auto n = rng.uniform_int(1, 3); n > 0; --n) {
          mutate(rng, doc, corpus, kXmlFragments);
        }
      }
      const auto [typed, tree] = wire.deliver(doc);
      if (typed != tree) {
        ++differing;
        ADD_FAILURE() << "typed: " << typed << "\ntree: " << tree
                      << "\nrequest: " << doc;
        continue;
      }
      const bool fault = typed.find("<fault>") != std::string::npos;
      fault ? ++both_refused : ++both_accepted;
      EXPECT_TRUE(wire.agree()) << doc;
    }
  }
  EXPECT_EQ(differing, 0);
  const int deliveries = static_cast<int>(pools.size()) * kMutationsPerMessage;
  EXPECT_GT(both_accepted, deliveries / 50);
  EXPECT_GT(both_refused, deliveries / 2);
  RecordProperty("both_accepted", both_accepted);
  RecordProperty("both_refused", both_refused);

  // (c) Replies: each reply type and a fault, written typed, must be the
  // bytes MethodResponse writes from the tree (and, for a fault, the DOM
  // reference's too); and on mutated replies each typed reader, as a
  // ClarensClient applies it, must accept exactly what
  // MethodResponse::parse accepts -- with the same value, the same fault
  // code and message, or the same error text.
  std::vector<std::string> replies;
  ReplyProbe probe;
  for (int i = 0; i < 100; ++i) {
    const bool flag = rng.chance(0.5);
    const DagId dag(wire_id(rng, false));
    const auto outcome = static_cast<ctrl::RenewOutcome>(rng.uniform_int(0, 2));
    const std::int64_t code =
        rng.chance(0.5) ? rng.uniform_int(1, 100)
                        : static_cast<std::int64_t>(rng.engine()());
    const std::string message = wire_text(rng);
    rpc::XrWriter fault(rpc::kReplyBytes);
    fault.fault(code, message);
    const std::vector<std::pair<std::string, tree::MethodResponse>> written = {
        {typed_reply(&core::write_flag, flag),
         tree::MethodResponse::success(tree::XrValue(flag))},
        {typed_reply(&core::write_dag_id, dag),
         tree::MethodResponse::success(tree::XrValue(dag.value()))},
        {typed_reply(&ctrl::write_renew_outcome, outcome),
         tree::MethodResponse::success(
             tree::XrValue(tree::renew_text(outcome)))},
        {std::move(fault).take(),
         tree::MethodResponse::failure(code, message)}};
    for (const auto& [bytes, reference] : written) {
      ASSERT_EQ(bytes, reference.serialize());
      replies.push_back(bytes);
    }
    EXPECT_EQ(written.back().first, dom::serialize(written.back().second));
    EXPECT_EQ(probe.read(written[0].first, &core::read_flag).value(), flag);
    EXPECT_EQ(probe.read(written[1].first, &core::read_dag_id).value(), dag);
    EXPECT_EQ(probe.read(written[2].first, &ctrl::read_renew_outcome).value(),
              outcome);
    const auto faulted = probe.read(written[3].first, &core::read_flag);
    ASSERT_FALSE(faulted.has_value());
    EXPECT_EQ(faulted.error().code, "fault:" + std::to_string(code));
    EXPECT_EQ(faulted.error().message, message);
  }
  std::map<std::string, int> classes;
  constexpr int kReplyMutations = 12500;
  for (int i = 0; i < kReplyMutations; ++i) {
    std::string doc = replies[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(replies.size()) - 1))];
    for (auto n = rng.uniform_int(1, 3); n > 0; --n) {
      mutate(rng, doc, replies, kXmlFragments);
    }
    EXPECT_TRUE(probe.same_reply(doc, &core::read_flag, &tree::flag_reply,
                                 classes))
        << doc;
    EXPECT_TRUE(probe.same_reply(doc, &core::read_dag_id, &tree::dag_id_reply,
                                 classes))
        << doc;
    EXPECT_TRUE(probe.same_reply(doc, &ctrl::read_renew_outcome,
                                 &tree::renew_reply, classes))
        << doc;
  }
  for (const char* each : {"value", "fault", "parse", "refused"}) {
    EXPECT_GT(classes[each], kReplyMutations / 100) << each;
    RecordProperty(std::string("replies_") + each, classes[each]);
  }
}

// --- journal and snapshot codecs under mutation ----------------------------

/// A small fixed warehouse run that writes every table and every record
/// kind: an outbox row inserted, updated and erased, a runtime-sample ring
/// evicting, a speculation opened and resolved, text that needs escapes,
/// and reals at full precision.  `midway` runs between its two halves.
void run_fixed_warehouse(core::DataWarehouse& wh,
                         const std::function<void()>& midway = {}) {
  workflow::Dag dag(DagId(7), "fuzz\tdag");
  for (std::uint64_t j = 1; j <= 4; ++j) {
    workflow::JobSpec job;
    job.id = JobId(j);
    job.name = "j" + std::to_string(j);
    job.compute_time = 60.0 / static_cast<double>(j);
    job.output = "lfn://out/" + std::to_string(j);
    if (j > 1) job.inputs.push_back("lfn://out/" + std::to_string(j - 1));
    dag.add_job(job);
    if (j > 1) dag.add_edge(JobId(j - 1), JobId(j));
  }
  wh.insert_dag(dag, "client\\1", UserId(3), 0.5);
  wh.set_job_planned(JobId(1), SiteId(2), 1.0 / 3.0);
  wh.set_job_state(JobId(1), core::JobState::kCompleted);
  wh.record_completion(SiteId(2), 61.25);
  wh.record_cancellation(SiteId(4), 0.1);
  for (int k = 0; k < 34; ++k) {  // two past the 32-sample ring
    wh.record_runtime_sample(SiteId(2), 1, 10.0 + k / 3.0);
  }
  wh.set_quota(UserId(3), SiteId(2), "cpu_seconds", 500.0);
  if (midway) midway();
  wh.outbox_upsert(1, "client", "<plan>\n\t1</plan>", 1, 2.0);
  wh.outbox_upsert(1, "client", "<plan>\n\t1</plan>", 2, 3.0);
  wh.outbox_erase(1);
  wh.outbox_upsert(2, "client", "<plan/>", 1, 4.0);
  wh.set_scheduler_state("rr", "3");
  wh.set_dag_state(DagId(7), core::DagState::kPlanning);
  wh.set_job_planned(JobId(2), SiteId(2), 62.0);
  wh.set_job_state(JobId(2), core::JobState::kSubmitted);
  wh.set_job_state(JobId(2), core::JobState::kRunning);
  wh.speculate_job(JobId(2), SiteId(4), 400.0);
  wh.resolve_speculation(JobId(2), core::SpeculationState::kSpecDead);
  wh.consume_quota(UserId(3), SiteId(2), "cpu_seconds", 60.0);
}

/// Fails with the text itself when its length or FNV-1a digest moved.
void expect_pinned(const std::string& text, std::size_t length,
                   std::uint64_t digest) {
  EXPECT_EQ(text.size(), length) << text;
  EXPECT_EQ(fnv1a(text), digest) << text;
}

TEST(PinnedBytes, WarehouseJournalAndCheckpointImage) {
  // The bytes a run of every table writes: its journal, and the image a
  // checkpoint publishes at its end.  No other gate compares image text.
  core::DataWarehouse wh;
  run_fixed_warehouse(wh);
  expect_pinned(wh.journal().serialize(), 2820, 0xcf5da5830e50d69eu);
  wh.checkpoint();
  ASSERT_NE(wh.durable().image, nullptr);
  expect_pinned(*wh.durable().image, 2413, 0xe8fb77be226c0071u);
}

TEST_P(SeededProperty, MutatedJournalsAndImagesAreRefusedOrRoundTrip) {
  // The fixed run twice: once whole, for its full journal, and once with
  // a checkpoint midway, for the image and the compacted journal suffix
  // recovery replays on top of it.
  core::DataWarehouse whole;
  run_fixed_warehouse(whole);
  core::DataWarehouse split;
  run_fixed_warehouse(split, [&split] { split.checkpoint(); });
  const std::string journal = whole.journal().serialize();
  const db::DurableState checkpointed = split.durable();
  const std::string& image = *checkpointed.image;
  ASSERT_GT(checkpointed.journal.base_seq(), 0u);
  ASSERT_FALSE(checkpointed.journal.empty());
  const std::vector<std::string> corpus = {journal, image,
                                           checkpointed.journal.serialize()};
  static const std::vector<std::string> kFragments = {
      "\t", "\n", "\\", "\\t", "n:", "i:", "r:", "s:", "b:", "b:2", "i:-1",
      "r:nan", "r:1e-310", "0", "99", "-1", "+", "0x", "=int", "=text!",
      "=real!", "#seq\t", "C\t", "I\t", "U\t", "E\t", "T\t", "R\t", "#db\t1\n",
      "18446744073709551615", "s:bogus", "i:99999999999"};

  // Journal::parse and DataWarehouse::recover_from answer every mutated
  // journal, and every mutated image paired with the suffix, with a value
  // or an error, never a throw.  Whatever is accepted serializes to text
  // that is accepted again and then serializes to itself.
  Rng rng(GetParam());
  int parsed_journals = 0;
  int replayed = 0;
  int restored = 0;
  constexpr int kMutations = 10000;
  for (int i = 0; i < kMutations; ++i) {
    const bool is_journal = rng.chance(0.5);
    std::string doc = is_journal ? journal : image;
    for (auto n = rng.uniform_int(1, 3); n > 0; --n) {
      mutate(rng, doc, corpus, kFragments);
    }
    try {
      if (is_journal) {
        const auto parsed = db::Journal::parse(doc);
        if (!parsed) continue;
        ++parsed_journals;
        const std::string text = parsed->serialize();
        const auto again = db::Journal::parse(text);
        ASSERT_TRUE(again.has_value()) << doc;
        EXPECT_EQ(again->serialize(), text) << doc;
        const auto recovered = core::DataWarehouse::recover_from(
            db::DurableState{nullptr, 0, *parsed});
        if (!recovered) continue;
        ++replayed;
        EXPECT_EQ((*recovered)->journal().serialize(), text) << doc;
      } else {
        db::DurableState mutated = checkpointed;
        mutated.image = std::make_shared<const std::string>(doc);
        const auto recovered = core::DataWarehouse::recover_from(mutated);
        if (!recovered) continue;
        ++restored;
        // The recovered state's own image recovers to the same image.
        core::DataWarehouse& wh = **recovered;
        wh.checkpoint();
        const auto again = core::DataWarehouse::recover_from(wh.durable());
        ASSERT_TRUE(again.has_value()) << again.error().to_string() << doc;
        (*again)->checkpoint();
        EXPECT_EQ(*(*again)->durable().image, *wh.durable().image) << doc;
      }
    } catch (const std::exception& error) {
      ADD_FAILURE() << "threw " << error.what() << " on:\n" << doc;
    }
  }
  // Both outcomes are exercised: some mutants survive each stage.
  EXPECT_GT(parsed_journals, kMutations / 20);
  EXPECT_GT(replayed, kMutations / 100);
  EXPECT_LT(replayed, parsed_journals);
  EXPECT_GT(restored, kMutations / 100);
  RecordProperty("journals_parsed", parsed_journals);
  RecordProperty("journals_replayed", replayed);
  RecordProperty("images_restored", restored);
}

// --- every prefix of a crashed journal -------------------------------------

/// The first `records` records of `journal`, cut from its text at a line
/// boundary (after the "#seq" header of a truncated journal).
db::Journal journal_prefix(const db::Journal& journal, std::size_t records) {
  const std::string text = journal.serialize();
  std::size_t cut = journal.base_seq() == 0 ? 0 : text.find('\n') + 1;
  for (std::size_t i = 0; i < records; ++i) cut = text.find('\n', cut) + 1;
  auto prefix = db::Journal::parse(text.substr(0, cut));
  EXPECT_TRUE(prefix.has_value());
  return prefix ? *prefix : db::Journal{};
}

/// How recovery answered each prefix: the invariant a refusal names.
struct PrefixOutcomes {
  int recovered = 0;
  int suffix_refusals = 0;
  std::map<std::string, int> invariant_refusals;  ///< by invariant text
  std::vector<std::string> images;  ///< each prefix's image; "" if refused
};

/// Recovers a warehouse from `state` with its journal cut after each of
/// its records in turn.  Every recovered prefix's checkpoint image must
/// recover to itself; every refusal must carry a recovery code; nothing
/// may throw.
PrefixOutcomes recover_every_prefix(const db::DurableState& state) {
  static const std::set<std::string> kCodes = {
      "restore_parse",  "recover_schema",    "recover_replay",
      "recover_suffix", "recover_invariant", "recover_nonempty"};
  static const char* const kInvariants[] = {
      "dag job total disagrees with the jobs table",
      "outstanding job has no site assigned",
      "outstanding job was never planned",
      "racing job row must track the replica attempt"};
  PrefixOutcomes out;
  for (std::size_t records = 0; records <= state.journal.size(); ++records) {
    db::DurableState cut = state;
    cut.journal = journal_prefix(state.journal, records);
    std::string image;
    try {
      const auto recovered = core::DataWarehouse::recover_from(cut);
      if (recovered) {
        ++out.recovered;
        core::DataWarehouse& wh = **recovered;
        wh.checkpoint();
        image = *wh.durable().image;
        const auto again = core::DataWarehouse::recover_from(wh.durable());
        EXPECT_TRUE(again.has_value()) << records;
        if (again) {
          (*again)->checkpoint();
          EXPECT_EQ(*(*again)->durable().image, image) << records;
        }
      } else {
        const Error& error = recovered.error();
        EXPECT_TRUE(kCodes.contains(error.code)) << error.to_string();
        if (error.code == "recover_suffix") ++out.suffix_refusals;
        if (error.code == "recover_invariant") {
          std::string which = error.message;
          for (const char* invariant : kInvariants) {
            if (error.message.find(invariant) != std::string::npos) {
              which = invariant;
            }
          }
          ++out.invariant_refusals[which];
        }
      }
    } catch (const std::exception& thrown) {
      ADD_FAILURE() << "prefix of " << records << " records threw "
                    << thrown.what();
    }
    out.images.push_back(image);
  }
  return out;
}

TEST(RecoveryPrefixes, EveryJournalPrefixRecoversOrIsRefused) {
  // The fixed run's durable state with its journal cut at every record: a
  // crash can leave any prefix behind, and recovery must rebuild it or
  // refuse it with a code, never throw.  A prefix cut inside one
  // warehouse write (a DAG's rows, a plan's columns, a race's) leaves
  // rows that disagree, which the one invariant sweep of recover_from
  // refuses; that sweep throwing outside recover_from's try would fail
  // here.  Three forms: the whole run's journal with no image, the run
  // checkpointed midway (its image and the journal suffix after it), and
  // the same image with the journal a crash between the image's
  // publication and its truncation leaves.
  core::DataWarehouse whole;
  run_fixed_warehouse(whole);
  core::DataWarehouse split;
  run_fixed_warehouse(split, [&split] { split.checkpoint(); });
  core::DataWarehouse killed;
  run_fixed_warehouse(killed,
                      [&killed] { killed.checkpoint([] { return true; }); });
  const std::uint64_t seq = split.durable().image_seq;
  ASSERT_EQ(killed.durable().image_seq, seq);
  ASSERT_EQ(*killed.durable().image, *split.durable().image);
  ASSERT_EQ(killed.journal().base_seq(), 0u);

  const PrefixOutcomes journal_only = recover_every_prefix(whole.durable());
  EXPECT_EQ(journal_only.images.size(), 77u);
  EXPECT_EQ(journal_only.recovered, 62);
  EXPECT_EQ(journal_only.invariant_refusals,
            (std::map<std::string, int>{
                {"dag job total disagrees with the jobs table", 8},
                {"outstanding job has no site assigned", 2},
                {"outstanding job was never planned", 2},
                {"racing job row must track the replica attempt", 3}}));
  // The whole journal recovers to the live warehouse's image.
  whole.checkpoint();
  EXPECT_EQ(journal_only.images.back(), *whole.durable().image);

  const PrefixOutcomes suffix = recover_every_prefix(split.durable());
  EXPECT_EQ(suffix.images.size(), 22u);
  EXPECT_EQ(suffix.recovered, 17);
  EXPECT_EQ(suffix.invariant_refusals,
            (std::map<std::string, int>{
                {"outstanding job has no site assigned", 1},
                {"outstanding job was never planned", 1},
                {"racing job row must track the replica attempt", 3}}));

  // Untruncated, the prefixes that end before the image's sequence do
  // not reach it; the rest answer as the truncated suffix's.
  const PrefixOutcomes untruncated = recover_every_prefix(killed.durable());
  ASSERT_EQ(untruncated.images.size(), seq + suffix.images.size());
  EXPECT_EQ(untruncated.suffix_refusals, static_cast<int>(seq));
  EXPECT_EQ(untruncated.recovered, suffix.recovered);
  EXPECT_EQ(untruncated.invariant_refusals, suffix.invariant_refusals);
  for (std::size_t i = 0; i < suffix.images.size(); ++i) {
    EXPECT_EQ(untruncated.images[seq + i], suffix.images[i]) << i;
  }
  // Whichever form recovery read, it holds the live warehouse's state.
  EXPECT_EQ(untruncated.images.back(), journal_only.images.back());
}

// --- incremental checkpoint images vs the whole-store formatter -------------

TEST_P(SeededProperty, IncrementalImageMatchesFullImage) {
  // A warehouse driven the way a server drives it -- DAG arrivals, job
  // transitions (a set journals even an unchanged value), outbox upserts
  // and erases of the oldest call (so the outbox's slot window reclaims
  // its prefix), completions and settings -- checkpointing by the
  // server's rule, and recovered from its image and journal at random
  // points, a mid-checkpoint crash among them.  Every image it publishes
  // must equal the whole-store formatter's output for the same state:
  // images copy the lines of rows unwritten since the last image, and
  // the first image after a recovery formats every row.
  using core::JobState;
  Rng rng(GetParam());
  constexpr int kSteps = 15000;
  auto wh = std::make_unique<core::DataWarehouse>();
  std::vector<JobId> jobs;  // every job inserted, with its DAG below
  std::vector<DagId> dag_of;
  std::deque<std::uint64_t> outbox;  // live call sequences, oldest first
  std::uint64_t next_dag = 1;
  std::uint64_t next_call = 1;
  SimTime now = 0.0;
  std::size_t differing = 0;
  std::size_t images = 0;
  std::size_t recoveries = 0;
  std::size_t images_after_recovery = 0;
  std::size_t images_after_image = 0;  // the rows' lines still in use
  std::size_t reclaimed = 0;
  bool recovered_since_image = false;

  const auto text = [&rng](const char* stem) {
    std::string out = stem;
    for (auto n = rng.uniform_int(0, 40); n > 0; --n) {
      const std::int64_t pick = rng.uniform_int(0, 30);
      out += pick == 0 ? '\t' : pick == 1 ? '\n' : pick == 2 ? '\\'
                                                             : char('a' + pick);
    }
    return out;
  };
  const auto publish = [&](bool crash_midway) {
    wh->checkpoint([crash_midway] { return crash_midway; });
    const std::string& image = *wh->durable().image;
    ++images;
    images_after_recovery += recovered_since_image;
    images_after_image += images > 1 && !recovered_since_image;
    recovered_since_image = false;
    const std::string want = image_reference::full_image(*wh);
    if (image != want && differing++ == 0) {
      ADD_FAILURE() << "image " << images << " differs from the full "
                    << "formatter's:\n" << image << "\nvs\n" << want;
    }
  };
  const auto recover = [&] {
    auto again = core::DataWarehouse::recover_from(wh->durable());
    ASSERT_TRUE(again.has_value()) << again.error().to_string();
    wh = std::move(*again);
    ++recoveries;
    recovered_since_image = true;
  };

  for (int step = 0; step < kSteps; ++step) {
    now += 0.25 * static_cast<double>(rng.uniform_int(1, 8));
    const std::int64_t action = rng.uniform_int(0, 999);
    if (action < 10 || jobs.empty()) {
      // An arrival: a chain whose jobs read their predecessor's output.
      const DagId id(next_dag++);
      workflow::Dag dag(id, text("dag"));
      const auto count = rng.uniform_int(1, 6);
      for (std::int64_t j = 1; j <= count; ++j) {
        workflow::JobSpec job;
        job.id = JobId(id.value() * 100 + static_cast<std::uint64_t>(j));
        job.name = text("job");
        job.compute_time =
            60.0 + static_cast<double>(rng.uniform_int(0, 999)) / 7.0;
        job.output = "lfn://" + std::to_string(job.id.value());
        job.inputs.push_back(
            j == 1 ? text("lfn://raw/")
                   : "lfn://" + std::to_string(job.id.value() - 1));
        dag.add_job(job);
        if (j > 1) dag.add_edge(JobId(job.id.value() - 1), job.id);
        jobs.push_back(job.id);
        dag_of.push_back(id);
      }
      wh->insert_dag(dag, text("client"), UserId(1), now);
    } else if (action < 500) {
      // A transition of a random job, along the legal cycle.
      const auto at = static_cast<std::size_t>(
          rng.uniform_int(0, std::ssize(jobs) - 1));
      const JobId id = jobs[at];
      const JobState state = wh->job(id)->state;
      const SiteId site(static_cast<std::uint64_t>(rng.uniform_int(1, 6)));
      switch (state) {
        case JobState::kUnplanned:
          wh->set_job_planned(id, site, now);
          break;
        case JobState::kPlanned:
          wh->set_job_state(id, JobState::kSubmitted);
          break;
        case JobState::kSubmitted:
          wh->set_job_state(id, rng.chance(0.5) ? JobState::kRunning
                                                : JobState::kSubmitted);
          break;
        case JobState::kRunning:
          if (rng.chance(0.6)) {
            wh->set_job_state(id, JobState::kCompleted);
            if (wh->all_jobs_completed(dag_of[at])) {
              wh->set_dag_finished(dag_of[at], now);
            }
          } else {
            wh->set_job_state(id, rng.chance(0.5) ? JobState::kCancelled
                                                  : JobState::kHeld);
          }
          break;
        case JobState::kCancelled:
        case JobState::kHeld:
          wh->set_job_state(id, JobState::kUnplanned);
          break;
        case JobState::kCompleted:
          wh->record_completion(site, now / 3.0);
          break;
      }
    } else if (action < 680) {
      // A call enters the outbox, or a live one is resent.
      if (outbox.empty() || rng.chance(0.6)) {
        outbox.push_back(next_call++);
        wh->outbox_upsert(outbox.back(), "client", text("<plan>"), 1, now);
      } else {
        const std::uint64_t seq = outbox[static_cast<std::size_t>(
            rng.uniform_int(0, std::ssize(outbox) - 1))];
        wh->outbox_upsert(seq, "client", text("<plan>"),
                          static_cast<int>(rng.uniform_int(2, 5)), now);
      }
    } else if (action < 800) {
      // The oldest call is answered.
      if (!outbox.empty()) {
        wh->outbox_erase(outbox.front());
        outbox.pop_front();
        ++reclaimed;
      }
    } else if (action < 900) {
      const SiteId site(static_cast<std::uint64_t>(rng.uniform_int(1, 6)));
      if (rng.chance(0.5)) {
        wh->record_completion(
            site, 1.0 / static_cast<double>(rng.uniform_int(1, 9)));
      } else {
        wh->record_runtime_sample(
            site, static_cast<int>(rng.uniform_int(0, 2)), now / 7.0);
      }
    } else if (action < 996) {
      // A setting, often rewritten with the value it already holds.
      wh->set_scheduler_state("rr", std::to_string(rng.uniform_int(0, 2)));
    } else if (action < 998) {
      recover();
      continue;
    } else {
      // A crash between an image's publication and the journal's
      // truncation: the recovered warehouse completes the truncation.
      if (wh->journal().empty()) continue;
      publish(true);
      recover();
      continue;
    }
    // Each step ends like a sweep: with the server's rule.
    if (wh->checkpoint_due()) publish(false);
  }
  wh->checkpoint();
  EXPECT_EQ(*wh->durable().image, image_reference::full_image(*wh));

  EXPECT_EQ(differing, 0u);
  EXPECT_GT(images, 40u);
  EXPECT_GT(recoveries, 20u);
  EXPECT_GT(images_after_recovery, 5u);
  EXPECT_GT(images_after_image, 30u);
  EXPECT_GT(reclaimed, 50u);
  RecordProperty("images", static_cast<int>(images));
  RecordProperty("recoveries", static_cast<int>(recoveries));
}

// --- the chaos repro reader under mutation ------------------------------------

TEST_P(SeededProperty, MutatedReprosAreRefusedOrRoundTrip) {
  // Repros as the campaign writes them: a synthesized schedule (outages on
  // testbed sites, crash and mid-checkpoint points, lossy and partition
  // windows), every config member, and a violation text with escapes.
  std::vector<std::string> corpus;
  for (std::uint64_t k = 0; k < 3; ++k) {
    chaos::ReproCase repro;
    repro.config.seed = GetParam() * 10 + k;
    repro.config.speculate = k == 1;
    repro.config.schedule.mid_ckpt_crashes = static_cast<int>(k);
    repro.schedule = chaos::synthesize_schedule(repro.config);
    repro.violation = "differential: \"journal\"\tline " + std::to_string(k);
    corpus.push_back(chaos::to_json(repro));
  }
  static const std::vector<std::string> kFragments = {
      "{", "}", "[", "]", "\"", ":", ",", "-", "-3", "0.5", "1.5", "2.5e0",
      "1e20", "1e300", "18446744073709551616", "4294967296", "null", "true",
      "\"down\"", "\"nowhere\"", "\"ufgrid1\"", "\\u0041", "[[[[[[[[",
      "{\"at\":-1,\"duration\":5,\"mode\":\"down\"}"};

  // The reader answers every mutant with a repro or an error, never a
  // throw or a crash; whatever it accepts serializes to text that it
  // accepts again and that then serializes to itself.
  Rng rng(GetParam());
  int accepted = 0;
  constexpr int kMutations = 10000;
  for (int i = 0; i < kMutations; ++i) {
    std::string doc = corpus[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(corpus.size()) - 1))];
    for (auto n = rng.uniform_int(1, 3); n > 0; --n) {
      mutate(rng, doc, corpus, kFragments);
    }
    try {
      const auto parsed = chaos::repro_from_json(doc);
      if (!parsed) continue;
      ++accepted;
      const std::string text = chaos::to_json(*parsed);
      const auto again = chaos::repro_from_json(text);
      ASSERT_TRUE(again.has_value())
          << again.error().to_string() << " on:\n" << text;
      EXPECT_EQ(chaos::to_json(*again), text) << doc;
    } catch (const std::exception& error) {
      ADD_FAILURE() << "threw " << error.what() << " on:\n" << doc;
    }
  }
  // Both outcomes are exercised.
  EXPECT_GT(accepted, kMutations / 20);
  EXPECT_LT(accepted, kMutations);
  RecordProperty("repros_accepted", accepted);
}

// --- trace rendering against the string reference ----------------------------

/// Raw texts the trace must carry through its name table: every byte
/// the escaper treats specially, 0x7f and non-ASCII bytes it passes
/// through, the empty name, and ':' and digits, which a numbered
/// subject writes after its name.
const std::vector<std::string>& special_trace_names() {
  static const std::vector<std::string> names = {
      "",
      "job",
      "sphinx-server/completion-time",
      "\"",
      "\\",
      "\n",
      "\t",
      std::string("\x01"),
      std::string("\x7f"),
      "caf\xc3\xa9",
      "\xe5\x90\x8d\xe5\x89\x8d",
      std::string("a\"b\\c\nd\te\x01" "f\x7fg\xff"),
      "job:42",
      "\\\"",
      std::string("\x1f\x00z", 3)};
  return names;
}

/// A random name: mostly drawn from the specials, else random bytes from
/// an alphabet heavy in the escaper's special cases.
std::string random_trace_name(Rng& rng) {
  const auto& specials = special_trace_names();
  if (rng.chance(0.6)) {
    return specials[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(specials.size()) - 1))];
  }
  static const std::string alphabet = std::string("ab:09\"\\\n\t\r\x01\x1f\x7f") +
                                      "\x80\xc3\xa9\xff -/>()";
  std::string out;
  const auto length = rng.uniform_int(0, 12);
  for (std::int64_t i = 0; i < length; ++i) {
    out += alphabet[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(alphabet.size()) - 1))];
  }
  return out;
}

double random_trace_value(Rng& rng) {
  static const std::vector<double> specials = {
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      -0.0,
      0.0,
      std::numeric_limits<double>::denorm_min(),
      -2.5e-310,
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(),
      0.1,
      1e21,
      123456789.0};
  switch (rng.uniform_int(0, 3)) {
    case 0:
      return specials[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(specials.size()) - 1))];
    case 1:  // any bit pattern: every exponent, NaN payloads included
      return std::bit_cast<double>(rng.engine()());
    case 2:
      return static_cast<double>(rng.uniform_int(-1000000, 1000000));
    default:
      return rng.uniform(-1e6, 1e6);
  }
}

std::uint64_t random_subject_number(Rng& rng) {
  switch (rng.uniform_int(0, 3)) {
    case 0: return 0;
    case 1: return std::numeric_limits<std::uint64_t>::max();
    case 2: return rng.engine()();
    default: return static_cast<std::uint64_t>(rng.uniform_int(1, 100000));
  }
}

// The sink stores names as escaped handles and writes a numbered
// subject as "name:number"; its JSON Lines must equal, line for line,
// what the string event it replaced rendered (tests/trace_reference.hpp).
// 3,000 events fill three of the log's blocks.
TEST_P(SeededProperty, TraceRenderingMatchesStringReference) {
  Rng rng(GetParam());
  constexpr std::size_t kEvents = 3000;
  constexpr auto kKinds =
      static_cast<std::int64_t>(obs::TraceKind::kSpeculationCancelled);
  obs::TraceSink sink;
  std::vector<std::string> expected;
  std::vector<std::string> expected_subjects;
  std::size_t numbered = 0;
  std::size_t extremes = 0;
  SimTime at = 0.0;
  for (std::size_t i = 0; i < kEvents; ++i) {
    if (rng.chance(0.7)) at += rng.exponential(5.0);
    trace_reference::TraceEvent reference;
    reference.at = at;
    reference.kind = static_cast<obs::TraceKind>(rng.uniform_int(0, kKinds));
    reference.source = random_trace_name(rng);
    reference.subject = random_trace_name(rng);
    reference.detail = random_trace_name(rng);
    reference.value = random_trace_value(rng);

    obs::TraceEvent event;
    event.at = reference.at;
    event.kind = reference.kind;
    event.source = sink.name(reference.source);
    event.subject = sink.name(reference.subject);
    event.detail = sink.name(reference.detail);
    event.value = reference.value;
    if (rng.chance(0.5)) {
      event.numbered = true;
      event.number = random_subject_number(rng);
      reference.subject += ":" + std::to_string(event.number);
      ++numbered;
      if (event.number == 0 ||
          event.number == std::numeric_limits<std::uint64_t>::max()) {
        ++extremes;
      }
    }
    sink.record(event);
    expected.push_back(reference.to_json());
    expected_subjects.push_back(trace_reference::json_escape(reference.subject));
  }

  const std::string jsonl = sink.to_jsonl();
  std::size_t line_start = 0;
  std::size_t differing = 0;
  for (std::size_t i = 0; i < kEvents; ++i) {
    const std::size_t end = jsonl.find('\n', line_start);
    ASSERT_NE(end, std::string::npos) << "missing line " << i;
    const std::string_view line(jsonl.data() + line_start, end - line_start);
    if (line != expected[i] && differing++ == 0) {
      ADD_FAILURE() << "first differing line " << i << "\n  sink: " << line
                    << "\n  reference: " << expected[i];
    }
    line_start = end + 1;
  }
  EXPECT_EQ(line_start, jsonl.size()) << "lines past the last event";
  EXPECT_EQ(differing, 0u);

  // The view reads the same escaped subject text.
  const std::vector<obs::TraceView> views = sink.events();
  ASSERT_EQ(views.size(), kEvents);
  for (std::size_t i = 0; i < kEvents; ++i) {
    ASSERT_EQ(views[i].subject, expected_subjects[i]) << "event " << i;
  }

  // Reach: both subject shapes and both extreme numbers were drawn, and
  // the table holds each distinct name once.
  EXPECT_GT(numbered, kEvents / 3);
  EXPECT_LT(numbered, 2 * kEvents / 3);
  EXPECT_GT(extremes, kEvents / 10);
  for (const std::string& name : special_trace_names()) {
    EXPECT_EQ(sink.name(name), sink.name(std::string(name)));
  }
  RecordProperty("numbered_subjects", static_cast<int>(numbered));
}

// --- borrowed warehouse reads ---------------------------------------------

/// A DAG of up to seven jobs in one of four shapes: a chain, a fan-in
/// (every job feeds the last), a fan-out (the first feeds every job) or a
/// diamond (the first feeds the middle jobs, which feed the last).  Job
/// ids are the DAG's id times 100 plus 1, 2, ...
workflow::Dag shaped_dag(Rng& rng, std::uint64_t id) {
  const std::int64_t shape = rng.uniform_int(0, 3);
  const auto jobs =
      static_cast<std::uint64_t>(rng.uniform_int(shape == 3 ? 3 : 2, 7));
  const auto job_id = [id](std::uint64_t j) { return JobId(id * 100 + j); };
  workflow::Dag dag(DagId(id), "shape-" + std::to_string(id));
  for (std::uint64_t j = 1; j <= jobs; ++j) {
    workflow::JobSpec job;
    job.id = job_id(j);
    job.name = "j" + std::to_string(j);
    job.output = "lfn://shape/" + std::to_string(id) + "/" + std::to_string(j);
    dag.add_job(job);
  }
  for (std::uint64_t j = 2; j <= jobs; ++j) {
    if (shape == 0) {
      dag.add_edge(job_id(j - 1), job_id(j));
    } else if (shape == 1) {
      dag.add_edge(job_id(j - 1), job_id(jobs));
    } else if (shape == 2) {
      dag.add_edge(job_id(1), job_id(j));
    } else if (j < jobs) {
      dag.add_edge(job_id(1), job_id(j));
      dag.add_edge(job_id(j), job_id(jobs));
    }
  }
  return dag;
}

std::string id_list(const std::vector<std::uint64_t>& ids) {
  std::string out = "[";
  for (const std::uint64_t id : ids) {
    out += (out.size() > 1 ? " " : "") + std::to_string(id);
  }
  return out + "]";
}

// Warehouse reads borrow the stored rows.  After every step of a seeded
// run of the transitions the server's modules make -- DAG arrivals,
// sweeps (reducer completions, the hand-off to planning, plans, and
// re-marking what stayed unplaced), tracker reports (submitted, running,
// completed, cancelled or held then queued for a replan) and DAG
// finishes -- the ready sets, pending-work flags, drains and
// DAG-finished decisions must equal those of the copying reads kept in
// tests/warehouse_reference.hpp.
TEST_P(SeededProperty, BorrowedReadsMatchCopyReference) {
  using core::DagState;
  using core::JobState;
  Rng rng(GetParam());
  constexpr std::uint64_t kDags = 14;
  constexpr int kSteps = 2000;
  core::DataWarehouse wh;
  std::vector<workflow::Dag> dags;  // inserted, in table order
  std::vector<JobId> jobs;
  SimTime now = 0.0;
  std::size_t differing = 0;
  // Reach: unplanned jobs seen with some but not all of their two or
  // more parents completed (what a parent test that skips one parent
  // gets wrong), ready jobs with two or more parents, and each kind of
  // step that changes what is ready or pending.
  std::size_t partial_parents = 0;
  std::size_t ready_joins = 0;
  std::size_t drains = 0;
  std::size_t reduced = 0;
  std::size_t replans = 0;
  std::size_t finished = 0;

  const auto ids_of = [](const std::vector<core::DagRecord>& rows) {
    std::vector<DagId> out;
    for (const core::DagRecord& row : rows) out.push_back(row.id);
    return out;
  };
  const auto mismatch = [&](const std::string& what) {
    if (differing++ == 0) ADD_FAILURE() << what;
  };
  const auto check = [&](const char* step) {
    for (const workflow::Dag& spec : dags) {
      const DagId id = spec.id();
      std::vector<std::uint64_t> borrowed;
      for (const core::JobRecord* job : wh.ready_jobs(id)) {
        borrowed.push_back(job->id.value());
        ready_joins += spec.parents(job->id).size() >= 2;
      }
      std::vector<std::uint64_t> copied;
      for (const core::JobRecord& job :
           warehouse_reference::ready_jobs(wh, id)) {
        copied.push_back(job.id.value());
      }
      const core::DagRecord& row = *wh.dag(id);
      const bool pending = core::WarehouseInspector::has_pending_work(wh, row);
      const bool finishes =
          row.state != DagState::kFinished && wh.all_jobs_completed(id);
      if (borrowed != copied ||
          pending != warehouse_reference::has_pending_work(wh, row) ||
          finishes != warehouse_reference::finishes(wh, id)) {
        mismatch(std::string("after ") + step + ", dag " +
                 std::to_string(id.value()) + ": ready " + id_list(borrowed) +
                 " vs " + id_list(copied) + ", pending " +
                 std::to_string(pending) + ", finishes " +
                 std::to_string(finishes));
      }
      for (const workflow::JobSpec& job : spec.jobs()) {
        const std::vector<JobId>& parents = spec.parents(job.id);
        if (parents.size() < 2 ||
            wh.job(job.id)->state != JobState::kUnplanned) {
          continue;
        }
        const auto done = std::count_if(
            parents.begin(), parents.end(), [&](JobId parent) {
              return wh.job(parent)->state == JobState::kCompleted;
            });
        partial_parents += done > 0 && done < std::ssize(parents);
      }
    }
    if (wh.dirty_dags() !=
        ids_of(warehouse_reference::queued_pending_dags(wh))) {
      mismatch(std::string("queue after ") + step);
    }
    wh.check_invariants();
  };
  // The server's DAG-finished test, run where it runs it: after a
  // reduction and after a completion report.
  const auto finish_if_done = [&](DagId id) {
    const core::DagRecord& row = *wh.dag(id);
    const bool done =
        row.state != DagState::kFinished && wh.all_jobs_completed(id);
    if (done != warehouse_reference::finishes(wh, id)) {
      mismatch("finish decision for dag " + std::to_string(id.value()));
    }
    if (!done) return;
    wh.set_dag_finished(id, now);
    ++finished;
  };

  for (int step = 0; step < kSteps; ++step) {
    now += 1.0;
    const std::int64_t action = rng.uniform_int(0, 19);
    if (dags.size() < kDags && (dags.empty() || action == 0)) {
      workflow::Dag dag = shaped_dag(rng, dags.size() + 1);
      wh.insert_dag(dag, "client", UserId(1), now);
      for (const workflow::JobSpec& job : dag.jobs()) jobs.push_back(job.id);
      dags.push_back(std::move(dag));
      check("arrival");
      continue;
    }
    if (action <= 6) {
      // A sweep, stage by stage as the server runs it.
      const std::vector<DagId> expected =
          ids_of(warehouse_reference::queued_pending_dags(wh));
      const std::vector<DagId> drained = wh.drain_dirty_dags();
      if (drained != expected) {
        mismatch("drain at step " + std::to_string(step));
      }
      drains += !drained.empty();
      for (const DagId id : drained) {
        if (wh.dag(id)->state != DagState::kReceived) continue;
        for (const workflow::JobSpec& job : dags[id.value() - 1].jobs()) {
          if (!rng.chance(0.15)) continue;
          wh.set_job_state(job.id, JobState::kCompleted,
                           "reduced:output-exists");
          ++reduced;
        }
        wh.set_dag_state(id, DagState::kReduced);
        finish_if_done(id);
      }
      for (const DagId id : drained) {
        const core::DagRecord* dag = wh.dag(id);
        if (dag->state == DagState::kReduced) {
          wh.set_dag_state(id, DagState::kPlanning);
        }
        if (dag->state != DagState::kPlanning) continue;
        bool left_unplanned = false;
        for (const core::JobRecord* job : wh.ready_jobs(id)) {
          if (rng.chance(0.7)) {
            wh.set_job_planned(job->id, SiteId(rng.uniform_int(1, 4)), now);
          } else {
            left_unplanned = true;
          }
        }
        if (left_unplanned) wh.mark_dag_dirty(id);
      }
      check("sweep");
      continue;
    }
    // A tracker report on a random job; only outstanding jobs have one.
    const JobId id = jobs[static_cast<std::size_t>(
        rng.uniform_int(0, std::ssize(jobs) - 1))];
    const JobState state = wh.job(id)->state;
    if (!core::is_outstanding(state)) continue;
    const std::int64_t kind = rng.uniform_int(0, 9);
    if (kind < 3) {
      if (state == JobState::kPlanned) {
        wh.set_job_state(id, JobState::kSubmitted, "report:submitted");
      }
    } else if (kind < 5) {
      if (state != JobState::kRunning) {
        wh.set_job_state(id, JobState::kRunning, "report:running");
      }
    } else if (kind < 8) {
      wh.set_job_state(id, JobState::kCompleted, "report:completed");
      finish_if_done(wh.job(id)->dag);
    } else {
      wh.set_job_state(id, rng.chance(0.5) ? JobState::kCancelled
                                           : JobState::kHeld);
      wh.set_job_state(id, JobState::kUnplanned, "replan-queued");
      ++replans;
    }
    check("report");
  }

  EXPECT_EQ(differing, 0u);
  EXPECT_EQ(dags.size(), kDags);
  EXPECT_GT(partial_parents, 0u);
  EXPECT_GT(ready_joins, 0u);
  EXPECT_GT(drains, 0u);
  EXPECT_GT(reduced, 0u);
  EXPECT_GT(replans, 0u);
  EXPECT_GT(finished, kDags / 2);
  RecordProperty("partial_parents", static_cast<int>(partial_parents));
  RecordProperty("ready_joins", static_cast<int>(ready_joins));
  RecordProperty("finished", static_cast<int>(finished));
}

// --- replica location service vs the per-site reference -------------------

/// `replicas` as text, for a failure message.
std::string replica_list(const std::vector<data::Replica>& replicas) {
  std::string out = "[";
  for (const data::Replica& r : replicas) {
    if (out.size() > 1) out += ", ";
    out += std::to_string(r.site.value()) + ":" +
           obs::format_double(r.size_bytes);
  }
  return out + "]";
}

TEST_P(SeededProperty, ReplicaCatalogMatchesReference) {
  // One seeded schedule of registrations (new replicas and re-registered
  // sizes), single and clubbed lookups, and names never registered, run
  // against the one-table service and the per-site LRC reference side by
  // side: immediate, then in soft-state mode, where lookups fall before,
  // at and after each registration's propagation delay.
  constexpr int kNames = 48;
  constexpr std::int64_t kSites = 15;
  constexpr int kSteps = 1500;
  constexpr Duration kDelay = 40.0;
  std::vector<data::Lfn> names;
  for (int i = 0; i < kNames; ++i) {
    // Past the 15-character inline buffer, as the workload's names are.
    names.push_back("lfn://prop/" + std::to_string(GetParam()) + "/f" +
                    std::to_string(i));
  }
  for (const bool soft : {false, true}) {
    Rng rng(GetParam() * 2 + (soft ? 1 : 0));
    sim::Engine engine;
    data::ReplicaLocationService rls;
    rls_reference::ReplicaLocationService reference;
    if (soft) {
      rls.enable_soft_state(engine, kDelay);
      reference.enable_soft_state(engine, kDelay);
    }
    std::size_t differing = 0;
    // Reach: answers of two or more replicas whose order is not sorted by
    // site (what a sorting mutation gets wrong), re-registrations that
    // changed a size, misses on names never registered, clubbed calls,
    // and in soft-state mode lookups that see a registration's site
    // missing and present at the very instant it propagates.
    std::size_t unsorted = 0;
    std::size_t resized = 0;
    std::size_t misses = 0;
    std::size_t bulk = 0;
    std::size_t before_delay = 0;
    std::size_t after_delay = 0;
    std::set<std::pair<std::size_t, std::uint64_t>> registered;

    const auto compare = [&](const std::vector<data::Replica>& got,
                             const std::vector<data::Replica>& want,
                             std::string_view name) {
      if (got != want && differing++ == 0) {
        ADD_FAILURE() << (soft ? "soft-state" : "immediate") << " at t="
                      << engine.now() << ", " << name << ": "
                      << replica_list(got) << " vs " << replica_list(want);
      }
      misses += want.empty();
      unsorted += !std::is_sorted(want.begin(), want.end(),
                                  [](const data::Replica& a,
                                     const data::Replica& b) {
                                    return a.site < b.site;
                                  });
    };
    const auto lookup_one = [&](const data::Lfn& name) {
      std::vector<data::Replica> got = rls.locate(name);
      compare(got, reference.locate(name), name);
      if (rls.queries() != reference.queries() && differing++ == 0) {
        ADD_FAILURE() << "queries " << rls.queries() << " vs "
                      << reference.queries();
      }
      return got;
    };
    // A lookup of `name` in an engine event at `at`, the instant a
    // registration at `site` propagates.  A probe scheduled before the
    // registration fires before the propagation; one scheduled after it,
    // after.  Counts the probes whose site the index lacks (before) or
    // shows (after).
    const auto probe_at = [&](SimTime at, std::size_t name, SiteId site,
                              bool before) {
      engine.schedule_at(at, "probe", [&, name, site, before] {
        const std::vector<data::Replica> shown = lookup_one(names[name]);
        const bool has_site = std::any_of(
            shown.begin(), shown.end(),
            [site](const data::Replica& r) { return r.site == site; });
        before_delay += before && !has_site;
        after_delay += !before && has_site;
      });
    };

    for (int step = 0; step < kSteps; ++step) {
      // Time moves on a grid of quarter delays, so later steps land
      // exactly on earlier registrations' propagation instants.
      engine.run_until(engine.now() + kDelay / 4 *
                                          static_cast<double>(
                                              rng.uniform_int(0, 3)));
      const std::int64_t action = rng.uniform_int(0, 9);
      if (action < 4) {
        // The first half of the pool, each name at two to five sites of
        // its own (so re-registrations are frequent).
        const auto name =
            static_cast<std::size_t>(rng.uniform_int(0, kNames / 2 - 1));
        const auto spread = static_cast<std::int64_t>(2 + name % 4);
        const SiteId site(static_cast<std::uint64_t>(
            1 + (static_cast<std::int64_t>(name) * 7 +
                 rng.uniform_int(0, spread - 1)) %
                    kSites));
        const double bytes =
            1e6 * static_cast<double>(rng.uniform_int(1, 400));
        resized += !registered.emplace(name, site.value()).second;
        const bool probe = soft && rng.chance(0.3);
        if (probe) probe_at(engine.now() + kDelay, name, site, true);
        rls.register_replica(names[name], site, bytes);
        reference.register_replica(names[name], site, bytes);
        if (probe) probe_at(engine.now() + kDelay, name, site, false);
      } else if (action < 7) {
        // Any name: the second half of the pool is never registered.
        lookup_one(names[static_cast<std::size_t>(
            rng.uniform_int(0, kNames - 1))]);
      } else {
        std::vector<std::string_view> batch;
        const std::int64_t n = rng.uniform_int(0, 12);
        for (std::int64_t i = 0; i < n; ++i) {
          batch.push_back(names[static_cast<std::size_t>(
              rng.uniform_int(0, kNames - 1))]);
        }
        const auto got = rls.locate_bulk(batch);
        const auto want = reference.locate_bulk(batch);
        ++bulk;
        if (got.size() != want.size() && differing++ == 0) {
          ADD_FAILURE() << "bulk answer of " << got.size() << " names for "
                        << want.size();
        }
        for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
          compare(got[i], want[i], batch[i]);
        }
        if (rls.queries() != reference.queries() && differing++ == 0) {
          ADD_FAILURE() << "queries after a clubbed call " << rls.queries()
                        << " vs " << reference.queries();
        }
      }
    }
    engine.run_until();
    for (const data::Lfn& name : names) lookup_one(name);

    EXPECT_EQ(differing, 0u) << (soft ? "soft-state" : "immediate");
    EXPECT_GT(unsorted, 0u);
    EXPECT_GT(resized, 0u);
    EXPECT_GT(misses, 0u);
    EXPECT_GT(bulk, 0u);
    if (soft) {
      EXPECT_GT(before_delay, 0u);
      EXPECT_GT(after_delay, 0u);
    }
    RecordProperty(soft ? "soft_unsorted" : "unsorted",
                   static_cast<int>(unsorted));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededProperty,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 42u));

}  // namespace
}  // namespace sphinx
