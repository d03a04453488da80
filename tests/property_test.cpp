// Property-style tests: invariants that must hold across randomized
// inputs and operation sequences (parameterized by seed).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cctype>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <numeric>
#include <sstream>
#include <string_view>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "chaos/schedule.hpp"
#include "common/stats.hpp"
#include "data/gridftp.hpp"
#include "db/database.hpp"
#include "exp/scenario.hpp"
#include "grid/site.hpp"
#include "obs/recorder.hpp"
#include "rpc/xmlrpc.hpp"
#include "sim/engine.hpp"
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
  for (int i = 0; i < 120; ++i) {
    const double bytes = rng.uniform(1e6, 2e8);
    const auto src = SiteId(static_cast<std::uint64_t>(rng.uniform_int(1, 6)));
    const auto dst = SiteId(static_cast<std::uint64_t>(rng.uniform_int(1, 6)));
    engine.schedule_at(rng.uniform(0, 500), "start", [&, src, dst, bytes] {
      requested += bytes;
      const TransferId id = transfers.transfer(
          src, dst, bytes,
          [&completed_bytes, bytes](TransferId, Duration) {
            completed_bytes += bytes;
          });
      started.emplace_back(id, bytes);
    });
  }
  // Random cancellations along the way.
  for (int i = 0; i < 20; ++i) {
    engine.schedule_at(rng.uniform(100, 400), "cancel", [&] {
      if (started.empty()) return;
      transfers.cancel(started[static_cast<std::size_t>(
                                   rng.uniform_int(
                                       0, static_cast<std::int64_t>(
                                              started.size() - 1)))]
                           .first);
    });
  }
  engine.run_until();
  EXPECT_EQ(transfers.active(), 0u);
  const auto& stats = transfers.stats();
  EXPECT_EQ(stats.started, 120u);
  EXPECT_EQ(stats.completed + stats.cancelled, stats.started);
  // Every completed transfer delivered exactly its bytes; moved bytes are
  // completed bytes plus partial progress of cancelled ones.
  EXPECT_GE(stats.bytes_moved + 1.0, completed_bytes);
  EXPECT_LE(completed_bytes, requested + 1.0);
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
    ++stats_.started;
    if (src == dst || bytes <= 0) {
      ++stats_.completed;
      stats_.bytes_moved += bytes;
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
    ++stats_.cancelled;
    rebalance();
  }

  [[nodiscard]] std::size_t active() const noexcept { return active_.size(); }
  [[nodiscard]] const data::TransferStats& stats() const noexcept {
    return stats_;
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
        stats_.bytes_moved += a.rate * dt;
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
            ++stats_.completed;
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
  data::TransferStats stats_;
};

/// What one drive of a transfer model observed, plus how much of each
/// awkward case the seeded schedule actually exercised.
struct TransferTrace {
  /// (id, duration, sim time) per callback, in firing order.
  std::vector<std::tuple<std::uint64_t, Duration, SimTime>> completions;
  data::TransferStats stats;
  std::size_t active = 0;
  int cancels_live = 0;
  int cancels_finished = 0;
  int cancels_unknown = 0;
  int ties = 0;  ///< WAN completions sharing a time and duration
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
  // Completion callbacks record themselves and sometimes start a
  // follow-up transfer (local, empty or WAN), re-entering transfer().
  std::function<void(TransferId, Duration)> done;
  const auto start = [&](SiteId src, SiteId dst, double bytes) {
    last_issued = transfers.transfer(src, dst, bytes, done).value();
    finished.resize(last_issued + 1, false);
  };
  done = [&](TransferId id, Duration took) {
    const auto& prev = trace.completions;
    if (took > 0 && !prev.empty() && std::get<1>(prev.back()) == took &&
        std::get<2>(prev.back()) == engine.now()) {
      ++trace.ties;
    }
    trace.completions.emplace_back(id.value(), took, engine.now());
    finished[id.value()] = true;
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
      const std::size_t before = transfers.active();
      transfers.cancel(TransferId(id));
      if (transfers.active() < before) {
        ++trace.cancels_live;
      } else if (id > last_issued) {
        ++trace.cancels_unknown;
      } else if (finished[id]) {
        ++trace.cancels_finished;
      }
    });
  }
  // Capacities change under live flows; rates follow at the next event.
  engine.schedule_at(rng.uniform(200, 400), "relink", [&] {
    transfers.set_link(SiteId(1), {rng.uniform(2e6, 30e6),
                                   rng.uniform(2e6, 30e6)});
    transfers.set_link(SiteId(kSites), {4e6, 9e6});
  });
  engine.run_until();
  trace.stats = transfers.stats();
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
  EXPECT_TRUE(std::any_of(want.completions.begin(), want.completions.end(),
                          [](const auto& c) { return std::get<1>(c) == 0.0; }));
  // Bit-identical: == on every double, no tolerance.
  EXPECT_EQ(got.completions, want.completions);
  EXPECT_EQ(got.stats.started, want.stats.started);
  EXPECT_EQ(got.stats.completed, want.stats.completed);
  EXPECT_EQ(got.stats.cancelled, want.stats.cancelled);
  EXPECT_EQ(got.stats.bytes_moved, want.stats.bytes_moved);
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
  // Counter algebra: everything submitted ends somewhere.
  const auto& counters = site.counters();
  EXPECT_LE(counters.completed + counters.cancelled + counters.lost,
            counters.submitted);
}

// --- journal replay equivalence ---------------------------------------------

TEST_P(SeededProperty, JournalReplayMatchesOriginal) {
  Rng rng(GetParam());
  db::Database original;
  db::Table& table = original.create_table(
      "t", db::Schema{{"k", db::ValueType::kInt},
                      {"s", db::ValueType::kText},
                      {"x", db::ValueType::kReal}});
  std::vector<db::RowId> rows;
  for (int i = 0; i < 400; ++i) {
    const double dice = rng.uniform();
    if (dice < 0.6 || rows.empty()) {
      rows.push_back(table.insert({db::Value(rng.uniform_int(0, 1000)),
                                   db::Value("s" + std::to_string(i % 17)),
                                   db::Value(rng.uniform(0, 1))}));
    } else if (dice < 0.85) {
      table.update(rows[static_cast<std::size_t>(rng.uniform_int(
                       0, static_cast<std::int64_t>(rows.size() - 1)))],
                   "s", db::Value("u" + std::to_string(i)));
    } else {
      const auto idx = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(rows.size() - 1)));
      table.erase(rows[idx]);
      rows.erase(rows.begin() + static_cast<std::ptrdiff_t>(idx));
    }
  }
  // Replay directly and through the text form; both must equal original.
  db::Database direct;
  ASSERT_TRUE(direct.recover(original.journal()).ok());
  const auto parsed = db::Journal::parse(original.journal().serialize());
  ASSERT_TRUE(parsed.has_value());
  db::Database via_text;
  ASSERT_TRUE(via_text.recover(*parsed).ok());

  const auto snapshot = [](const db::Database& d) {
    std::vector<std::string> out;
    d.table("t").for_each([&out](const db::Row& row) {
      std::string line = std::to_string(row.id);
      for (const auto& cell : row.cells) line += "|" + cell.to_string();
      out.push_back(std::move(line));
    });
    return out;
  };
  EXPECT_EQ(snapshot(direct), snapshot(original));
  EXPECT_EQ(snapshot(via_text), snapshot(original));
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
          EXPECT_TRUE(rls.exists(input)) << input;
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

  std::map<std::string, int> open;  // site -> currently-down?
  std::map<std::string, SimTime> last_outage_at;
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

TEST_P(SeededProperty, RunningStatsMergeWithEmptySideIsIdentity) {
  Rng rng(GetParam());
  RunningStats filled;
  const int n = static_cast<int>(rng.uniform_int(1, 40));
  for (int i = 0; i < n; ++i) filled.add(rng.uniform(-100.0, 100.0));

  // empty.merge(filled) == filled.
  RunningStats left;
  left.merge(filled);
  EXPECT_EQ(left.count(), filled.count());
  EXPECT_DOUBLE_EQ(left.mean(), filled.mean());
  EXPECT_DOUBLE_EQ(left.variance(), filled.variance());
  EXPECT_DOUBLE_EQ(left.min(), filled.min());
  EXPECT_DOUBLE_EQ(left.max(), filled.max());

  // filled.merge(empty) leaves filled untouched.
  RunningStats right = filled;
  right.merge(RunningStats{});
  EXPECT_EQ(right.count(), filled.count());
  EXPECT_DOUBLE_EQ(right.mean(), filled.mean());
  EXPECT_DOUBLE_EQ(right.variance(), filled.variance());
  EXPECT_DOUBLE_EQ(right.min(), filled.min());
  EXPECT_DOUBLE_EQ(right.max(), filled.max());
}

TEST_P(SeededProperty, RunningStatsMergeMatchesBulkAccumulation) {
  Rng rng(GetParam());
  RunningStats a;
  RunningStats b;
  RunningStats bulk;
  const int n = static_cast<int>(rng.uniform_int(1, 60));
  for (int i = 0; i < n; ++i) {
    const double x = rng.uniform(-50.0, 50.0);
    (i % 2 == 0 ? a : b).add(x);
    bulk.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), bulk.count());
  EXPECT_NEAR(a.mean(), bulk.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), bulk.variance(), 1e-7);
  EXPECT_DOUBLE_EQ(a.min(), bulk.min());
  EXPECT_DOUBLE_EQ(a.max(), bulk.max());
}

// --- XML-RPC wire against the DOM reference --------------------------------

/// The XML-RPC path that rpc::MethodCall/MethodResponse replaced, kept as
/// a reference implementation: every envelope is built as an XmlNode tree
/// and written out compactly, or parsed by a recursive-descent XML parser
/// into such a tree and then decoded.  The streaming writer must reproduce
/// its bytes exactly; the pull parser may accept only what it accepts, and
/// must then decode the same value.
namespace dom {

using rpc::XrValue;

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

std::string serialize(const rpc::MethodCall& call) {
  XmlNode root("methodCall");
  root.add_child(XmlNode("methodName", call.method));
  XmlNode& params = root.add_child(XmlNode("params"));
  for (const XrValue& p : call.params) {
    params.add_child(XmlNode("param")).add_child(to_xml(p));
  }
  return serialize(root);
}

std::string serialize(const rpc::MethodResponse& r) {
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

Expected<rpc::MethodCall> parse_call(const std::string& xml) {
  auto doc = Parser(xml).parse();
  if (!doc) return Unexpected<Error>{doc.error()};
  const XmlNode* name = doc->child("methodName");
  if (doc->name != "methodCall" || name == nullptr || name->text.empty()) {
    return make_error("xmlrpc_parse", "not a call");
  }
  rpc::MethodCall call;
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
Expected<rpc::MethodResponse> parse_response(const std::string& xml) {
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
    return rpc::MethodResponse::failure(v->at("faultCode").as_int(),
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
  return rpc::MethodResponse::success(std::move(*v));
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
rpc::XrValue wire_value(Rng& rng, int depth) {
  switch (rng.uniform_int(0, depth < 5 ? 5 : 3)) {
    case 0:
      return rpc::XrValue(rng.chance(0.2)
                              ? std::numeric_limits<std::int64_t>::min()
                              : static_cast<std::int64_t>(rng.engine()()));
    case 1: return rpc::XrValue(wire_double(rng));
    case 2: return rpc::XrValue(rng.chance(0.5));
    case 3: return rpc::XrValue(wire_text(rng));
    case 4: {
      rpc::XrValue::Array items;
      for (auto n = rng.uniform_int(0, 3); n > 0; --n) {
        items.push_back(wire_value(rng, depth + 1));
      }
      return rpc::XrValue(std::move(items));
    }
    default: {
      rpc::XrValue::Struct members;
      for (auto n = rng.uniform_int(0, 3); n > 0; --n) {
        members.emplace(wire_text(rng), wire_value(rng, depth + 1));
      }
      return rpc::XrValue(std::move(members));
    }
  }
}

int value_depth(const rpc::XrValue& v) {
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

bool has_subnormal(const rpc::XrValue& v) {
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

/// One seeded byte mutation: delete, insert, replace or splice.
void mutate(Rng& rng, std::string& doc,
            const std::vector<std::string>& corpus) {
  static constexpr std::string_view kBytes = "<>/&;= \n\t\"'?!-+.0159aeinx\v";
  static const std::vector<std::string> kFragments = {
      "<value>", "</value>", "<i8>", "</i8>", "<double>", "<string>",
      "<array>", "<data>", "</data>", "<struct>", "<member>", "<name>",
      "<param>", "</param>", "<value/>", "<string/>", "<data/>", "<struct/>",
      "<value>&apos;a&gt;</value>", "&amp;", "&lt;", "&bogus;", "nan", "inf",
      "1e-310", "-", "0x"};
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
        doc.insert(pos, kFragments[static_cast<std::size_t>(
                            rng.uniform_int(0, kFragments.size() - 1))]);
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

TEST_P(SeededProperty, XmlRpcWireMatchesDomReference) {
  Rng rng(GetParam());
  // (a) Bytes: the writer reproduces the DOM writer, and a parsed
  // document writes back the same bytes.
  std::vector<std::string> calls;
  std::vector<std::string> responses;
  int deepest = 0;
  for (int i = 0; i < 150; ++i) {
    rpc::MethodCall call{"m" + wire_text(rng), {}};
    if (i == 0) {
      // Whatever the seed, one param nests 5 deep: struct, array, struct,
      // array, random leaf.
      rpc::XrValue v = wire_value(rng, 5);
      for (int d = 4; d >= 1; --d) {
        using rpc::XrValue;
        v = d % 2 == 0 ? XrValue(XrValue::Array{v})
                       : XrValue(XrValue::Struct{{wire_text(rng), v}});
      }
      call.params.push_back(std::move(v));
    }
    for (auto n = rng.uniform_int(0, 3); n > 0; --n) {
      call.params.push_back(wire_value(rng, 1));
    }
    for (const rpc::XrValue& p : call.params) {
      deepest = std::max(deepest, value_depth(p));
    }
    const std::string bytes = call.serialize();
    EXPECT_EQ(bytes, dom::serialize(call));
    const auto parsed = rpc::MethodCall::parse(bytes);
    ASSERT_TRUE(parsed.has_value()) << bytes;
    EXPECT_EQ(parsed->serialize(), bytes);
    calls.push_back(bytes);

    const rpc::MethodResponse response =
        rng.chance(0.25)
            ? rpc::MethodResponse::failure(
                  static_cast<std::int64_t>(rng.engine()()), wire_text(rng))
            : rpc::MethodResponse::success(wire_value(rng, 1));
    const std::string reply = response.serialize();
    EXPECT_EQ(reply, dom::serialize(response));
    const auto reparsed = rpc::MethodResponse::parse(reply);
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
    for (auto n = rng.uniform_int(1, 3); n > 0; --n) mutate(rng, doc, corpus);

    bool pull_ok = false;
    bool reference_ok = false;
    bool subnormal = false;
    std::string pull_bytes;
    std::string reference_bytes;
    if (is_call) {
      const auto got = rpc::MethodCall::parse(doc);
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
      const auto got = rpc::MethodResponse::parse(doc);
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

INSTANTIATE_TEST_SUITE_P(Seeds, SeededProperty,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 42u));

}  // namespace
}  // namespace sphinx
