// Control-plane tests: the lease table (grant / renew / fence / expire /
// transfer), shard naming, and the coordinator + heartbeat integration on
// a bare engine and bus -- expiry detection, adoption with retry and
// epoch fencing.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ctrl/coordinator.hpp"
#include "ctrl/heartbeat.hpp"
#include "ctrl/lease.hpp"
#include "ctrl/shard.hpp"
#include "obs/recorder.hpp"
#include "rpc/gsi.hpp"
#include "rpc/transport.hpp"
#include "sim/engine.hpp"

namespace sphinx::ctrl {
namespace {

/// The lease on `shard`, if one was ever granted.
std::optional<Lease> lease_of(const LeaseTable& table,
                              const std::string& shard) {
  for (const Lease& lease : table.leases()) {
    if (lease.shard == shard) return lease;
  }
  return std::nullopt;
}

rpc::Proxy control_proxy(SimTime now = 0.0) {
  return rpc::Proxy(
      rpc::Identity{"/CN=sphinx-control-plane"}, "ivdgl", {},
      now, hours(24 * 365));
}

// --- shard naming -----------------------------------------------------------

TEST(Shard, RoundRobinAssignmentAndNames) {
  EXPECT_EQ(shard_of(0, 2), 0u);
  EXPECT_EQ(shard_of(1, 2), 1u);
  EXPECT_EQ(shard_of(2, 2), 0u);
  EXPECT_EQ(shard_of(5, 1), 0u);
  EXPECT_EQ(shard_name(3), "shard:3");
  EXPECT_EQ(scheduler_name(2), "scheduler#2");
}

// --- lease table ------------------------------------------------------------

TEST(LeaseTable, GrantRenewAndLookup) {
  LeaseTable table;
  EXPECT_EQ(table.grant("shard:0", "scheduler#0", 0.0, 3.0), 1u);
  const auto lease = lease_of(table, "shard:0");
  ASSERT_TRUE(lease.has_value());
  EXPECT_EQ(lease->owner, "scheduler#0");
  EXPECT_EQ(lease->epoch, 1u);
  EXPECT_DOUBLE_EQ(lease->expires_at, 3.0);
  EXPECT_TRUE(lease->live);

  EXPECT_EQ(table.renew("shard:0", "scheduler#0", 1, 2.0, 3.0),
            RenewOutcome::kRenewed);
  EXPECT_DOUBLE_EQ(lease_of(table, "shard:0")->expires_at, 5.0);
  EXPECT_EQ(table.renew("missing", "scheduler#0", 1, 2.0, 3.0),
            RenewOutcome::kUnknownShard);
  EXPECT_FALSE(lease_of(table, "missing").has_value());
}

TEST(LeaseTable, StaleEpochAndDeadLeaseAreFenced) {
  LeaseTable table;
  table.grant("shard:0", "scheduler#0", 0.0, 3.0);

  // Wrong owner and wrong epoch both fence.
  EXPECT_EQ(table.renew("shard:0", "scheduler#1", 1, 1.0, 3.0),
            RenewOutcome::kFenced);
  EXPECT_EQ(table.renew("shard:0", "scheduler#0", 2, 1.0, 3.0),
            RenewOutcome::kFenced);

  // A dead lease fences even its own owner at the right epoch: the owner
  // was declared failed and must not resurrect itself by renewing.
  table.mark_expired("shard:0");
  EXPECT_EQ(table.renew("shard:0", "scheduler#0", 1, 1.0, 3.0),
            RenewOutcome::kFenced);
}

TEST(LeaseTable, ExpiredAndDeadListsInGrantOrder) {
  LeaseTable table;
  table.grant("shard:1", "scheduler#1", 0.0, 3.0);
  table.grant("shard:0", "scheduler#0", 0.0, 5.0);
  EXPECT_TRUE(table.expired(2.9).empty());

  const auto at3 = table.expired(3.0);  // deadline is inclusive
  ASSERT_EQ(at3.size(), 1u);
  EXPECT_EQ(at3[0].shard, "shard:1");

  const auto at5 = table.expired(5.0);
  ASSERT_EQ(at5.size(), 2u);
  EXPECT_EQ(at5[0].shard, "shard:1");  // grant order, not name order
  EXPECT_EQ(at5[1].shard, "shard:0");

  // mark_expired moves a lease from expired() to dead() exactly once.
  EXPECT_TRUE(table.dead().empty());
  table.mark_expired("shard:1");
  EXPECT_EQ(table.expired(5.0).size(), 1u);
  const auto dead = table.dead();
  ASSERT_EQ(dead.size(), 1u);
  EXPECT_EQ(dead[0].shard, "shard:1");
  EXPECT_FALSE(dead[0].live);
}

TEST(LeaseTable, TransferBumpsEpochAndRevives) {
  LeaseTable table;
  table.grant("shard:0", "scheduler#0", 0.0, 3.0);
  table.mark_expired("shard:0");
  EXPECT_EQ(table.transfer("shard:0", "scheduler#1", 4.0, 3.0), 2u);
  const auto lease = lease_of(table, "shard:0");
  ASSERT_TRUE(lease.has_value());
  EXPECT_EQ(lease->owner, "scheduler#1");
  EXPECT_EQ(lease->epoch, 2u);
  EXPECT_TRUE(lease->live);
  EXPECT_DOUBLE_EQ(lease->expires_at, 7.0);
  EXPECT_TRUE(table.dead().empty());

  // The new owner renews under the new epoch; the fenced one cannot.
  EXPECT_EQ(table.renew("shard:0", "scheduler#1", 2, 5.0, 3.0),
            RenewOutcome::kRenewed);
  EXPECT_EQ(table.renew("shard:0", "scheduler#0", 1, 5.0, 3.0),
            RenewOutcome::kFenced);
}

TEST(LeaseTable, FirstLiveOwnerSkipsExcludedDeadAndOverdue) {
  LeaseTable table;
  table.grant("shard:0", "scheduler#0", 0.0, 3.0);
  table.grant("shard:1", "scheduler#1", 0.0, 10.0);
  table.grant("shard:2", "scheduler#2", 0.0, 10.0);

  EXPECT_EQ(table.first_live_owner(1.0, "scheduler#0"), "scheduler#1");
  EXPECT_EQ(table.first_live_owner(1.0, ""), "scheduler#0");
  // Overdue leases do not vouch for their owner.
  EXPECT_EQ(table.first_live_owner(4.0, ""), "scheduler#1");
  table.mark_expired("shard:1");
  EXPECT_EQ(table.first_live_owner(4.0, ""), "scheduler#2");
  EXPECT_FALSE(table.first_live_owner(4.0, "scheduler#2").has_value());
}

// --- coordinator + heartbeat integration ------------------------------------

class CtrlFixture : public ::testing::Test {
 protected:
  CtrlFixture() {
    bus.set_control_stream("ctrl/", Rng(99));
    coordinator.set_recorder(&recorder);
  }

  /// The coordinator's count `name` (e.g. "ctrl.lease_expired").
  [[nodiscard]] std::uint64_t count(const std::string& name) const {
    return recorder.counter(name, "ctrl");
  }

  std::unique_ptr<HeartbeatAgent> make_agent(std::size_t shard_idx,
                                             std::size_t owner_idx,
                                             std::uint64_t epoch,
                                             Duration phase = 0.25) {
    return std::make_unique<HeartbeatAgent>(
        bus, shard_name(shard_idx), scheduler_name(owner_idx), epoch, phase,
        control_proxy());
  }

  sim::Engine engine;
  obs::Recorder recorder{engine};
  rpc::MessageBus bus{engine, Rng(1), 0.05, 0.05};
  // kLeaseTtl 3 s, kMonitorPeriod 1 s; the first sweep at t = 0.
  LeaseCoordinator coordinator{bus, /*monitor_phase=*/0.0};
};

TEST_F(CtrlFixture, RenewalsKeepTheLeaseAliveIndefinitely) {
  coordinator.grant(shard_name(0), scheduler_name(0));
  auto agent = make_agent(0, 0, 1);
  coordinator.start();
  agent->start();
  engine.schedule_at(60.0, "stop", [&] { engine.stop(); });
  engine.run_until();
  EXPECT_TRUE(agent->running());
  EXPECT_EQ(count("ctrl.lease_fenced"), 0u);
  EXPECT_EQ(count("ctrl.lease_expired"), 0u);
  EXPECT_GT(count("ctrl.lease_renewals"), 50u);
  EXPECT_TRUE(lease_of(coordinator.leases(), shard_name(0))->live);
}

TEST_F(CtrlFixture, SilentOwnerExpiresAndSurvivorAdopts) {
  coordinator.grant(shard_name(0), scheduler_name(0));
  coordinator.grant(shard_name(1), scheduler_name(1));
  auto dead_agent = make_agent(0, 0, 1, 0.25);
  auto live_agent = make_agent(1, 1, 1, 0.35);

  std::vector<std::string> adopted_shards;
  std::string adopter;
  std::uint64_t adopted_epoch = 0;
  std::unique_ptr<HeartbeatAgent> adopted_agent;
  coordinator.set_adopt_handler(
      [&](const std::string& shard, const std::string& dead_owner,
          const std::string& new_owner) -> StatusOrError {
        EXPECT_EQ(shard, shard_name(0));
        EXPECT_EQ(dead_owner, scheduler_name(0));
        adopted_shards.push_back(shard);
        adopter = new_owner;
        return StatusOrError{};
      });
  // The adopter starts heartbeating the shard under its new epoch, just
  // as a real scheduler would -- otherwise the adopted lease goes silent
  // and expires all over again.
  coordinator.set_adopted_callback(
      [&](const std::string&, const std::string&, std::uint64_t epoch) {
        adopted_epoch = epoch;
        adopted_agent = make_agent(0, 1, epoch, 0.45);
        adopted_agent->start();
      });

  coordinator.start();
  dead_agent->start();
  live_agent->start();
  engine.schedule_at(10.0, "kill", [&] { dead_agent.reset(); });
  engine.schedule_at(30.0, "stop", [&] { engine.stop(); });
  engine.run_until();

  EXPECT_EQ(count("ctrl.lease_expired"), 1u);
  EXPECT_EQ(count("ctrl.shard_adoptions"), 1u);
  ASSERT_EQ(adopted_shards.size(), 1u);  // adopted exactly once
  EXPECT_EQ(adopter, scheduler_name(1));
  EXPECT_EQ(adopted_epoch, 2u);
  const auto lease = lease_of(coordinator.leases(), shard_name(0));
  ASSERT_TRUE(lease.has_value());
  EXPECT_EQ(lease->owner, scheduler_name(1));
  EXPECT_TRUE(lease->live);
  // The survivor's own shard never wobbled.
  EXPECT_EQ(lease_of(coordinator.leases(), shard_name(1))->epoch, 1u);
}

TEST_F(CtrlFixture, FailedAdoptionIsRetriedNextSweep) {
  coordinator.grant(shard_name(0), scheduler_name(0));
  coordinator.grant(shard_name(1), scheduler_name(1));
  auto live_agent = make_agent(1, 1, 1, 0.35);

  std::size_t attempts = 0;
  std::unique_ptr<HeartbeatAgent> adopted_agent;
  coordinator.set_adopt_handler(
      [&](const std::string&, const std::string&,
          const std::string&) -> StatusOrError {
        ++attempts;
        if (attempts < 3) {
          return make_error("adopt", "recovery failed");
        }
        return StatusOrError{};
      });
  coordinator.set_adopted_callback(
      [&](const std::string&, const std::string&, std::uint64_t epoch) {
        adopted_agent = make_agent(0, 1, epoch, 0.45);
        adopted_agent->start();
      });

  coordinator.start();
  live_agent->start();  // shard:0's owner never beats at all
  engine.schedule_at(20.0, "stop", [&] { engine.stop(); });
  engine.run_until();

  EXPECT_EQ(attempts, 3u);  // two refused, the third adopted
  EXPECT_EQ(count("ctrl.shard_adoptions"), 1u);
  EXPECT_EQ(count("ctrl.lease_expired"), 1u);  // declared dead once
  EXPECT_EQ(lease_of(coordinator.leases(), shard_name(0))->owner,
            scheduler_name(1));
}

TEST_F(CtrlFixture, AdoptionWaitsWhenNoLiveCandidateExists) {
  coordinator.grant(shard_name(0), scheduler_name(0));
  std::size_t attempts = 0;
  coordinator.set_adopt_handler(
      [&](const std::string&, const std::string&,
          const std::string&) -> StatusOrError {
        ++attempts;
        return StatusOrError{};
      });
  coordinator.start();  // the only owner never beats
  engine.schedule_at(10.0, "stop", [&] { engine.stop(); });
  engine.run_until();
  EXPECT_EQ(attempts, 0u);
  EXPECT_EQ(count("ctrl.lease_expired"), 1u);
  EXPECT_EQ(count("ctrl.shard_adoptions"), 0u);
  // Still dead and still the silent owner's: adoption keeps waiting.
  ASSERT_EQ(coordinator.leases().dead().size(), 1u);
  EXPECT_EQ(coordinator.leases().dead().front().owner, scheduler_name(0));
  EXPECT_FALSE(lease_of(coordinator.leases(), shard_name(0))->live);
}

TEST_F(CtrlFixture, ResurrectedOwnerIsFencedAndStopsItself) {
  coordinator.grant(shard_name(0), scheduler_name(0));
  coordinator.grant(shard_name(1), scheduler_name(1));
  auto old_agent = make_agent(0, 0, 1, 0.25);
  auto live_agent = make_agent(1, 1, 1, 0.35);
  std::unique_ptr<HeartbeatAgent> adopted_agent;
  coordinator.set_adopt_handler(
      [](const std::string&, const std::string&,
         const std::string&) -> StatusOrError {
        return StatusOrError{};
      });
  coordinator.set_adopted_callback(
      [&](const std::string&, const std::string&, std::uint64_t epoch) {
        adopted_agent = make_agent(0, 1, epoch, 0.45);
        adopted_agent->start();
      });

  coordinator.start();
  old_agent->start();
  live_agent->start();
  // Pause (not destroy) the owner: long enough to lose the lease, then it
  // comes back and beats with its original, now-stale epoch.
  engine.schedule_at(10.0, "pause", [&] { old_agent->stop(); });
  engine.schedule_at(20.0, "resume", [&] { old_agent->start(); });
  engine.schedule_at(30.0, "stop", [&] { engine.stop(); });
  engine.run_until();

  EXPECT_EQ(count("ctrl.shard_adoptions"), 1u);
  EXPECT_GT(count("ctrl.lease_fenced"), 0u);
  EXPECT_FALSE(old_agent->running());  // stopped itself, stays stopped
  EXPECT_EQ(lease_of(coordinator.leases(), shard_name(0))->owner,
            scheduler_name(1));
}

}  // namespace
}  // namespace sphinx::ctrl
