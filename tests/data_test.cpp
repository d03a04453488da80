// Tests for the data layer: RLS, GridFTP transfers and replica selection.

#include <gtest/gtest.h>

#include <vector>

#include "data/gridftp.hpp"
#include "data/replication.hpp"
#include "data/rls.hpp"
#include "sim/engine.hpp"

namespace sphinx::data {
namespace {

constexpr double kMB = 1e6;

TEST(Rls, RegisterAndLocate) {
  ReplicaLocationService rls;
  rls.register_replica("lfn://a", SiteId(1), 10 * kMB);
  rls.register_replica("lfn://a", SiteId(2), 10 * kMB);
  rls.register_replica("lfn://b", SiteId(1), 5 * kMB);

  const auto replicas = rls.locate("lfn://a");
  EXPECT_EQ(replicas.size(), 2u);
  EXPECT_EQ(rls.locate("lfn://b").size(), 1u);
  EXPECT_EQ(rls.locate("lfn://missing").size(), 0u);
}

TEST(Rls, ReRegisterUpdatesSize) {
  ReplicaLocationService rls;
  rls.register_replica("lfn://a", SiteId(1), 10 * kMB);
  rls.register_replica("lfn://a", SiteId(1), 20 * kMB);
  const auto replicas = rls.locate("lfn://a");
  ASSERT_EQ(replicas.size(), 1u);
  EXPECT_DOUBLE_EQ(replicas[0].size_bytes, 20 * kMB);
}

TEST(Rls, BulkLookupIsParallelToInputAndCountsOnce) {
  ReplicaLocationService rls;
  rls.register_replica("lfn://a", SiteId(1), kMB);
  rls.register_replica("lfn://c", SiteId(2), kMB);
  const std::size_t before = rls.queries();
  const std::string_view names[] = {"lfn://a", "lfn://b", "lfn://c"};
  const auto result = rls.locate_bulk(names);
  EXPECT_EQ(rls.queries(), before + 1);  // one clubbed call
  ASSERT_EQ(result.size(), 3u);
  EXPECT_EQ(result[0].size(), 1u);
  EXPECT_TRUE(result[1].empty());
  EXPECT_EQ(result[2][0].site, SiteId(2));
}

TEST(Rls, LrcIsPerSite) {
  ReplicaLocationService rls;
  rls.register_replica("lfn://a", SiteId(1), kMB);
  // Site 1's LRC holds the file at its registered size; site 2's does not.
  EXPECT_EQ(rls.locate("lfn://a"), (std::vector<Replica>{{SiteId(1), kMB}}));
}

class TransferFixture : public ::testing::Test {
 protected:
  TransferFixture() : transfers(engine) {
    transfers.set_link(SiteId(1), {10 * kMB, 10 * kMB});
    transfers.set_link(SiteId(2), {10 * kMB, 10 * kMB});
    transfers.set_link(SiteId(3), {1 * kMB, 1 * kMB});
  }

  sim::Engine engine;
  TransferService transfers;
};

TEST_F(TransferFixture, SingleTransferAtFullRate) {
  Duration took = -1;
  int fired = 0;
  transfers.transfer(SiteId(1), SiteId(2), 100 * kMB,
                     [&](TransferId, Duration d) {
                       took = d;
                       ++fired;
                     });
  engine.run_until();
  EXPECT_NEAR(took, 10.0, 1e-6);  // 100 MB at 10 MB/s
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(transfers.active(), 0u);
}

TEST_F(TransferFixture, LocalTransferIsInstant) {
  Duration took = -1;
  transfers.transfer(SiteId(1), SiteId(1), 100 * kMB,
                     [&](TransferId, Duration d) { took = d; });
  engine.run_until();
  EXPECT_DOUBLE_EQ(took, 0.0);
}

TEST_F(TransferFixture, SlowLinkBoundsRate) {
  Duration took = -1;
  transfers.transfer(SiteId(3), SiteId(2), 60 * kMB,
                     [&](TransferId, Duration d) { took = d; });
  engine.run_until();
  EXPECT_NEAR(took, 60.0, 1e-6);  // bottleneck is the 1 MB/s uplink
}

TEST_F(TransferFixture, SharedDownlinkSplitsBandwidth) {
  // Two 10 MB/s sources into one 10 MB/s destination: each gets 5 MB/s.
  std::vector<Duration> done;
  transfers.set_link(SiteId(4), {10 * kMB, 10 * kMB});
  transfers.transfer(SiteId(1), SiteId(2), 50 * kMB,
                     [&](TransferId, Duration d) { done.push_back(d); });
  transfers.transfer(SiteId(4), SiteId(2), 50 * kMB,
                     [&](TransferId, Duration d) { done.push_back(d); });
  engine.run_until();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_NEAR(done[0], 10.0, 1e-6);  // 50 MB at 5 MB/s
  EXPECT_NEAR(done[1], 10.0, 1e-6);
}

TEST_F(TransferFixture, RatesRebalanceWhenTransferFinishes) {
  // Transfer A: 50 MB, B: 100 MB, same links.  Shared 5 MB/s each until A
  // finishes at t=10 with 50 MB of B left; B then runs at 10 MB/s and
  // finishes at t=15.
  Duration a_done = -1, b_done = -1;
  transfers.transfer(SiteId(1), SiteId(2), 50 * kMB,
                     [&](TransferId, Duration d) { a_done = d; });
  transfers.transfer(SiteId(1), SiteId(2), 100 * kMB,
                     [&](TransferId, Duration d) { b_done = d; });
  engine.run_until();
  EXPECT_NEAR(a_done, 10.0, 1e-6);
  EXPECT_NEAR(b_done, 15.0, 1e-6);
}

TEST_F(TransferFixture, CancelSilencesCallbackAndFreesBandwidth) {
  bool a_fired = false;
  Duration b_done = -1;
  const TransferId a = transfers.transfer(
      SiteId(1), SiteId(2), 100 * kMB, [&](TransferId, Duration) { a_fired = true; });
  transfers.transfer(SiteId(1), SiteId(2), 50 * kMB,
                     [&](TransferId, Duration d) { b_done = d; });
  std::size_t active_after_cancel = 0;
  engine.schedule_in(2.0, "cancel", [&] {
    transfers.cancel(a);
    active_after_cancel = transfers.active();
  });
  engine.run_until();
  EXPECT_FALSE(a_fired);
  EXPECT_EQ(active_after_cancel, 1u);  // only B is left in flight
  // B: 2s at 5 MB/s (10 MB) + 40 MB at 10 MB/s (4s) = 6s total.
  EXPECT_NEAR(b_done, 6.0, 1e-6);
}

TEST_F(TransferFixture, EstimateIgnoresContention) {
  EXPECT_NEAR(transfers.estimate(SiteId(1), SiteId(2), 100 * kMB), 10.0, 1e-9);
  EXPECT_NEAR(transfers.estimate(SiteId(3), SiteId(2), 10 * kMB), 10.0, 1e-9);
  EXPECT_DOUBLE_EQ(transfers.estimate(SiteId(1), SiteId(1), kMB), 0.0);
}

TEST_F(TransferFixture, ManyConcurrentTransfersAllComplete) {
  int completed = 0;
  for (int i = 0; i < 50; ++i) {
    transfers.transfer(SiteId(1 + i % 3), SiteId(1 + (i + 1) % 3), 10 * kMB,
                       [&](TransferId, Duration) { ++completed; });
  }
  engine.run_until();
  EXPECT_EQ(completed, 50);
  EXPECT_EQ(transfers.active(), 0u);
}

TEST(ReplicaSelection, PrefersLocalThenFastest) {
  sim::Engine engine;
  TransferService transfers(engine);
  transfers.set_link(SiteId(1), {10 * kMB, 10 * kMB});
  transfers.set_link(SiteId(2), {1 * kMB, 1 * kMB});
  transfers.set_link(SiteId(3), {10 * kMB, 10 * kMB});

  const std::vector<Replica> replicas = {
      {SiteId(2), 50 * kMB},
      {SiteId(1), 50 * kMB},
  };
  // Destination 3: site 1's uplink (10 MB/s) beats site 2's (1 MB/s).
  const auto remote = select_replica(replicas, SiteId(3), transfers);
  ASSERT_TRUE(remote.has_value());
  EXPECT_EQ(remote->site, SiteId(1));

  // Destination 2: the local replica wins with cost 0.
  const auto local = select_replica(replicas, SiteId(2), transfers);
  ASSERT_TRUE(local.has_value());
  EXPECT_EQ(local->site, SiteId(2));
  EXPECT_DOUBLE_EQ(transfers.estimate(SiteId(2), SiteId(2), 50 * kMB), 0.0);

  EXPECT_FALSE(select_replica({}, SiteId(1), transfers).has_value());
}

}  // namespace
}  // namespace sphinx::data
