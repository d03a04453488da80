// Failover scenario tests: a scheduler crash plus a client<->server
// partition during shard handoff must be byte-invisible to the
// scheduling layer.  The surviving peer adopts the dead shard from its
// durable state (checkpoint image + journal suffix), and the
// differential oracle demands the terminal journals and the
// control-plane-stripped trace equal a single-owner baseline's exactly.

#include <gtest/gtest.h>

#include <string>

#include "chaos/failover.hpp"
#include "chaos/oracle.hpp"

namespace sphinx {
namespace {

TEST(ChaosFailover, AdoptionIsByteInvisibleToTheSchedulingLayer) {
  const chaos::FailoverConfig config;
  const chaos::FailoverRunResult result = chaos::run_failover_pair(config);
  EXPECT_TRUE(result.ok()) << result.violation();
  EXPECT_TRUE(result.invariants.ok) << result.invariants.violation;
  EXPECT_TRUE(result.differential.ok) << result.differential.violation;
  // Exactly the crashed shard's lease expires and is adopted once; the
  // baseline (same seed, same partition, no crash) never loses a lease.
  EXPECT_EQ(result.expirations, 1u);
  EXPECT_EQ(result.adoptions, 1u);
  EXPECT_EQ(result.baseline_adoptions, 0u);
  EXPECT_GT(result.journal_records, 0u);
}

TEST(ChaosFailover, PairIsDeterministicAcrossInvocations) {
  const chaos::FailoverConfig config;
  const chaos::FailoverRunResult first = chaos::run_failover_pair(config);
  const chaos::FailoverRunResult second = chaos::run_failover_pair(config);
  ASSERT_TRUE(first.ok()) << first.violation();
  EXPECT_EQ(first.digest, second.digest);
  EXPECT_EQ(first.stopped_at, second.stopped_at);
  EXPECT_EQ(first.journal_records, second.journal_records);
}

TEST(ChaosFailover, StripFailoverEventsDropsControlPlaneLines) {
  const std::string trace =
      "{\"t\":1.0,\"kind\":\"job_state\",\"src\":\"server\",\"subj\":\"j1\","
      "\"detail\":\"\",\"v\":0}\n"
      "{\"t\":1.5,\"kind\":\"lease_granted\",\"src\":\"ctrl/coordinator\","
      "\"subj\":\"shard:0\",\"detail\":\"scheduler#0\",\"v\":1}\n"
      "{\"t\":2.0,\"kind\":\"rpc_call\",\"src\":\"ctrl/hb/scheduler#0/"
      "shard:0\",\"subj\":\"ctrl/coordinator\",\"detail\":\"ctrl.renew\","
      "\"v\":1}\n"
      "{\"t\":2.5,\"kind\":\"server_crash\",\"src\":\"chaos\",\"subj\":"
      "\"failover#0\",\"detail\":\"fail-stop\",\"v\":0}\n"
      "{\"t\":3.0,\"kind\":\"shard_adopted\",\"src\":\"ctrl/coordinator\","
      "\"subj\":\"shard:0\",\"detail\":\"scheduler#0->scheduler#1\","
      "\"v\":2}\n"
      "{\"t\":4.0,\"kind\":\"job_state\",\"src\":\"server\",\"subj\":\"j2\","
      "\"detail\":\"\",\"v\":0}\n";
  const std::string stripped = chaos::strip_failover_events(trace);
  EXPECT_EQ(stripped,
            "{\"t\":1.0,\"kind\":\"job_state\",\"src\":\"server\",\"subj\":"
            "\"j1\",\"detail\":\"\",\"v\":0}\n"
            "{\"t\":4.0,\"kind\":\"job_state\",\"src\":\"server\",\"subj\":"
            "\"j2\",\"detail\":\"\",\"v\":0}\n");
}

}  // namespace
}  // namespace sphinx
