// Unit tests for the four scheduling strategies against synthetic
// PlanningContexts (no simulation involved).

#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/algorithms.hpp"

namespace sphinx::core {
namespace {

CandidateSite site(std::uint64_t id, int cpus, std::int64_t outstanding = 0) {
  CandidateSite s;
  s.id = SiteId(id);
  s.cpus = cpus;
  s.outstanding = outstanding;
  return s;
}

PlanningContext context_of(std::vector<CandidateSite> sites) {
  PlanningContext context;
  context.sites = std::move(sites);
  return context;
}

TEST(MakeAlgorithm, ProducesEachStrategy) {
  EXPECT_EQ(make_algorithm(Algorithm::kRoundRobin)->name(), "round-robin");
  EXPECT_EQ(make_algorithm(Algorithm::kNumCpus)->name(), "num-cpus");
  EXPECT_EQ(make_algorithm(Algorithm::kQueueLength)->name(), "queue-length");
  EXPECT_EQ(make_algorithm(Algorithm::kCompletionTime)->name(),
            "completion-time");
}

TEST(RoundRobin, CyclesThroughSites) {
  RoundRobinAlgorithm rr;
  const auto ctx = context_of({site(1, 4), site(2, 4), site(3, 4)});
  EXPECT_EQ(rr.select(ctx), SiteId(1));
  EXPECT_EQ(rr.select(ctx), SiteId(2));
  EXPECT_EQ(rr.select(ctx), SiteId(3));
  EXPECT_EQ(rr.select(ctx), SiteId(1));
}

TEST(RoundRobin, EmptyContextYieldsNothing) {
  RoundRobinAlgorithm rr;
  EXPECT_FALSE(rr.select(context_of({})).has_value());
}

TEST(RoundRobin, CursorSurvivesShrinkingSiteList) {
  RoundRobinAlgorithm rr;
  const auto full = context_of({site(1, 4), site(2, 4), site(3, 4)});
  (void)rr.select(full);
  (void)rr.select(full);
  // A site was filtered out; selection still works.
  const auto fewer = context_of({site(1, 4), site(3, 4)});
  const auto pick = rr.select(fewer);
  ASSERT_TRUE(pick.has_value());
}

TEST(NumCpus, PicksMinimumLoadRate) {
  NumCpusAlgorithm alg;
  // rates: 4/8=0.5, 1/4=0.25, 3/2=1.5 -> site 2 wins.
  const auto ctx =
      context_of({site(1, 8, 4), site(2, 4, 1), site(3, 2, 3)});
  EXPECT_EQ(alg.select(ctx), SiteId(2));
}

TEST(NumCpus, PrefersBigIdleSite) {
  NumCpusAlgorithm alg;
  const auto ctx = context_of({site(1, 100, 0), site(2, 4, 0)});
  // Equal (zero) rates: first minimum wins -> catalog order.
  EXPECT_EQ(alg.select(ctx), SiteId(1));
}

TEST(NumCpus, EmptyYieldsNothing) {
  NumCpusAlgorithm alg;
  EXPECT_FALSE(alg.select(context_of({})).has_value());
}

TEST(QueueLength, UsesMonitoredQueueData) {
  QueueLengthAlgorithm alg;
  CandidateSite busy = site(1, 10, 0);
  busy.monitored = true;
  busy.mon_queued = 30;
  busy.mon_running = 10;
  CandidateSite calm = site(2, 10, 2);
  calm.monitored = true;
  calm.mon_queued = 0;
  calm.mon_running = 5;
  // rates: (30+10+0)/10 = 4 vs (0+5+2)/10 = 0.7.
  EXPECT_EQ(alg.select(context_of({busy, calm})), SiteId(2));
}

TEST(QueueLength, UnmonitoredSiteLooksIdle) {
  QueueLengthAlgorithm alg;
  CandidateSite monitored = site(1, 10, 0);
  monitored.monitored = true;
  monitored.mon_queued = 5;
  CandidateSite dark = site(2, 10, 0);  // no data: the stale-info hazard
  EXPECT_EQ(alg.select(context_of({monitored, dark})), SiteId(2));
}

TEST(QueueLength, LocalPlannedTermBreaksHerding) {
  QueueLengthAlgorithm alg;
  CandidateSite a = site(1, 10, 9);  // we already sent 9 jobs there
  a.monitored = true;
  CandidateSite b = site(2, 10, 0);
  b.monitored = true;
  b.mon_queued = 5;
  // (0+0+9)/10 = 0.9 vs (5+0+0)/10 = 0.5 -> b despite its queue.
  EXPECT_EQ(alg.select(context_of({a, b})), SiteId(2));
}

CandidateSite measured(std::uint64_t id, int cpus, double avg,
                       std::int64_t samples = 5,
                       std::int64_t outstanding = 0) {
  CandidateSite s = site(id, cpus, outstanding);
  s.avg_completion = avg;
  s.samples = samples;
  s.completed = samples;
  return s;
}

TEST(CompletionTime, ExploitsFastestMeasuredSite) {
  CompletionTimeAlgorithm alg;
  const auto ctx = context_of(
      {measured(1, 10, 400.0), measured(2, 10, 150.0), measured(3, 10, 900.0)});
  EXPECT_EQ(alg.select(ctx), SiteId(2));
}

TEST(CompletionTime, ProbesEachUnknownSiteOnce) {
  CompletionTimeAlgorithm alg;
  CandidateSite known = measured(1, 10, 100.0);
  CandidateSite unknown_a = site(2, 10);
  CandidateSite unknown_b = site(3, 10);
  const auto ctx = context_of({known, unknown_a, unknown_b});
  // First two selections probe the unknown sites (each exactly once)...
  const auto first = alg.select(ctx);
  const auto second = alg.select(ctx);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_NE(*first, *second);
  EXPECT_NE(*first, SiteId(1));
  EXPECT_NE(*second, SiteId(1));
  // ...then planning exploits the measured site.
  EXPECT_EQ(alg.select(ctx), SiteId(1));
  EXPECT_EQ(alg.select(ctx), SiteId(1));
}

TEST(CompletionTime, CancelOnlySitesAreNotProbed) {
  CompletionTimeAlgorithm alg;
  CandidateSite burned = site(1, 10);
  burned.cancelled = 2;  // produced only timeouts so far
  CandidateSite known = measured(2, 10, 100.0);
  const auto ctx = context_of({burned, known});
  EXPECT_EQ(alg.select(ctx), SiteId(2));
}

TEST(CompletionTime, LoadPenaltySpreadsBursts) {
  CompletionTimeAlgorithm alg;
  // Site 1 is faster but heavily loaded by our own plans; site 2 wins.
  const auto ctx = context_of(
      {measured(1, 10, 100.0, 5, 20), measured(2, 10, 300.0, 5, 0)});
  // estimate1 = 100 * (1 + 4*20/10) = 900 > estimate2 = 300.
  EXPECT_EQ(alg.select(ctx), SiteId(2));
}

TEST(CompletionTime, FallsBackToRoundRobinWhileProbesInFlight) {
  CompletionTimeAlgorithm alg;
  const auto ctx = context_of({site(1, 10), site(2, 10)});
  // Two probes, then nothing is measured: round-robin fallback.
  const auto a = alg.select(ctx);
  const auto b = alg.select(ctx);
  const auto c = alg.select(ctx);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  ASSERT_TRUE(c.has_value());
  EXPECT_NE(*a, *b);
}

TEST(CompletionTime, EmptyYieldsNothing) {
  CompletionTimeAlgorithm alg;
  EXPECT_FALSE(alg.select(context_of({})).has_value());
}

// Property-style sweep: every algorithm returns a site from the feasible
// set (never invents one) across many random-ish contexts.
class AlgorithmSweep : public ::testing::TestWithParam<Algorithm> {};

TEST_P(AlgorithmSweep, AlwaysSelectsFromFeasibleSet) {
  const auto alg = make_algorithm(GetParam());
  sphinx::Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(1, 12));
    PlanningContext ctx;
    for (int i = 0; i < n; ++i) {
      CandidateSite s = site(static_cast<std::uint64_t>(i + 1),
                             static_cast<int>(rng.uniform_int(1, 200)),
                             rng.uniform_int(0, 50));
      if (rng.chance(0.5)) {
        s.monitored = true;
        s.mon_queued = static_cast<int>(rng.uniform_int(0, 100));
        s.mon_running = static_cast<int>(rng.uniform_int(0, 100));
      }
      if (rng.chance(0.5)) {
        s.samples = rng.uniform_int(1, 30);
        s.completed = s.samples;
        s.avg_completion = rng.uniform(30.0, 2000.0);
      }
      if (rng.chance(0.2)) s.cancelled = rng.uniform_int(1, 5);
      ctx.sites.push_back(s);
    }
    const auto pick = alg->select(ctx);
    ASSERT_TRUE(pick.has_value());
    const bool in_set = std::any_of(
        ctx.sites.begin(), ctx.sites.end(),
        [&](const CandidateSite& s) { return s.id == *pick; });
    EXPECT_TRUE(in_set) << alg->name() << " invented a site";
  }
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, AlgorithmSweep,
                         ::testing::Values(Algorithm::kRoundRobin,
                                           Algorithm::kNumCpus,
                                           Algorithm::kQueueLength,
                                           Algorithm::kCompletionTime),
                         [](const auto& info) {
                           return std::string(to_string(info.param)) == "round-robin"
                                      ? std::string("RoundRobin")
                                  : to_string(info.param) == std::string("num-cpus")
                                      ? std::string("NumCpus")
                                  : to_string(info.param) ==
                                          std::string("queue-length")
                                      ? std::string("QueueLength")
                                      : std::string("CompletionTime");
                         });

TEST(States, RoundTripParsing) {
  for (const DagState s : {DagState::kReceived, DagState::kReduced,
                           DagState::kPlanning, DagState::kFinished}) {
    DagState parsed = DagState::kFinished;
    EXPECT_TRUE(from_string(to_string(s), parsed));
    EXPECT_EQ(parsed, s);
  }
  for (const JobState s :
       {JobState::kUnplanned, JobState::kPlanned, JobState::kSubmitted,
        JobState::kRunning, JobState::kCompleted, JobState::kCancelled,
        JobState::kHeld}) {
    JobState parsed = JobState::kHeld;
    EXPECT_TRUE(from_string(to_string(s), parsed));
    EXPECT_EQ(parsed, s);
  }
  // Any other text is refused, and leaves the target as it was.
  DagState dag = DagState::kReduced;
  JobState job = JobState::kRunning;
  SpeculationState race = SpeculationState::kSpecWon;
  EXPECT_FALSE(from_string("bogus", dag));
  EXPECT_FALSE(from_string("bogus", job));
  EXPECT_FALSE(from_string("", race));
  EXPECT_EQ(dag, DagState::kReduced);
  EXPECT_EQ(job, JobState::kRunning);
  EXPECT_EQ(race, SpeculationState::kSpecWon);
}

TEST(States, OutstandingClassification) {
  EXPECT_TRUE(is_outstanding(JobState::kPlanned));
  EXPECT_TRUE(is_outstanding(JobState::kSubmitted));
  EXPECT_TRUE(is_outstanding(JobState::kRunning));
  EXPECT_FALSE(is_outstanding(JobState::kUnplanned));
  EXPECT_FALSE(is_outstanding(JobState::kCompleted));
  EXPECT_FALSE(is_outstanding(JobState::kCancelled));
  EXPECT_FALSE(is_outstanding(JobState::kHeld));
}

}  // namespace
}  // namespace sphinx::core
