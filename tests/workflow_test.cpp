// Tests for the workflow layer: DAG structure, the paper-workload
// generator, and the Chimera-style virtual data catalog.

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>

#include "data/rls.hpp"
#include "workflow/chimera.hpp"
#include "workflow/dag.hpp"
#include "workflow/generator.hpp"

namespace sphinx::workflow {
namespace {

JobSpec make_job(JobId id, const std::string& name,
                 std::vector<data::Lfn> inputs, data::Lfn output) {
  JobSpec job;
  job.id = id;
  job.name = name;
  job.inputs = std::move(inputs);
  job.output = std::move(output);
  job.output_bytes = 1e6;
  return job;
}

/// A diamond: a -> {b, c} -> d.
Dag diamond() {
  Dag dag(DagId(1), "diamond");
  dag.add_job(make_job(JobId(1), "a", {"lfn://x"}, "lfn://a"));
  dag.add_job(make_job(JobId(2), "b", {"lfn://a"}, "lfn://b"));
  dag.add_job(make_job(JobId(3), "c", {"lfn://a"}, "lfn://c"));
  dag.add_job(make_job(JobId(4), "d", {"lfn://b", "lfn://c"}, "lfn://d"));
  dag.add_edge(JobId(1), JobId(2));
  dag.add_edge(JobId(1), JobId(3));
  dag.add_edge(JobId(2), JobId(4));
  dag.add_edge(JobId(3), JobId(4));
  return dag;
}

TEST(Dag, StructureAccessors) {
  const Dag dag = diamond();
  EXPECT_EQ(dag.size(), 4u);
  EXPECT_TRUE(dag.has_job(JobId(2)));
  EXPECT_FALSE(dag.has_job(JobId(99)));
  EXPECT_EQ(dag.job(JobId(4)).name, "d");
  EXPECT_EQ(dag.parents(JobId(4)).size(), 2u);
  EXPECT_EQ(dag.children(JobId(1)).size(), 2u);
  EXPECT_EQ(dag.roots(), std::vector<JobId>{JobId(1)});
}

TEST(Dag, DuplicateJobAndEdgeHandling) {
  Dag dag(DagId(1), "x");
  dag.add_job(make_job(JobId(1), "a", {}, "lfn://a"));
  dag.add_job(make_job(JobId(2), "b", {"lfn://a"}, "lfn://b"));
  EXPECT_THROW(dag.add_job(make_job(JobId(1), "dup", {}, "lfn://z")),
               AssertionError);
  dag.add_edge(JobId(1), JobId(2));
  dag.add_edge(JobId(1), JobId(2));  // ignored
  EXPECT_EQ(dag.children(JobId(1)).size(), 1u);
  EXPECT_THROW(dag.add_edge(JobId(1), JobId(1)), AssertionError);
  EXPECT_THROW(dag.add_edge(JobId(1), JobId(42)), AssertionError);
}

TEST(Dag, ReadyJobsFollowDependencies) {
  const Dag dag = diamond();
  std::unordered_set<JobId> done;
  EXPECT_EQ(dag.ready_jobs(done), std::vector<JobId>{JobId(1)});
  done.insert(JobId(1));
  EXPECT_EQ(dag.ready_jobs(done), (std::vector<JobId>{JobId(2), JobId(3)}));
  done.insert(JobId(2));
  EXPECT_EQ(dag.ready_jobs(done), std::vector<JobId>{JobId(3)});
  done.insert(JobId(3));
  EXPECT_EQ(dag.ready_jobs(done), std::vector<JobId>{JobId(4)});
  done.insert(JobId(4));
  EXPECT_TRUE(dag.ready_jobs(done).empty());
}

TEST(Dag, TopologicalOrderRespectsEdges) {
  const Dag dag = diamond();
  const auto order = dag.topological_order();
  ASSERT_TRUE(order.has_value());
  ASSERT_EQ(order->size(), 4u);
  const auto pos = [&](JobId id) {
    return std::find(order->begin(), order->end(), id) - order->begin();
  };
  EXPECT_LT(pos(JobId(1)), pos(JobId(2)));
  EXPECT_LT(pos(JobId(1)), pos(JobId(3)));
  EXPECT_LT(pos(JobId(2)), pos(JobId(4)));
  EXPECT_LT(pos(JobId(3)), pos(JobId(4)));
}

TEST(Dag, CycleDetected) {
  Dag dag(DagId(1), "cyclic");
  dag.add_job(make_job(JobId(1), "a", {"lfn://b"}, "lfn://a"));
  dag.add_job(make_job(JobId(2), "b", {"lfn://a"}, "lfn://b"));
  dag.add_edge(JobId(1), JobId(2));
  dag.add_edge(JobId(2), JobId(1));
  EXPECT_FALSE(dag.topological_order().has_value());
  const auto status = dag.validate();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, "dag_cycle");
}

TEST(Dag, ValidateChecksDataflow) {
  Dag dag(DagId(1), "bad-flow");
  dag.add_job(make_job(JobId(1), "a", {}, "lfn://a"));
  dag.add_job(make_job(JobId(2), "b", {"lfn://other"}, "lfn://b"));
  dag.add_edge(JobId(1), JobId(2));  // b does not consume a's output
  const auto status = dag.validate();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, "dag_dataflow");
  EXPECT_TRUE(diamond().validate().ok());
}

class GeneratorFixture : public ::testing::Test {
 protected:
  GeneratorFixture()
      : sites{SiteId(1), SiteId(2), SiteId(3)},
        generator(WorkloadConfig{}, Rng(42), ids, rls, sites) {}

  IdSpace ids;
  data::ReplicaLocationService rls;
  std::vector<SiteId> sites;
  WorkloadGenerator generator;
};

TEST_F(GeneratorFixture, MatchesPaperWorkloadShape) {
  const Dag dag = generator.generate("exp");
  EXPECT_EQ(dag.size(), 10u);  // 10 jobs per DAG
  EXPECT_TRUE(dag.validate().ok());
  for (const JobSpec& job : dag.jobs()) {
    EXPECT_GE(job.inputs.size(), 2u);  // two or three input files
    EXPECT_LE(job.inputs.size(), 3u);
    EXPECT_DOUBLE_EQ(job.compute_time, 60.0);  // one minute compute
    EXPECT_GT(job.output_bytes, 0.0);
    EXPECT_FALSE(job.output.empty());
  }
}

TEST_F(GeneratorFixture, OutputSizesDiffer) {
  const Dag dag = generator.generate("exp");
  std::unordered_set<double> sizes;
  for (const JobSpec& job : dag.jobs()) sizes.insert(job.output_bytes);
  EXPECT_EQ(sizes.size(), dag.size());  // "different for each job"
}

TEST_F(GeneratorFixture, ExternalInputsRegisteredInRls) {
  const Dag dag = generator.generate("exp");
  for (const JobSpec& job : dag.jobs()) {
    for (const data::Lfn& input : job.inputs) {
      const bool is_parent_output =
          std::any_of(dag.jobs().begin(), dag.jobs().end(),
                      [&](const JobSpec& j) { return j.output == input; });
      if (!is_parent_output) {
        EXPECT_FALSE(rls.locate(input).empty()) << input;
        const auto replicas = rls.locate(input);
        ASSERT_FALSE(replicas.empty());
        EXPECT_GE(replicas[0].size_bytes, 60e6);
        EXPECT_LE(replicas[0].size_bytes, 180e6);
      }
    }
  }
}

TEST_F(GeneratorFixture, IdsUniqueAcrossBatch) {
  const auto batch = generator.generate_batch("exp", 5);
  ASSERT_EQ(batch.size(), 5u);
  std::unordered_set<JobId> jobs;
  std::unordered_set<DagId> dags;
  for (const Dag& dag : batch) {
    EXPECT_TRUE(dags.insert(dag.id()).second);
    for (const JobSpec& job : dag.jobs()) {
      EXPECT_TRUE(jobs.insert(job.id).second);
    }
  }
  EXPECT_EQ(jobs.size(), 50u);
}

TEST_F(GeneratorFixture, DeterministicForSameSeed) {
  IdSpace ids2;
  data::ReplicaLocationService rls2;
  WorkloadGenerator twin(WorkloadConfig{}, Rng(42), ids2, rls2, sites);
  const Dag a = generator.generate("exp");
  const Dag b = twin.generate("exp");
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.jobs()[i].inputs, b.jobs()[i].inputs);
    EXPECT_DOUBLE_EQ(a.jobs()[i].output_bytes, b.jobs()[i].output_bytes);
  }
}

TEST_F(GeneratorFixture, SomeDagsHaveRealDependencies) {
  // Random structure: over a batch, at least some non-root jobs exist.
  const auto batch = generator.generate_batch("exp", 10);
  std::size_t non_roots = 0;
  for (const Dag& dag : batch) {
    non_roots += dag.size() - dag.roots().size();
  }
  EXPECT_GT(non_roots, 10u);
}

TEST_F(GeneratorFixture, ReplicaCountRespectsConfig) {
  WorkloadConfig config;
  config.external_replicas = 2;
  IdSpace ids2;
  data::ReplicaLocationService rls2;
  WorkloadGenerator gen(config, Rng(7), ids2, rls2, sites);
  const Dag dag = gen.generate("multi");
  bool saw_external = false;
  for (const JobSpec& job : dag.jobs()) {
    for (const data::Lfn& input : job.inputs) {
      if (!rls2.locate(input).empty()) {
        saw_external = true;
        EXPECT_EQ(rls2.locate(input).size(), 2u);
      }
    }
  }
  EXPECT_TRUE(saw_external);
}

TEST(VirtualDataCatalog, CompilesDerivationClosure) {
  VirtualDataCatalog vdc;
  vdc.add_transformation({"reco", 120.0});
  vdc.add_transformation({"analyze", 60.0});
  ASSERT_TRUE(vdc.add_derivation({"reco", {"lfn://raw1"}, "lfn://reco1", 1e6}).ok());
  ASSERT_TRUE(vdc.add_derivation({"reco", {"lfn://raw2"}, "lfn://reco2", 1e6}).ok());
  ASSERT_TRUE(vdc.add_derivation(
                     {"analyze", {"lfn://reco1", "lfn://reco2"}, "lfn://plot", 1e5})
                  .ok());

  IdSpace ids;
  const auto dag = vdc.request("lfn://plot", ids, "analysis");
  ASSERT_TRUE(dag.has_value());
  EXPECT_EQ(dag->size(), 3u);
  EXPECT_TRUE(dag->validate().ok());
  // The plot job depends on both reco jobs.
  const auto order = dag->topological_order();
  ASSERT_TRUE(order.has_value());
  EXPECT_EQ(dag->job(order->back()).output, "lfn://plot");
  EXPECT_EQ(dag->parents(order->back()).size(), 2u);
  // Compute times come from the transformations.
  EXPECT_DOUBLE_EQ(dag->job(order->back()).compute_time, 60.0);
  EXPECT_DOUBLE_EQ(dag->job(order->front()).compute_time, 120.0);
}

TEST(VirtualDataCatalog, SharedAncestorCompiledOnce) {
  VirtualDataCatalog vdc;
  vdc.add_transformation({"t", 10.0});
  ASSERT_TRUE(vdc.add_derivation({"t", {}, "lfn://base", 1.0}).ok());
  ASSERT_TRUE(vdc.add_derivation({"t", {"lfn://base"}, "lfn://l", 1.0}).ok());
  ASSERT_TRUE(vdc.add_derivation({"t", {"lfn://base"}, "lfn://r", 1.0}).ok());
  ASSERT_TRUE(
      vdc.add_derivation({"t", {"lfn://l", "lfn://r"}, "lfn://top", 1.0}).ok());
  IdSpace ids;
  const auto dag = vdc.request("lfn://top", ids, "diamond");
  ASSERT_TRUE(dag.has_value());
  EXPECT_EQ(dag->size(), 4u);  // base appears once, not twice
}

TEST(VirtualDataCatalog, Errors) {
  VirtualDataCatalog vdc;
  EXPECT_FALSE(vdc.add_derivation({"missing", {}, "lfn://x", 1.0}).ok());
  vdc.add_transformation({"t", 1.0});
  ASSERT_TRUE(vdc.add_derivation({"t", {}, "lfn://x", 1.0}).ok());
  const auto dup = vdc.add_derivation({"t", {}, "lfn://x", 1.0});
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.error().code, "vdc_duplicate_output");

  IdSpace ids;
  EXPECT_FALSE(vdc.request("lfn://unknown", ids, "x").has_value());
  EXPECT_TRUE(vdc.request("lfn://x", ids, "x").has_value());
}

TEST(VirtualDataCatalog, CycleRejected) {
  VirtualDataCatalog vdc;
  vdc.add_transformation({"t", 1.0});
  ASSERT_TRUE(vdc.add_derivation({"t", {"lfn://b"}, "lfn://a", 1.0}).ok());
  ASSERT_TRUE(vdc.add_derivation({"t", {"lfn://a"}, "lfn://b", 1.0}).ok());
  IdSpace ids;
  const auto dag = vdc.request("lfn://a", ids, "cycle");
  ASSERT_FALSE(dag.has_value());
  EXPECT_EQ(dag.error().code, "vdc_cycle");
}

}  // namespace
}  // namespace sphinx::workflow
