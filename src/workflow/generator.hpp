#pragma once
/// \file generator.hpp
/// Random workload generation matching the paper's experiment setup.
///
/// Section 4.2: "we submit a few directed acyclic graphs (DAGs) of jobs,
/// each of which has 10 jobs in random structure.  The job simulates a
/// simple execution that takes two or three input files, spends one
/// minute before generating an output file.  The size of the output file
/// is different for each job ... it is expected that each job will take
/// about three or four minutes" including transfers.  The generator
/// produces exactly that workload; pre-existing input files are
/// registered in the RLS at random sites so stage-in costs are real.

#include <vector>

#include "common/ids.hpp"
#include "common/rng.hpp"
#include "data/rls.hpp"
#include "workflow/dag.hpp"

namespace sphinx::workflow {

/// Knobs for the workload generator.
struct WorkloadConfig {
  int jobs_per_dag = 10;
  Duration compute_time = 60.0;      ///< identical for all jobs (paper)
  int min_inputs = 2;  // sphinx-lint-allow(test-only): the generator property test varies it
  int max_inputs = 3;
  int max_parents = 2;               ///< parents drawn among earlier jobs
  /// Pre-existing input sizes.
  double external_min_bytes = 60e6;  // sphinx-lint-allow(test-only): the QoS test shrinks staging
  double external_max_bytes = 180e6;  // sphinx-lint-allow(test-only): the QoS test shrinks staging
  /// Per-job output sizes (all differ)
  double output_min_bytes = 10e6;  // sphinx-lint-allow(test-only): the QoS test shrinks staging
  double output_max_bytes = 100e6;  // sphinx-lint-allow(test-only): the QoS test shrinks staging
  /// Replicas per pre-existing file.
  int external_replicas = 1;  // sphinx-lint-allow(test-only): tests check the replica fan-out
};

/// Shared id space so every generated entity is unique within a scenario.
struct IdSpace {
  IdGenerator<DagId> dags;
  IdGenerator<JobId> jobs;
  std::uint64_t next_file = 0;  // sphinx-lint-allow(test-only): the generator in this pair numbers files from it
};

class WorkloadGenerator {
 public:
  /// \param sites sites eligible to hold pre-existing input replicas.
  WorkloadGenerator(WorkloadConfig config, Rng rng, IdSpace& ids,
                    data::ReplicaLocationService& rls,
                    std::vector<SiteId> sites);

  /// Generates one DAG, registering its external inputs in the RLS.
  [[nodiscard]] Dag generate(const std::string& name);

  /// Generates a batch of DAGs ("30 dags x 10 jobs/dag").
  [[nodiscard]] std::vector<Dag> generate_batch(const std::string& prefix,
                                                int count);

 private:
  [[nodiscard]] data::Lfn make_external_input();

  WorkloadConfig config_;
  Rng rng_;
  IdSpace& ids_;
  data::ReplicaLocationService& rls_;
  std::vector<SiteId> sites_;
};

}  // namespace sphinx::workflow
