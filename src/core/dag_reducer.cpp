#include "core/dag_reducer.hpp"

#include <vector>

#include "data/lfn.hpp"

namespace sphinx::core {

DagReducer::DagReducer(DataWarehouse& warehouse,
                       data::ReplicaLocationService& rls)
    : warehouse_(warehouse), rls_(rls) {}

std::size_t DagReducer::reduce(const DagRecord& dag) {
  const auto jobs = warehouse_.jobs_of_dag(dag.id);
  std::vector<data::Lfn> outputs;
  outputs.reserve(jobs.size());
  for (const JobRecord& job : jobs) outputs.push_back(job.output);
  const auto replicas = rls_.locate_bulk(outputs);
  std::size_t reduced = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (!replicas[i].empty()) {
      warehouse_.set_job_state(jobs[i].id, JobState::kCompleted,
                               "reduced:output-exists");
      ++reduced;
    }
  }
  warehouse_.set_dag_state(dag.id, DagState::kReduced);
  return reduced;
}

}  // namespace sphinx::core
