#include "core/dag_reducer.hpp"

#include <string_view>
#include <vector>

namespace sphinx::core {

DagReducer::DagReducer(DataWarehouse& warehouse,
                       data::ReplicaLocationService& rls)
    : warehouse_(warehouse), rls_(rls) {}

std::size_t DagReducer::reduce(const DagRecord& dag) {
  // The ids are a snapshot: the loop below completes jobs as it goes.
  // The outputs are views of the rows, which only the lookup reads.
  std::vector<JobId> ids;
  std::vector<std::string_view> outputs;
  for (const JobRecord& job : warehouse_.job_rows(dag.id)) {
    ids.push_back(job.id);
    outputs.push_back(job.output);
  }
  const auto replicas = rls_.locate_bulk(outputs);
  std::size_t reduced = 0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (!replicas[i].empty()) {
      warehouse_.set_job_state(ids[i], JobState::kCompleted,
                               "reduced:output-exists");
      ++reduced;
    }
  }
  warehouse_.set_dag_state(dag.id, DagState::kReduced);
  return reduced;
}

}  // namespace sphinx::core
