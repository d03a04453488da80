#include "workflow/dag.hpp"

#include <algorithm>
#include <queue>

namespace sphinx::workflow {

void Dag::add_job(JobSpec job) {
  SPHINX_ASSERT(job.id.valid(), "job needs a valid id");
  SPHINX_ASSERT(!index_.contains(job.id), "duplicate job id in DAG");
  index_.emplace(job.id, jobs_.size());
  jobs_.push_back(std::move(job));
  parents_.emplace_back();
  children_.emplace_back();
}

void Dag::add_edge(JobId parent, JobId child) {
  const std::size_t p = slot_of(parent);
  const std::size_t c = slot_of(child);
  SPHINX_ASSERT(parent != child, "self edge in DAG");
  auto& kids = children_[p];
  if (std::find(kids.begin(), kids.end(), child) != kids.end()) return;
  kids.push_back(child);
  parents_[c].push_back(parent);
}

bool Dag::has_job(JobId id) const noexcept { return index_.contains(id); }

std::size_t Dag::slot_of(JobId id) const {
  const auto it = index_.find(id);
  SPHINX_ASSERT(it != index_.end(),
                "unknown job id " + std::to_string(id.value()));
  return it->second;
}

const JobSpec& Dag::job(JobId id) const { return jobs_[slot_of(id)]; }

const std::vector<JobId>& Dag::parents(JobId id) const {
  return parents_[slot_of(id)];
}

const std::vector<JobId>& Dag::children(JobId id) const {
  return children_[slot_of(id)];
}

std::vector<JobId> Dag::ready_jobs(
    const std::unordered_set<JobId>& completed) const {
  std::vector<JobId> out;
  for (const JobSpec& job : jobs_) {
    if (completed.contains(job.id)) continue;
    const auto& ps = parents_[index_.at(job.id)];
    const bool ready = std::all_of(ps.begin(), ps.end(), [&](JobId p) {
      return completed.contains(p);
    });
    if (ready) out.push_back(job.id);
  }
  return out;
}

std::vector<JobId> Dag::roots() const {
  std::vector<JobId> out;
  for (const JobSpec& job : jobs_) {
    if (parents_[index_.at(job.id)].empty()) out.push_back(job.id);
  }
  return out;
}

Expected<std::vector<JobId>> Dag::topological_order() const {
  std::unordered_map<JobId, std::size_t> indegree;
  for (const JobSpec& job : jobs_) {
    indegree[job.id] = parents_[index_.at(job.id)].size();
  }
  // Kahn's algorithm with a FIFO for stable output order.
  std::queue<JobId> frontier;
  for (const JobSpec& job : jobs_) {
    if (indegree[job.id] == 0) frontier.push(job.id);
  }
  std::vector<JobId> order;
  order.reserve(jobs_.size());
  while (!frontier.empty()) {
    const JobId id = frontier.front();
    frontier.pop();
    order.push_back(id);
    for (const JobId child : children_[index_.at(id)]) {
      if (--indegree[child] == 0) frontier.push(child);
    }
  }
  if (order.size() != jobs_.size()) {
    return make_error("dag_cycle", "DAG " + name_ + " contains a cycle");
  }
  return order;
}

StatusOrError Dag::validate() const {
  const auto order = topological_order();
  if (!order) return Unexpected<Error>{order.error()};
  for (const JobSpec& job : jobs_) {
    for (const JobId parent : parents_[index_.at(job.id)]) {
      const JobSpec& p = this->job(parent);
      const bool consumed =
          std::find(job.inputs.begin(), job.inputs.end(), p.output) !=
          job.inputs.end();
      if (!consumed) {
        return make_error("dag_dataflow",
                          "edge " + p.name + " -> " + job.name +
                              " has no matching input for " + p.output);
      }
    }
  }
  return {};
}

}  // namespace sphinx::workflow
