#pragma once
/// \file dag.hpp
/// Abstract workflow DAGs: jobs with data dependencies.
///
/// A DAG is the unit of scheduling in SPHINX: a user hands the client an
/// *abstract* plan (logical I/O dependencies only; no sites), the server
/// reduces and plans it job by job.  Edges are implied by data (a child
/// consumes a parent's output LFN) but are also stored explicitly so the
/// structure survives reduction.

#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/error.hpp"
#include "common/ids.hpp"
#include "common/time.hpp"
#include "data/lfn.hpp"

namespace sphinx::workflow {

/// One job of an abstract DAG.
struct JobSpec {
  JobId id;
  std::string name;
  Duration compute_time = 60.0;   ///< nominal seconds on a speed-1 CPU
  std::vector<data::Lfn> inputs;  ///< logical inputs (parent outputs and/or
                                  ///< pre-existing files)
  data::Lfn output;               ///< the single logical output
  double output_bytes = 0.0;
};

/// An abstract DAG.
class Dag {
 public:
  Dag() = default;
  Dag(DagId id, std::string name) : id_(id), name_(std::move(name)) {}

  [[nodiscard]] DagId id() const noexcept { return id_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] std::size_t size() const noexcept { return jobs_.size(); }
  [[nodiscard]] bool empty() const noexcept { return jobs_.empty(); }

  /// Adds a job; its id must be unique within the DAG.
  void add_job(JobSpec job);

  /// Declares `child` dependent on `parent` (both must exist).  Duplicate
  /// edges are ignored.
  void add_edge(JobId parent, JobId child);

  [[nodiscard]] bool has_job(JobId id) const noexcept;
  [[nodiscard]] const JobSpec& job(JobId id) const;
  /// Jobs in insertion order.
  [[nodiscard]] const std::vector<JobSpec>& jobs() const noexcept {
    return jobs_;
  }
  [[nodiscard]] const std::vector<JobId>& parents(JobId id) const;
  [[nodiscard]] const std::vector<JobId>& children(JobId id) const;  // sphinx-lint-allow(test-only): tests check the edges

  /// Jobs whose parents are all in `completed` and are not themselves in
  /// `completed` -- the planner's "ready set" (paper section 3.2, step 1).
  [[nodiscard]] std::vector<JobId> ready_jobs(
      const std::unordered_set<JobId>& completed) const;

  /// Jobs with no parents.
  [[nodiscard]] std::vector<JobId> roots() const;

  /// Topological order; error if the graph has a cycle.
  [[nodiscard]] Expected<std::vector<JobId>> topological_order() const;  // sphinx-lint-allow(test-only): validate() in this pair orders through it

  /// Structural validation: acyclic, and every edge parent's output is
  /// actually consumed by the child (data consistency).
  [[nodiscard]] StatusOrError validate() const;

 private:
  [[nodiscard]] std::size_t slot_of(JobId id) const;

  DagId id_;
  std::string name_;
  std::vector<JobSpec> jobs_;
  std::unordered_map<JobId, std::size_t> index_;
  std::vector<std::vector<JobId>> parents_;
  std::vector<std::vector<JobId>> children_;
};

}  // namespace sphinx::workflow
