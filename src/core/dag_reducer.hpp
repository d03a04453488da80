#pragma once
/// \file dag_reducer.hpp
/// DAG reducer module (paper section 3.2).
///
/// "The DAG reducer simply checks for the existence of the output files
/// of each job, and if they all exist, the job ... can be deleted."  The
/// reducer consumes DAGs in state received off the warehouse's dirty
/// list, marks jobs whose outputs already exist as completed (one clubbed
/// RLS call covers the whole DAG), and advances the DAG to reduced for
/// the planner stage.

#include <cstddef>

#include "core/warehouse.hpp"
#include "data/rls.hpp"

namespace sphinx::core {

class DagReducer {
 public:
  DagReducer(DataWarehouse& warehouse, data::ReplicaLocationService& rls);

  /// Reduces one received DAG: completes jobs with pre-existing outputs
  /// and transitions the DAG to reduced.  Returns the number of jobs it
  /// eliminated.
  [[nodiscard]] std::size_t reduce(const DagRecord& dag);

 private:
  DataWarehouse& warehouse_;
  data::ReplicaLocationService& rls_;
};

}  // namespace sphinx::core
