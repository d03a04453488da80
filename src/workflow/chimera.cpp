#include "workflow/chimera.hpp"

#include <functional>
#include <unordered_map>
#include <unordered_set>

namespace sphinx::workflow {

void VirtualDataCatalog::add_transformation(Transformation t) {
  transformations_[t.name] = std::move(t);
}

StatusOrError VirtualDataCatalog::add_derivation(Derivation d) {
  if (!transformations_.contains(d.transformation)) {
    return make_error("vdc_unknown_transformation",
                      "no transformation named " + d.transformation);
  }
  if (derivations_.contains(d.output)) {
    return make_error("vdc_duplicate_output",
                      d.output + " already has a derivation");
  }
  derivations_.emplace(d.output, std::move(d));
  return {};
}

Expected<Dag> VirtualDataCatalog::request(const data::Lfn& target,
                                          IdSpace& ids,
                                          const std::string& dag_name) const {
  if (!derivations_.contains(target)) {
    return make_error("vdc_not_derivable", "no derivation yields " + target);
  }

  Dag dag(ids.dags.next(), dag_name);
  std::unordered_map<data::Lfn, JobId> job_of_output;
  std::unordered_set<data::Lfn> in_progress;  // cycle detection

  // Depth-first compile; returns the job id producing `lfn`.
  std::function<Expected<JobId>(const data::Lfn&)> compile =
      [&](const data::Lfn& lfn) -> Expected<JobId> {
    if (const auto it = job_of_output.find(lfn); it != job_of_output.end()) {
      return it->second;
    }
    if (in_progress.contains(lfn)) {
      return make_error("vdc_cycle", "derivation cycle through " + lfn);
    }
    in_progress.insert(lfn);
    const Derivation& d = derivations_.at(lfn);
    const Transformation& t = transformations_.at(d.transformation);

    // Compile derivable inputs first so parents exist before edges.
    std::vector<JobId> parent_jobs;
    for (const data::Lfn& input : d.inputs) {
      if (!derivations_.contains(input)) continue;  // pre-existing file
      auto parent = compile(input);
      if (!parent) return parent;
      parent_jobs.push_back(*parent);
    }

    JobSpec job;
    job.id = ids.jobs.next();
    job.name = d.transformation + "(" + d.output + ")";
    job.compute_time = t.compute_time;
    job.inputs = d.inputs;
    job.output = d.output;
    job.output_bytes = d.output_bytes;
    dag.add_job(job);
    for (const JobId parent : parent_jobs) dag.add_edge(parent, job.id);

    in_progress.erase(lfn);
    job_of_output.emplace(lfn, job.id);
    return job.id;
  };

  auto root = compile(target);
  if (!root) return Unexpected<Error>{root.error()};
  SPHINX_ASSERT(dag.validate().ok(), "VDC compiled an invalid DAG");
  return dag;
}

}  // namespace sphinx::workflow
