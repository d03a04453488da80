#include "exp/runner.hpp"

#include "common/contracts.hpp"
#include "common/log.hpp"
#include "obs/export.hpp"

namespace sphinx::exp {

std::vector<TenantSpec> standard_panel() {
  std::vector<TenantSpec> specs;
  TenantOptions options;
  options.use_feedback = true;
  options.algorithm = core::Algorithm::kCompletionTime;
  specs.push_back({"completion-time", options});
  options.algorithm = core::Algorithm::kQueueLength;
  specs.push_back({"queue-length", options});
  options.algorithm = core::Algorithm::kNumCpus;
  specs.push_back({"num-cpus", options});
  options.algorithm = core::Algorithm::kRoundRobin;
  specs.push_back({"round-robin", options});
  return specs;
}

const obs::Recorder& Experiment::recorder() const {
  SPHINX_PRECONDITION(scenario_ != nullptr, "recorder(): call run() first");
  return scenario_->recorder();
}

std::vector<TenantResult> Experiment::run(
    const std::vector<TenantSpec>& specs) {
  scenario_ = std::make_unique<Scenario>(config_.scenario);
  Scenario& scenario = *scenario_;

  // Create tenants and their (structurally identical) workloads.
  std::vector<std::vector<workflow::Dag>> workloads;
  for (const TenantSpec& spec : specs) {
    Tenant& tenant = scenario.add_tenant(spec.label, spec.options);
    // Same stream label for every tenant -> identical DAG structures,
    // compute times and file sizes; only the ids differ.
    auto generator = scenario.make_generator("shared", config_.workload);
    workloads.push_back(
        generator.generate_batch(spec.label, config_.dag_count));

    // Figure 7: install usage quotas sized relative to workload demand.
    if (spec.options.use_policy &&
        (config_.quota_cpu_fraction > 0 || config_.quota_disk_fraction > 0)) {
      double total_cpu_seconds = 0.0;
      double total_disk_bytes = 0.0;
      for (const workflow::Dag& dag : workloads.back()) {
        for (const workflow::JobSpec& job : dag.jobs()) {
          total_cpu_seconds += job.compute_time;
          total_disk_bytes += job.output_bytes;
        }
      }
      for (const core::CatalogSite& site : scenario.catalog()) {
        if (config_.quota_cpu_fraction > 0) {
          tenant.server->set_quota(tenant.client->config().user, site.id,
                                   "cpu_seconds",
                                   total_cpu_seconds *
                                       config_.quota_cpu_fraction);
        }
        if (config_.quota_disk_fraction > 0) {
          tenant.server->set_quota(tenant.client->config().user, site.id,
                                   "disk_bytes",
                                   total_disk_bytes *
                                       config_.quota_disk_fraction);
        }
      }
    }
  }

  scenario.start();

  // Submit every tenant's k-th DAG at the same instant (fair start).
  for (std::size_t t = 0; t < specs.size(); ++t) {
    for (std::size_t k = 0; k < workloads[t].size(); ++k) {
      const workflow::Dag& dag = workloads[t][k];
      scenario.engine().schedule_at(
          kFirstSubmitAt + static_cast<double>(k) * kSubmitSpacing, "submit",
          [&scenario, t, &dag] { scenario.tenants()[t].client->submit(dag); });
    }
  }

  stopped_at_ = scenario.run(config_.horizon);

  // Harvest metrics.  Counts come from the recorder, under each tenant's
  // server and client endpoints.
  const obs::Recorder& recorder = scenario.recorder();
  std::vector<TenantResult> results;
  for (std::size_t t = 0; t < specs.size(); ++t) {
    const Tenant& tenant = scenario.tenants()[t];
    const std::string& server = tenant.server->endpoint();
    const std::string& client = tenant.client->config().endpoint;
    TenantResult r;
    r.label = tenant.label;
    r.dags_total = tenant.client->dag_outcomes().size();
    r.dags_finished = tenant.client->dags_finished();
    r.avg_dag_completion = tenant.client->avg_dag_completion();
    r.avg_job_execution = tenant.client->avg_job_execution();
    r.avg_job_idle = tenant.client->avg_job_idle();
    r.timeouts = recorder.counter("tracker.timeouts", client);
    r.extensions = recorder.counter("tracker.extensions", client);
    r.held_or_failed = recorder.counter("tracker.held_or_failed", client);
    r.plans = recorder.counter("server.plans", server) +
              recorder.counter("server.speculations", server);
    r.replans = recorder.counter("server.replans", server);
    r.policy_rejections = recorder.counter("server.policy_rejections", server);
    r.submissions = tenant.client->tracker_stats().submissions;
    r.unique_submissions = tenant.client->unique_submissions();
    r.duplicate_plans = recorder.counter("tracker.duplicate_plans", client);
    r.duplicate_dags = recorder.counter("server.duplicate_dags", server);
    for (const core::CatalogSite& site : scenario.catalog()) {
      const auto& observations = tenant.client->site_observations();
      const auto it = observations.find(site.id);
      SiteFigure figure;
      figure.site = site.name;
      if (it != observations.end()) {
        figure.completed = it->second.completed;
        figure.avg_completion = it->second.completion_times.mean();
      }
      r.per_site.push_back(figure);
    }
    results.push_back(std::move(r));
  }

  // Flight-recorder export: per-run trace + metrics, byte-identical for
  // same-seed runs (tools/check.sh's determinism gate diffs two of them).
  if (!config_.trace_path.empty()) {
    if (const auto status =
            obs::write_trace_jsonl(scenario.recorder().trace(),
                                   config_.trace_path);
        !status.ok()) {
      Logger("experiment").warn("trace export failed: ",
                                status.error().to_string());
    }
  }
  if (!config_.metrics_path.empty()) {
    if (const auto status =
            obs::write_metrics_json(scenario.recorder().metrics(),
                                    config_.metrics_path);
        !status.ok()) {
      Logger("experiment").warn("metrics export failed: ",
                                status.error().to_string());
    }
  }
  return results;
}

}  // namespace sphinx::exp
