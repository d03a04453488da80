// sphinx_record: run one failure-enabled scenario and export the flight
// recorder's trace.jsonl + metrics.json.
//
//   sphinx_record [--seed N] [--dags K] [--trace PATH] [--metrics PATH]
//                 [--loss P] [--duplicate P] [--reorder P]
//                 [--partition-at T] [--partition-duration D]
//                 [--speculate]
//
// Same seed -> byte-identical outputs; tools/check.sh runs this twice
// and diffs the files as the determinism gate, and again with --loss /
// --duplicate / --partition-at as the lossy-network gate.  When any
// network fault is enabled the tool additionally asserts the end-to-end
// delivery contract: every DAG finishes, and no tenant ever executed a
// plan twice (submissions == distinct (job, attempt) pairs).  Exit 1 on
// violation.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "exp/runner.hpp"

int main(int argc, char** argv) {
  std::uint64_t seed = 7;
  int dags = 4;
  std::string trace_path = "trace.jsonl";
  std::string metrics_path = "metrics.json";
  double loss = 0.0;
  double duplicate = 0.0;
  double reorder = 0.0;
  double partition_at = -1.0;
  double partition_duration = 60.0;
  bool speculate = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = (i + 1 < argc) ? argv[i + 1] : nullptr;
    if (arg == "--seed" && value != nullptr) {
      seed = std::strtoull(value, nullptr, 10);
      ++i;
    } else if (arg == "--dags" && value != nullptr) {
      dags = std::atoi(value);
      ++i;
    } else if (arg == "--trace" && value != nullptr) {
      trace_path = value;
      ++i;
    } else if (arg == "--metrics" && value != nullptr) {
      metrics_path = value;
      ++i;
    } else if (arg == "--loss" && value != nullptr) {
      loss = std::atof(value);
      ++i;
    } else if (arg == "--duplicate" && value != nullptr) {
      duplicate = std::atof(value);
      ++i;
    } else if (arg == "--reorder" && value != nullptr) {
      reorder = std::atof(value);
      ++i;
    } else if (arg == "--partition-at" && value != nullptr) {
      partition_at = std::atof(value);
      ++i;
    } else if (arg == "--partition-duration" && value != nullptr) {
      partition_duration = std::atof(value);
      ++i;
    } else if (arg == "--speculate") {
      speculate = true;
    } else {
      std::fprintf(stderr,
                   "usage: sphinx_record [--seed N] [--dags K] "
                   "[--trace PATH] [--metrics PATH]\n"
                   "                     [--loss P] [--duplicate P] "
                   "[--reorder P]\n"
                   "                     [--partition-at T] "
                   "[--partition-duration D]\n"
                   "                     [--speculate]\n");
      return 2;
    }
  }

  using namespace sphinx;
  exp::ExperimentConfig config;
  config.scenario.seed = seed;
  config.scenario.site_failures = true;   // exercise outage/repair tracing
  config.scenario.background_load = true;
  config.dag_count = dags;
  config.horizon = hours(12);
  config.trace_path = trace_path;
  config.metrics_path = metrics_path;

  const bool lossy_wire = loss > 0.0 || duplicate > 0.0 || reorder > 0.0 ||
                          partition_at >= 0.0;
  if (loss > 0.0 || duplicate > 0.0 || reorder > 0.0) {
    rpc::LinkFaultRule rule;  // empty prefixes: every RPC link
    rule.loss = loss;
    rule.duplicate = duplicate;
    rule.reorder = reorder;
    config.scenario.network_faults.rules.push_back(rule);
  }
  if (partition_at >= 0.0) {
    rpc::LinkFaultRule rule;
    rule.from_prefix = "sphinx-client";
    rule.to_prefix = "sphinx-server";
    rule.start = partition_at;
    rule.end = partition_at + partition_duration;
    rule.partition = true;
    config.scenario.network_faults.rules.push_back(rule);
  }

  exp::TenantOptions with_feedback;
  exp::TenantOptions no_feedback;
  no_feedback.algorithm = core::Algorithm::kRoundRobin;
  no_feedback.use_feedback = false;
  with_feedback.speculate = speculate;
  no_feedback.speculate = speculate;
  exp::Experiment experiment(config);
  const auto results = experiment.run(
      {{"feedback", with_feedback}, {"no-feedback", no_feedback}});

  const auto& recorder = experiment.recorder();
  std::printf("sphinx_record: seed=%llu dags=%d tenants=%zu events=%zu\n",
              static_cast<unsigned long long>(seed), dags, results.size(),
              recorder.trace().size());
  std::printf("  trace   -> %s\n  metrics -> %s\n", trace_path.c_str(),
              metrics_path.c_str());

  if (lossy_wire) {
    // End-to-end delivery contract under the unreliable wire: zero lost
    // DAGs and zero double-executed jobs, per tenant.
    int violations = 0;
    for (const exp::TenantResult& r : results) {
      if (r.dags_finished != r.dags_total) {
        std::fprintf(stderr,
                     "sphinx_record: tenant %s lost DAGs (%zu/%zu finished)\n",
                     r.label.c_str(), r.dags_finished, r.dags_total);
        ++violations;
      }
      if (r.submissions != r.unique_submissions) {
        std::fprintf(stderr,
                     "sphinx_record: tenant %s double-executed a plan "
                     "(%zu submissions, %zu unique attempts)\n",
                     r.label.c_str(), r.submissions, r.unique_submissions);
        ++violations;
      }
      std::printf(
          "  tenant %s: dags=%zu/%zu submissions=%zu unique=%zu "
          "duplicate_plans=%zu duplicate_dags=%zu\n",
          r.label.c_str(), r.dags_finished, r.dags_total, r.submissions,
          r.unique_submissions, r.duplicate_plans, r.duplicate_dags);
    }
    if (violations > 0) return 1;
    std::printf("  lossy-wire contract: all DAGs finished, no plan ran twice\n");
  }
  return 0;
}
