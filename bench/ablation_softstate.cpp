/// Ablation: soft-state RLI propagation delay (the Giggle design the
/// paper's data layer is built on).
///
/// Child jobs become plannable only when their parents' outputs are
/// visible in the replica index; with soft-state propagation the index
/// lags the LRCs, so every DAG level pays the propagation delay on top
/// of real execution.  This sweep measures that cost end to end.

#include "bench_common.hpp"
#include "common/strings.hpp"
#include "workflow/generator.hpp"

int main() {
  using namespace sphinx;
  using namespace sphinx::bench;

  print_header("Ablation",
               "soft-state RLI propagation delay (30 dags x 10 jobs)");

  std::printf("\n%-18s %-16s %-14s\n", "propagation", "avg dag (s)",
              "dags finished");
  for (const double delay_s : {0.0, 30.0, 120.0, 300.0, 600.0}) {
    exp::ExperimentConfig config = paper_config(30);
    exp::Scenario scenario(config.scenario);
    if (delay_s > 0) {
      scenario.rls().enable_soft_state(scenario.engine(), delay_s);
    }
    exp::TenantOptions options;
    options.algorithm = core::Algorithm::kCompletionTime;
    exp::Tenant& tenant = scenario.add_tenant("ct", options);
    auto generator = scenario.make_generator("shared", config.workload);
    const auto dags = generator.generate_batch("ss", config.dag_count);
    scenario.start();
    for (std::size_t k = 0; k < dags.size(); ++k) {
      scenario.engine().schedule_at(
          exp::kFirstSubmitAt + static_cast<double>(k) * exp::kSubmitSpacing,
          "submit",
          [&, k] { tenant.client->submit(dags[k]); });
    }
    scenario.run(config.horizon);
    std::printf("%-18s %-16.1f %zu/%zu\n",
                (format_double(delay_s, 0) + " s").c_str(),
                tenant.client->avg_dag_completion(),
                tenant.client->dags_finished(), dags.size());
  }
  std::printf("\nexpectation: DAG completion grows with the index lag "
              "(children wait for their parents' outputs to become "
              "visible)\n");
  return 0;
}
