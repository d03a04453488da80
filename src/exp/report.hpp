#pragma once
/// \file report.hpp
/// Terminal rendering of experiment results (one table/series per paper
/// figure, printed by the bench binaries).

#include <string>
#include <vector>

#include "exp/runner.hpp"

namespace sphinx::exp {

/// Figure 2/3a/4a/5a/7a: average DAG completion time per strategy.
[[nodiscard]] std::string render_dag_completion(
    const std::string& title, const std::vector<TenantResult>& results);

/// Figure 3b/4b/5b/7b: average job execution and idle time per strategy.
[[nodiscard]] std::string render_exec_idle(
    const std::string& title, const std::vector<TenantResult>& results);

/// Figure 6: per-site completed jobs vs average completion time.
[[nodiscard]] std::string render_site_distribution(
    const std::string& title, const TenantResult& result);

/// Run health summary (DAGs finished, plans, replans) for any figure.
[[nodiscard]] std::string render_summary(
    const std::vector<TenantResult>& results);

}  // namespace sphinx::exp
