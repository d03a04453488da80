#include "exp/report.hpp"

#include <algorithm>

#include "common/strings.hpp"
#include "common/table.hpp"

namespace sphinx::exp {

std::string render_dag_completion(const std::string& title,
                                  const std::vector<TenantResult>& results) {
  std::string out = title + "\n";
  double max_value = 0.0;
  for (const TenantResult& r : results) {
    max_value = std::max(max_value, r.avg_dag_completion);
  }
  for (const TenantResult& r : results) {
    out += bar_line(r.label, r.avg_dag_completion, max_value, 40, "s") + "\n";
  }
  return out;
}

std::string render_exec_idle(const std::string& title,
                             const std::vector<TenantResult>& results) {
  std::string out = title + "\n";
  TextTable table;
  table.set_header({"algorithm", "execution (s)", "idle (s)", "total (s)"});
  for (const TenantResult& r : results) {
    table.add_row({r.label, format_double(r.avg_job_execution, 1),
                   format_double(r.avg_job_idle, 1),
                   format_double(r.avg_job_execution + r.avg_job_idle, 1)});
  }
  out += table.render();
  return out;
}

std::string render_site_distribution(const std::string& title,
                                     const TenantResult& result) {
  std::string out = title + " [" + result.label + "]\n";
  TextTable table;
  table.set_header({"site", "# of jobs", "avg comp time (s)"});
  for (const SiteFigure& site : result.per_site) {
    table.add_row({site.site, std::to_string(site.completed),
                   site.completed > 0 ? format_double(site.avg_completion, 1)
                                      : "-"});
  }
  out += table.render();
  return out;
}

std::string render_summary(const std::vector<TenantResult>& results) {
  TextTable table;
  table.set_header({"algorithm", "dags done", "plans", "replans", "timeouts",
                    "held/failed"});
  for (const TenantResult& r : results) {
    table.add_row({r.label,
                   std::to_string(r.dags_finished) + "/" +
                       std::to_string(r.dags_total),
                   std::to_string(r.plans), std::to_string(r.replans),
                   std::to_string(r.timeouts),
                   std::to_string(r.held_or_failed)});
  }
  return table.render();
}

}  // namespace sphinx::exp
