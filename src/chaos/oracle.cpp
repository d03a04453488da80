#include "chaos/oracle.hpp"

#include <charconv>
#include <string_view>
#include <vector>

namespace sphinx::chaos {
namespace {

std::vector<std::string_view> split_lines(const std::string& text) {
  std::vector<std::string_view> lines;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    lines.emplace_back(text.data() + pos, end - pos);
    pos = end + 1;
  }
  return lines;
}

OracleReport violate(std::string what) {
  OracleReport report;
  report.ok = false;
  report.violation = std::move(what);
  return report;
}

std::string snippet(std::string_view line) {
  constexpr std::size_t kMax = 160;
  std::string out(line.substr(0, kMax));
  if (line.size() > kMax) out += "...";
  return out;
}

/// Extracts the leading "t" timestamp of one trace line; false when the
/// line does not look like a trace event.
bool parse_time(std::string_view line, double& t) {
  constexpr std::string_view kPrefix = "{\"t\":";
  if (line.substr(0, kPrefix.size()) != kPrefix) return false;
  const char* begin = line.data() + kPrefix.size();
  const auto [ptr, ec] = std::from_chars(begin, line.data() + line.size(), t);
  return ec == std::errc{} && ptr != begin;
}

bool is_chaos_line(std::string_view line) {
  return line.find("\"kind\":\"server_crash\"") != std::string_view::npos ||
         line.find("\"kind\":\"server_recovery\"") != std::string_view::npos;
}

bool is_ctrl_line(std::string_view line) {
  return line.find("\"kind\":\"lease_granted\"") != std::string_view::npos ||
         line.find("\"kind\":\"lease_expired\"") != std::string_view::npos ||
         line.find("\"kind\":\"lease_fenced\"") != std::string_view::npos ||
         line.find("\"kind\":\"shard_adopted\"") != std::string_view::npos ||
         line.find("\"src\":\"ctrl/") != std::string_view::npos ||
         line.find("\"subj\":\"ctrl/") != std::string_view::npos;
}

OracleReport diff_traces(const std::string& chaotic_trace,
                         const std::string& baseline_trace) {
  if (chaotic_trace == baseline_trace) return OracleReport{};
  const auto a = split_lines(chaotic_trace);
  const auto b = split_lines(baseline_trace);
  std::size_t i = 0;
  while (i < a.size() && i < b.size() && a[i] == b[i]) ++i;
  return violate("trace diverged at line " + std::to_string(i + 1) +
                 ": recovered=\"" + snippet(i < a.size() ? a[i] : "<end>") +
                 "\" baseline=\"" + snippet(i < b.size() ? b[i] : "<end>") +
                 "\"");
}

}  // namespace

std::string strip_chaos_events(const std::string& trace_jsonl) {
  std::string out;
  out.reserve(trace_jsonl.size());
  for (const std::string_view line : split_lines(trace_jsonl)) {
    if (line.empty() || is_chaos_line(line)) continue;
    out.append(line);
    out += '\n';
  }
  return out;
}

std::string strip_failover_events(const std::string& trace_jsonl) {
  std::string out;
  out.reserve(trace_jsonl.size());
  for (const std::string_view line : split_lines(trace_jsonl)) {
    if (line.empty() || is_chaos_line(line) || is_ctrl_line(line)) continue;
    out.append(line);
    out += '\n';
  }
  return out;
}

OracleReport check_run_invariants(const RunArtifacts& run) {
  if (!run.invariant_violation.empty()) {
    return violate("warehouse invariant sweep failed: " +
                   run.invariant_violation);
  }
  if (run.dags_finished != run.dags_total) {
    return violate("lost work: " + std::to_string(run.dags_finished) + "/" +
                   std::to_string(run.dags_total) +
                   " DAGs reached a terminal state");
  }
  double prev = -1.0;
  std::size_t index = 0;
  for (const std::string_view line : split_lines(run.trace_jsonl)) {
    ++index;
    if (line.empty()) continue;
    double t = 0.0;
    if (!parse_time(line, t)) {
      return violate("trace line " + std::to_string(index) +
                     " has no timestamp: " + snippet(line));
    }
    if (t < prev) {
      return violate("sim time went backwards at trace line " +
                     std::to_string(index) + ": " + snippet(line));
    }
    prev = t;
  }
  return OracleReport{};
}

OracleReport check_differential(const RunArtifacts& chaotic,
                                const RunArtifacts& baseline) {
  if (chaotic.journal_text != baseline.journal_text) {
    const auto a = split_lines(chaotic.journal_text);
    const auto b = split_lines(baseline.journal_text);
    std::size_t i = 0;
    while (i < a.size() && i < b.size() && a[i] == b[i]) ++i;
    return violate(
        "terminal warehouse state diverged at journal record " +
        std::to_string(i + 1) + ": recovered=\"" +
        snippet(i < a.size() ? a[i] : "<end>") + "\" baseline=\"" +
        snippet(i < b.size() ? b[i] : "<end>") + "\"");
  }
  return diff_traces(strip_chaos_events(chaotic.trace_jsonl),
                     strip_chaos_events(baseline.trace_jsonl));
}

OracleReport check_failover_differential(const RunArtifacts& chaotic,
                                         const RunArtifacts& baseline) {
  if (chaotic.journal_text != baseline.journal_text) {
    const auto a = split_lines(chaotic.journal_text);
    const auto b = split_lines(baseline.journal_text);
    std::size_t i = 0;
    while (i < a.size() && i < b.size() && a[i] == b[i]) ++i;
    return violate(
        "terminal warehouse state diverged at journal record " +
        std::to_string(i + 1) + ": recovered=\"" +
        snippet(i < a.size() ? a[i] : "<end>") + "\" baseline=\"" +
        snippet(i < b.size() ? b[i] : "<end>") + "\"");
  }
  return diff_traces(strip_failover_events(chaotic.trace_jsonl),
                     strip_failover_events(baseline.trace_jsonl));
}

}  // namespace sphinx::chaos
