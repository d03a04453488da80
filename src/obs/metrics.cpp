#include "obs/metrics.hpp"

#include "obs/trace.hpp"

namespace sphinx::obs {

namespace {

/// The entry named `name`, created (its one allocation) on first use.
template <typename Map>
typename Map::mapped_type& entry(Map& map, std::string_view name) {
  auto it = map.lower_bound(name);
  if (it == map.end() || it->first != name) {
    it = map.emplace_hint(it, std::string(name), typename Map::mapped_type{});
  }
  return it->second;
}

}  // namespace

void MetricSet::add(std::string_view name, std::uint64_t delta) {
  entry(counters_, name) += delta;
}

void MetricSet::observe(std::string_view name, double value) {
  Histogram& histogram = entry(histograms_, name);
  histogram.stats.add(value);
  histogram.samples.push_back(value);
}

std::uint64_t MetricSet::counter(std::string_view name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

const MetricSet::Histogram* MetricSet::histogram(
    std::string_view name) const {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

std::string MetricSet::to_json() const {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + json_escape(name) + "\": " + std::to_string(value);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, histogram] : histograms_) {
    out += first ? "\n" : ",\n";
    first = false;
    const RunningStats& stats = histogram.stats;
    out += "    \"" + json_escape(name) + "\": {";
    out += "\"count\": " + std::to_string(stats.count());
    out += ", \"mean\": " + format_double(stats.mean());
    out += ", \"min\": " + format_double(stats.min());
    out += ", \"max\": " + format_double(stats.max());
    out += ", \"stddev\": " + format_double(stats.stddev());
    out += ", \"p50\": " + format_double(percentile(histogram.samples, 0.5));
    out += ", \"p90\": " + format_double(percentile(histogram.samples, 0.9));
    out += ", \"p99\": " + format_double(percentile(histogram.samples, 0.99));
    out += "}";
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

}  // namespace sphinx::obs
