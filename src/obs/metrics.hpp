#pragma once
/// \file metrics.hpp
/// Counter/histogram metric set -- the flight recorder's aggregate half.
///
/// Built on common/stats: a counter is a monotonically increasing
/// integer, a histogram a RunningStats accumulator plus the retained
/// samples so percentiles can be computed at export time.  Storage is
/// ordered (std::map) and the serializer emits keys in that order with
/// deterministic float formatting, so two same-seed runs export
/// byte-identical metrics.json.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/stats.hpp"

namespace sphinx::obs {

class MetricSet {
 public:
  /// Per-histogram accumulator.  Samples are retained for percentile
  /// export; stats carries the Welford aggregates.
  struct Histogram {
    RunningStats stats;
    std::vector<double> samples;
  };

  /// Increments a counter (creating it at zero first).
  void add(const std::string& name, std::uint64_t delta = 1);
  /// Folds one observation into a histogram.
  void observe(const std::string& name, double value);

  /// Counter value; 0 for a counter never incremented.
  [[nodiscard]] std::uint64_t counter(const std::string& name) const;
  /// Histogram by name; nullptr when never observed.
  [[nodiscard]] const Histogram* histogram(const std::string& name) const;

  [[nodiscard]] const std::map<std::string, std::uint64_t>& counters()
      const noexcept {
    return counters_;
  }

  /// The whole set as one pretty-printed JSON document: counters first,
  /// then histograms with count/mean/min/max/stddev and p50/p90/p99.
  [[nodiscard]] std::string to_json() const;

 private:
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace sphinx::obs
