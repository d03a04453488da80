#pragma once
/// \file metrics.hpp
/// Counter/histogram metric set -- the flight recorder's aggregate half.
///
/// Built on common/stats: a counter is a monotonically increasing
/// integer, a histogram a RunningStats accumulator plus the retained
/// samples so percentiles can be computed at export time.  Storage is
/// ordered (std::map) and the serializer emits keys in that order with
/// deterministic float formatting, so two same-seed runs export
/// byte-identical metrics.json.  The maps compare transparently
/// (std::less<>), so a lookup by std::string_view allocates nothing; a
/// metric's name is stored once, when the metric is created.

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
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
  void add(std::string_view name, std::uint64_t delta = 1);
  /// Folds one observation into a histogram.
  void observe(std::string_view name, double value);

  /// Counter value; 0 for a counter never incremented.
  [[nodiscard]] std::uint64_t counter(std::string_view name) const;
  /// Histogram by name; nullptr when never observed.
  [[nodiscard]] const Histogram* histogram(std::string_view name) const;

  [[nodiscard]] const std::map<std::string, std::uint64_t, std::less<>>&
  counters() const noexcept {
    return counters_;
  }

  /// The whole set as one pretty-printed JSON document: counters first,
  /// then histograms with count/mean/min/max/stddev and p50/p90/p99.
  [[nodiscard]] std::string to_json() const;

 private:
  std::map<std::string, std::uint64_t, std::less<>> counters_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

}  // namespace sphinx::obs
