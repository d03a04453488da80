#pragma once
/// \file stats.hpp
/// Descriptive statistics used by the prediction module, the monitoring
/// aggregator and the experiment reports.

#include <cstddef>
#include <vector>

namespace sphinx {

/// Online accumulator for mean/variance/min/max (Welford's algorithm).
class RunningStats {
 public:
  void add(double x) noexcept;
  void clear() noexcept { *this = RunningStats{}; }

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] bool empty() const noexcept { return n_ == 0; }
  /// Mean of the observations; 0 when empty.
  [[nodiscard]] double mean() const noexcept { return mean_; }
  /// Unbiased sample variance; 0 when fewer than two observations.
  [[nodiscard]] double variance() const noexcept;  // sphinx-lint-allow(test-only): stddev() is its root; tests check Welford through it
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Percentile over a snapshot of samples.  `q` in [0, 1]; linear
/// interpolation between order statistics.  Returns 0 for empty input.
[[nodiscard]] double percentile(std::vector<double> samples, double q);

}  // namespace sphinx
