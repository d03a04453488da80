#pragma once
/// \file recorder.hpp
/// The flight recorder: one deterministic timeline + metric set per run.
///
/// A Recorder joins a TraceSink and a MetricSet and stamps everything
/// with the owning engine's sim clock, so instrumented components that
/// have no clock of their own (the warehouse) still produce correctly
/// timed events.  The recorder only
/// *observes*: it never schedules events, draws random numbers or
/// otherwise perturbs the simulation, so attaching one leaves a
/// fixed-seed run's results byte-identical.
///
/// Metric names are qualified by their emitting source as
/// "name\@source" (e.g. "dag.completion_time\@sphinx-client/rr"), so
/// multiple tenants sharing one recorder stay separable.

#include <cstdint>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"

namespace sphinx::obs {

class Recorder {
 public:
  explicit Recorder(const sim::Engine& engine) : engine_(engine) {}

  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  /// Appends one trace event stamped with the engine's current time.
  void event(TraceKind kind, std::string source, std::string subject,
             std::string detail, double value = 0.0);

  /// Increments counter "name\@source".
  void count(const std::string& source, const std::string& name,
             std::uint64_t delta = 1);
  /// Folds one observation into histogram "name\@source".
  void observe(const std::string& source, const std::string& name,
               double value);

  /// Qualified lookup helpers (see qualified_name()).
  [[nodiscard]] std::uint64_t counter(const std::string& name,
                                      const std::string& source) const;
  [[nodiscard]] const MetricSet::Histogram* histogram(
      const std::string& name, const std::string& source) const;

  [[nodiscard]] const TraceSink& trace() const noexcept { return trace_; }
  [[nodiscard]] const MetricSet& metrics() const noexcept { return metrics_; }
  [[nodiscard]] const sim::Engine& engine() const noexcept { return engine_; }

 private:
  [[nodiscard]] static std::string qualified_name(const std::string& name,
                                                  const std::string& source) {
    return source.empty() ? name : name + "@" + source;
  }

  const sim::Engine& engine_;
  TraceSink trace_;
  MetricSet metrics_;
};

}  // namespace sphinx::obs
