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
/// Trace events name their source, subject and detail by handles into
/// the trace's name table (see trace.hpp).  A component resolves its
/// fixed names with name() when a recorder is attached; a name made per
/// call ("site:<id>", "old->new (reason)") is joined from its parts in a
/// buffer the recorder reuses and looked up, so recording an event whose
/// names are already in the table allocates nothing.
///
/// Metric names are qualified by their emitting source as
/// "name\@source" (e.g. "dag.completion_time\@sphinx-client/rr"), so
/// multiple tenants sharing one recorder stay separable.  count() and
/// observe() assemble that key in the same buffer and look it up without
/// allocating; only a metric's first use stores its name.

#include <cstdint>
#include <string>
#include <string_view>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"

namespace sphinx::obs {

class Recorder {
 public:
  explicit Recorder(const sim::Engine& engine) : engine_(engine) {}

  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  /// Handle of the name made by joining `parts` (strings and unsigned
  /// integers, the latter in decimal) in the trace's name table,
  /// interned on first use.
  template <typename... Parts>
  [[nodiscard]] Name name(const Parts&... parts) {
    buffer_.clear();
    (append_part(parts), ...);
    return trace_.name(buffer_);
  }

  /// Appends one trace event stamped with the engine's current time.
  void event(TraceKind kind, Name source, Subject subject, Name detail,
             double value = 0.0);

  /// Increments counter "name\@source".
  void count(std::string_view source, std::string_view name,
             std::uint64_t delta = 1);
  /// Folds one observation into histogram "name\@source".
  void observe(std::string_view source, std::string_view name, double value);

  /// Qualified lookup helpers.
  [[nodiscard]] std::uint64_t counter(std::string_view name,
                                      std::string_view source) const;
  [[nodiscard]] const MetricSet::Histogram* histogram(
      std::string_view name, std::string_view source) const;

  [[nodiscard]] const TraceSink& trace() const noexcept { return trace_; }
  [[nodiscard]] const MetricSet& metrics() const noexcept { return metrics_; }
  [[nodiscard]] const sim::Engine& engine() const noexcept { return engine_; }

 private:
  void append_part(std::string_view text) { buffer_ += text; }
  void append_part(std::uint64_t number);
  /// "name\@source", or the bare name without a source, in buffer_.
  [[nodiscard]] std::string_view qualified(std::string_view name,
                                           std::string_view source);

  const sim::Engine& engine_;
  TraceSink trace_;
  MetricSet metrics_;
  /// Where names and metric keys are assembled; reused by every call.
  std::string buffer_;
};

}  // namespace sphinx::obs
