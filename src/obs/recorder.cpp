#include "obs/recorder.hpp"

namespace sphinx::obs {

void Recorder::event(TraceKind kind, std::string source, std::string subject,
                     std::string detail, double value) {
  TraceEvent e;
  e.at = engine_.now();
  e.kind = kind;
  e.source = std::move(source);
  e.subject = std::move(subject);
  e.detail = std::move(detail);
  e.value = value;
  trace_.record(std::move(e));
}

void Recorder::count(const std::string& source, const std::string& name,
                     std::uint64_t delta) {
  metrics_.add(qualified_name(name, source), delta);
}

void Recorder::observe(const std::string& source, const std::string& name,
                       double value) {
  metrics_.observe(qualified_name(name, source), value);
}

std::uint64_t Recorder::counter(const std::string& name,
                                const std::string& source) const {
  return metrics_.counter(qualified_name(name, source));
}

const MetricSet::Histogram* Recorder::histogram(
    const std::string& name, const std::string& source) const {
  return metrics_.histogram(qualified_name(name, source));
}

}  // namespace sphinx::obs
