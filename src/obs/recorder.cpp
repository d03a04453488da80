#include "obs/recorder.hpp"

#include <charconv>
#include <limits>

namespace sphinx::obs {
namespace {

/// The metric key "name\@source" (the bare name without a source),
/// appended to `out`.
void append_qualified(std::string& out, std::string_view name,
                      std::string_view source) {
  out += name;
  if (source.empty()) return;
  out += '@';
  out += source;
}

}  // namespace

void Recorder::append_part(std::uint64_t number) {
  char digits[std::numeric_limits<std::uint64_t>::digits10 + 1];
  const auto end = std::to_chars(digits, digits + sizeof digits, number).ptr;
  buffer_.append(digits, end);
}

std::string_view Recorder::qualified(std::string_view name,
                                     std::string_view source) {
  buffer_.clear();
  append_qualified(buffer_, name, source);
  return buffer_;
}

void Recorder::event(TraceKind kind, Name source, Subject subject,
                     Name detail, double value) {
  TraceEvent e;
  e.at = engine_.now();
  e.value = value;
  e.number = subject.number.value_or(0);
  e.source = source;
  e.subject = subject.name;
  e.detail = detail;
  e.kind = kind;
  e.numbered = subject.number.has_value();
  trace_.record(e);
}

void Recorder::count(std::string_view source, std::string_view name,
                     std::uint64_t delta) {
  metrics_.add(qualified(name, source), delta);
}

void Recorder::observe(std::string_view source, std::string_view name,
                       double value) {
  metrics_.observe(qualified(name, source), value);
}

std::uint64_t Recorder::counter(std::string_view name,
                                std::string_view source) const {
  std::string key;
  append_qualified(key, name, source);
  return metrics_.counter(key);
}

const MetricSet::Histogram* Recorder::histogram(
    std::string_view name, std::string_view source) const {
  std::string key;
  append_qualified(key, name, source);
  return metrics_.histogram(key);
}

}  // namespace sphinx::obs
