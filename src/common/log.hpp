#pragma once
/// \file log.hpp
/// Minimal leveled logger.
///
/// The simulator is quiet by default (benchmarks print their own tables);
/// logging exists for debugging runs and for the examples, which narrate
/// what the middleware is doing.  A global level gate keeps disabled
/// logging cheap.

#include <sstream>
#include <string>

namespace sphinx {

enum class LogLevel { kTrace = 0, kDebug, kInfo, kWarn, kError, kOff };

namespace log_detail {
LogLevel& global_level() noexcept;  // sphinx-lint-allow(test-only): Logger's inline write() below reads it
void emit(LogLevel level, const std::string& component, const std::string& msg);
}  // namespace log_detail

/// Sets the process-wide log level; returns the previous level.
LogLevel set_log_level(LogLevel level) noexcept;  // sphinx-lint-allow(test-only): debugging aid, raised by hand

/// Component-scoped logger.  Cheap to copy; holds only the component name.
class Logger {
 public:
  explicit Logger(std::string component) : component_(std::move(component)) {}

  template <typename... Args>
  void debug(const Args&... args) const { write(LogLevel::kDebug, args...); }
  template <typename... Args>
  void warn(const Args&... args) const { write(LogLevel::kWarn, args...); }
  template <typename... Args>
  void error(const Args&... args) const { write(LogLevel::kError, args...); }

 private:
  template <typename... Args>
  void write(LogLevel level, const Args&... args) const {
    if (level < log_detail::global_level()) return;
    std::ostringstream oss;
    (oss << ... << args);
    log_detail::emit(level, component_, oss.str());
  }

  std::string component_;
};

}  // namespace sphinx
