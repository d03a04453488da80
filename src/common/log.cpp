#include "common/log.hpp"

#include <cstdio>
#include <mutex>

namespace sphinx {
namespace log_detail {

LogLevel& global_level() noexcept {
  static LogLevel level = LogLevel::kWarn;
  return level;
}

void emit(LogLevel level, const std::string& component, const std::string& msg) {
  static std::mutex mu;  // examples may log from the parallel sweep pool
  static constexpr const char* kNames[] = {"TRACE", "DEBUG", "INFO",
                                           "WARN",  "ERROR", "OFF"};
  const std::scoped_lock lock(mu);
  std::fprintf(stderr, "[%s] %s: %s\n",
               kNames[static_cast<int>(level)], component.c_str(), msg.c_str());
}

}  // namespace log_detail

LogLevel set_log_level(LogLevel level) noexcept {
  const LogLevel prev = log_detail::global_level();
  log_detail::global_level() = level;
  return prev;
}

}  // namespace sphinx
