#pragma once
/// \file profiler.hpp
/// Sampling profiler that charges CPU time to SPHINX modules.
///
/// A SIGPROF interval timer interrupts the process at a fixed rate of
/// CPU time (the kernel rounds the period up to its tick).  The handler
/// unwinds the interrupted stack and charges the sample to the innermost
/// frame whose function belongs to a SPHINX module, so time spent in the
/// standard library or libc counts against the module that called it.
/// Functions are mapped to modules once, before sampling starts, from
/// the executable's ELF symbol table: the first `sphinx::<namespace>` in
/// a mangled name names the module, and `sphinx::core` is split further
/// by class (warehouse, planner, server, client, wire codec).

#include <array>
#include <cstdint>
#include <string>

namespace perfbench {

/// The modules samples are charged to, in report order.
inline constexpr std::array<const char*, 11> kLayers = {
    "engine", "db",  "warehouse", "planner", "server", "client",
    "data",   "rpc", "obs",       "grid",    "harness"};

class Profiler {
 public:
  /// Loads the symbol table of `executable` (this program's own path).
  /// Returns false, with `error` set, when it cannot be read.
  bool load_symbols(const std::string& executable, std::string& error);

  /// Starts sampling every `period_us` microseconds of process CPU time.
  void start(long period_us);
  /// Stops sampling; results stay readable.
  void stop();

  /// CPU seconds charged to layer `index` of kLayers: its share of the
  /// samples times the process CPU seconds between start() and stop().
  /// Samples with no SPHINX frame on the stack are charged to no layer.
  [[nodiscard]] double layer_seconds(std::size_t index) const;

 private:
  double cpu_start_ = 0.0;
  double cpu_seconds_ = 0.0;
};

}  // namespace perfbench
