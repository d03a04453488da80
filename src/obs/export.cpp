#include "obs/export.hpp"

#include <algorithm>
#include <fstream>
#include <iostream>  // sphinx-lint-allow(iostream-include): "-" = stdout export

namespace sphinx::obs {
namespace {

/// Hands `write` the stream for `path` ("-" = stdout) and reports a file
/// that cannot be opened or written.
template <typename Write>
StatusOrError write_to(const std::string& path, const Write& write) {
  if (path == "-") {
    write(std::cout);
    std::cout << std::flush;
    return {};
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return make_error("io_error", "cannot open " + path + " for writing");
  }
  write(out);
  out.flush();
  if (!out) {
    return make_error("io_error", "short write to " + path);
  }
  return {};
}

}  // namespace

StatusOrError write_trace_jsonl(const TraceSink& trace,
                                const std::string& path) {
  // One block of events is rendered at a time, so the text held in memory
  // is a block's, not the whole log's.
  return write_to(path, [&trace](std::ostream& out) {
    std::string text;
    for (std::size_t first = 0; first < trace.size();
         first += TraceSink::kBlockEvents) {
      text.clear();
      trace.append_jsonl(
          text, first, std::min(trace.size(), first + TraceSink::kBlockEvents));
      out << text;
    }
  });
}

StatusOrError write_metrics_json(const MetricSet& metrics,
                                 const std::string& path) {
  return write_to(path,
                  [&metrics](std::ostream& out) { out << metrics.to_json(); });
}

}  // namespace sphinx::obs
