#pragma once
/// \file table.hpp
/// ASCII table rendering for benchmark/report output.
///
/// Each benchmark binary prints the same rows/series the paper's figure
/// reports; this helper keeps that output aligned and uniform.

#include <string>
#include <vector>

namespace sphinx {

/// A simple column-aligned text table.
class TextTable {
 public:
  /// Sets the header row; defines the column count.
  void set_header(std::vector<std::string> header);
  /// Appends a data row; must match the header width (padded if shorter).
  void add_row(std::vector<std::string> row);

  /// Renders with a separator line under the header.
  [[nodiscard]] std::string render() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Renders a horizontal bar chart line: label, value and a proportional
/// bar -- used by the figure benches to show series shape in a terminal.
[[nodiscard]] std::string bar_line(const std::string& label, double value,
                                   double max_value, int width = 40,
                                   const std::string& unit = "");

}  // namespace sphinx
