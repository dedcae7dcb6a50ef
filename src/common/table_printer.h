// Console table formatting used by the benchmark harness to print the
// paper's tables/figures as aligned text.
#pragma once

#include <string>
#include <vector>

#include "obs/metrics.h"

namespace rpe {

/// \brief Collects rows of string cells and renders an aligned ASCII table.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> header);

  void AddRow(std::vector<std::string> row);

  /// Convenience: format a double with the given precision.
  static std::string Fmt(double v, int precision = 4);
  /// Convenience: format as percentage with one decimal, e.g. "63.9%".
  static std::string Pct(double fraction, int precision = 1);

  /// Render to a string (header, separator, rows).
  std::string ToString() const;
  /// Render to stdout.
  void Print() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// \brief The registry-driven CLI stats table: one {"Metric", "Value"}
/// row per Sample with a non-empty table_label, in sample order. This is
/// the formatter behind the serve-tcp exit table — the row set IS the
/// metrics scrape, so the table and /metrics can never disagree.
/// Integral values print exactly (scripts compare them as integers);
/// non-integral values print with 3 decimals. Callers may AddRow extra
/// non-metric rows (e.g. the SIMD kernel report) before Print.
TablePrinter MetricsTable(const std::vector<obs::Sample>& samples);

}  // namespace rpe
