// Aligned console tables for the benchmark harness — every bench binary
// prints the rows/series of the corresponding paper table or figure.
#ifndef DPMM_UTIL_TABLE_PRINTER_H_
#define DPMM_UTIL_TABLE_PRINTER_H_

#include <string>
#include <vector>

namespace dpmm {

/// Collects rows of string cells and prints them with aligned columns.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> header);

  /// Appends a data row; must have the same arity as the header.
  void AddRow(std::vector<std::string> row);

  /// Convenience: formats doubles with the given precision.
  static std::string Num(double v, int precision = 3);

  /// Renders the table (header, separator, rows) to stdout.
  void Print() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace dpmm

#endif  // DPMM_UTIL_TABLE_PRINTER_H_
