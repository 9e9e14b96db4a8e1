#include "util/table_printer.h"

#include <cmath>
#include <cstdio>

#include "util/logging.h"

namespace dpmm {

TablePrinter::TablePrinter(std::vector<std::string> header)
    : header_(std::move(header)) {}

void TablePrinter::AddRow(std::vector<std::string> row) {
  DPMM_CHECK_EQ(row.size(), header_.size());
  rows_.push_back(std::move(row));
}

std::string TablePrinter::Num(double v, int precision) {
  char buf[64];
  if (std::isnan(v)) return "-";
  if (std::fabs(v) >= 1e5 || (v != 0 && std::fabs(v) < 1e-3)) {
    std::snprintf(buf, sizeof(buf), "%.*e", precision, v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  }
  return buf;
}

void TablePrinter::Print() const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t j = 0; j < header_.size(); ++j) width[j] = header_[j].size();
  for (const auto& row : rows_) {
    for (std::size_t j = 0; j < row.size(); ++j) {
      if (row[j].size() > width[j]) width[j] = row[j].size();
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t j = 0; j < row.size(); ++j) {
      std::printf("%s%-*s", j == 0 ? "| " : " | ", static_cast<int>(width[j]),
                  row[j].c_str());
    }
    std::printf(" |\n");
  };
  print_row(header_);
  std::printf("|");
  for (std::size_t j = 0; j < header_.size(); ++j) {
    for (std::size_t k = 0; k < width[j] + 2; ++k) std::printf("-");
    std::printf("|");
  }
  std::printf("\n");
  for (const auto& row : rows_) print_row(row);
}

}  // namespace dpmm
