#include "sim/text_table.h"

#include <algorithm>
#include <cstdio>

#include "base/check.h"

namespace eqimpact {
namespace sim {

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  EQIMPACT_CHECK(!headers_.empty());
}

void TextTable::AddRow(std::vector<std::string> cells) {
  EQIMPACT_CHECK_EQ(cells.size(), headers_.size());
  rows_.push_back(std::move(cells));
}

std::string TextTable::Cell(double value, int precision) {
  char buffer[48];
  std::snprintf(buffer, sizeof(buffer), "%.*f", precision, value);
  return buffer;
}

std::string TextTable::Cell(int value) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "%d", value);
  return buffer;
}

std::string TextTable::ToString() const {
  std::vector<size_t> widths(headers_.size());
  for (size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const std::vector<std::string>& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto render_row = [&widths](const std::vector<std::string>& row) {
    std::string line;
    for (size_t c = 0; c < row.size(); ++c) {
      line += row[c];
      line.append(widths[c] - row[c].size(), ' ');
      if (c + 1 < row.size()) line += "  ";
    }
    line += '\n';
    return line;
  };
  std::string out = render_row(headers_);
  size_t total = 0;
  for (size_t w : widths) total += w;
  out += std::string(total + 2 * (widths.size() - 1), '-') + "\n";
  for (const std::vector<std::string>& row : rows_) out += render_row(row);
  return out;
}

}  // namespace sim
}  // namespace eqimpact
