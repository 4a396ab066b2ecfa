#ifndef EQIMPACT_SIM_TEXT_TABLE_H_
#define EQIMPACT_SIM_TEXT_TABLE_H_

#include <string>
#include <vector>

namespace eqimpact {
namespace sim {

/// Minimal fixed-width ASCII table builder for the figure/table benches:
/// every bench prints the same rows and series the paper reports, and
/// this keeps their output aligned and diff-friendly.
class TextTable {
 public:
  /// Table with the given column headers.
  explicit TextTable(std::vector<std::string> headers);

  /// Appends one row; CHECK-fails unless the cell count matches.
  void AddRow(std::vector<std::string> cells);

  /// Convenience: formats doubles with `precision` decimal places.
  static std::string Cell(double value, int precision = 4);
  static std::string Cell(int value);

  /// Renders the table with per-column widths and a header separator.
  std::string ToString() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace sim
}  // namespace eqimpact

#endif  // EQIMPACT_SIM_TEXT_TABLE_H_
