#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace fifer {

/// Console table formatter used by the figure-regeneration benches so every
/// experiment prints a consistently aligned, labelled table (the repo's
/// stand-in for the paper's plots).
class Table {
 public:
  explicit Table(std::string title = "");

  Table& set_columns(std::vector<std::string> headers);
  Table& add_row(std::vector<std::string> cells);

  /// Convenience: formats each double with `precision` decimals.
  Table& add_row(const std::string& label, const std::vector<double>& cells,
                 int precision = 2);

  /// Renders with box-drawing rules and right-aligned numeric cells.
  void print(std::ostream& os) const;

  std::size_t rows() const { return rows_.size(); }

 private:
  std::string title_;
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with fixed precision (helper shared by benches); an
/// undefined value (NaN) reads "n/a".
std::string fmt(double v, int precision = 2);

}  // namespace fifer
