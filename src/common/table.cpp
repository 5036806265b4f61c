#include "common/table.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <ostream>
#include <sstream>

namespace fifer {

std::string fmt(double v, int precision) {
  if (std::isnan(v)) return "n/a";
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

Table::Table(std::string title) : title_(std::move(title)) {}

Table& Table::set_columns(std::vector<std::string> headers) {
  headers_ = std::move(headers);
  return *this;
}

Table& Table::add_row(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
  return *this;
}

Table& Table::add_row(const std::string& label, const std::vector<double>& cells,
                      int precision) {
  std::vector<std::string> row{label};
  row.reserve(cells.size() + 1);
  for (const double c : cells) row.push_back(fmt(c, precision));
  rows_.push_back(std::move(row));
  return *this;
}

void Table::print(std::ostream& os) const {
  const std::size_t cols = std::max(
      headers_.size(),
      rows_.empty() ? std::size_t{0}
                    : std::max_element(rows_.begin(), rows_.end(),
                                       [](const auto& a, const auto& b) {
                                         return a.size() < b.size();
                                       })
                          ->size());
  if (cols == 0) return;

  std::vector<std::size_t> width(cols, 0);
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    width[c] = std::max(width[c], headers_[c].size());
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }

  const auto rule = [&] {
    os << '+';
    for (std::size_t c = 0; c < cols; ++c) {
      os << std::string(width[c] + 2, '-') << '+';
    }
    os << '\n';
  };
  const auto emit = [&](const std::vector<std::string>& cells, bool right_align) {
    os << '|';
    for (std::size_t c = 0; c < cols; ++c) {
      const std::string& cell = c < cells.size() ? cells[c] : std::string{};
      os << ' ';
      // First column (labels) stays left-aligned; data columns right-align.
      if (right_align && c > 0) {
        os << std::string(width[c] - cell.size(), ' ') << cell;
      } else {
        os << cell << std::string(width[c] - cell.size(), ' ');
      }
      os << " |";
    }
    os << '\n';
  };

  if (!title_.empty()) os << "== " << title_ << " ==\n";
  rule();
  if (!headers_.empty()) {
    emit(headers_, false);
    rule();
  }
  for (const auto& row : rows_) emit(row, true);
  rule();
}

}  // namespace fifer
