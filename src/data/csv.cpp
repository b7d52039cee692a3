#include "data/csv.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "tensor/assert.hpp"

namespace cnd::data {

namespace {

/// One numeric cell: the whole cell must parse as a number (blanks around
/// it aside) and be finite. Errors name the file, line and column.
double parse_cell(const std::string& cell, const std::string& path,
                  std::size_t line_no, std::size_t col) {
  const char* begin = cell.c_str();
  char* end = nullptr;
  const double v = std::strtod(begin, &end);
  while (*end == ' ' || *end == '\t' || *end == '\r') ++end;
  const std::string where = "load_csv: " + path + ":" +
                            std::to_string(line_no) + ":" +
                            std::to_string(col) + ": ";
  require(end != begin && *end == '\0', where + "not a number '" + cell + "'");
  require(std::isfinite(v), where + "non-finite value '" + cell + "'");
  return v;
}

}  // namespace

void save_csv(const Dataset& ds, const std::string& path) {
  ds.validate();
  std::ofstream f(path);
  require(f.good(), "save_csv: cannot open " + path);
  for (std::size_t j = 0; j < ds.n_features(); ++j) f << "f" << j << ",";
  f << "label,attack_class\n";
  f.precision(10);
  for (std::size_t i = 0; i < ds.size(); ++i) {
    auto r = ds.x.row(i);
    for (double v : r) f << v << ",";
    f << ds.y[i] << "," << ds.attack_class[i] << "\n";
  }
  require(f.good(), "save_csv: write failed for " + path);
}

Dataset load_csv(const std::string& path, const std::string& name) {
  std::ifstream f(path);
  require(f.good(), "load_csv: cannot open " + path);

  std::string line;
  require(static_cast<bool>(std::getline(f, line)), "load_csv: empty file");
  const auto n_cols = static_cast<std::size_t>(
      std::count(line.begin(), line.end(), ',') + 1);
  require(n_cols >= 3, "load_csv: need at least one feature + label + class");
  const std::size_t d = n_cols - 2;

  Dataset ds;
  ds.name = name;
  int max_class = -1;
  std::vector<double> row(n_cols);
  std::size_t line_no = 1;
  while (std::getline(f, line)) {
    ++line_no;
    if (line.empty()) continue;
    std::stringstream ss(line);
    std::string cell;
    for (std::size_t j = 0; j < n_cols; ++j) {
      require(static_cast<bool>(std::getline(ss, cell, ',')),
              "load_csv: short row in " + path);
      row[j] = parse_cell(cell, path, line_no, j + 1);
    }
    Matrix one(1, d);
    for (std::size_t j = 0; j < d; ++j) one(0, j) = row[j];
    ds.x.append_rows(one);
    ds.y.push_back(static_cast<int>(row[d]));
    ds.attack_class.push_back(static_cast<int>(row[d + 1]));
    max_class = std::max(max_class, ds.attack_class.back());
  }
  for (int c = 0; c <= max_class; ++c)
    ds.class_names.push_back("class_" + std::to_string(c));
  ds.validate();
  return ds;
}

void save_table_csv(const std::string& path,
                    const std::vector<std::string>& header,
                    const std::vector<std::vector<double>>& rows,
                    const std::vector<std::string>& row_labels) {
  require(row_labels.empty() || row_labels.size() == rows.size(),
          "save_table_csv: row label count mismatch");
  std::ofstream f(path);
  require(f.good(), "save_table_csv: cannot open " + path);
  for (std::size_t j = 0; j < header.size(); ++j)
    f << header[j] << (j + 1 < header.size() ? "," : "\n");
  f.precision(8);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (!row_labels.empty()) f << row_labels[i] << ",";
    for (std::size_t j = 0; j < rows[i].size(); ++j)
      f << rows[i][j] << (j + 1 < rows[i].size() ? "," : "");
    f << "\n";
  }
}

}  // namespace cnd::data
