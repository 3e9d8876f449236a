#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

namespace dashbench {

using vegaplus::data::Column;
using vegaplus::data::DataType;
using vegaplus::data::Field;
using vegaplus::data::Schema;
using vegaplus::data::Table;
using vegaplus::data::TableBuilder;
using vegaplus::data::TablePtr;
using vegaplus::data::Value;

namespace {

struct Cell {
  bool null = true;
  bool is_str = false;
  double num = 0;
  std::string str;
};

using Row = std::vector<Cell>;

Cell CellAt(const Column& col, size_t i) {
  Cell c;
  if (col.IsNull(i)) return c;
  c.null = false;
  if (col.type() == DataType::kString) {
    c.is_str = true;
    c.str = col.StringAt(i);
  } else {
    c.num = col.NumericAt(i);
  }
  return c;
}

// Sort key of a cell: numbers are rounded to 9 significant digits so that
// values equal within the tolerance sort next to each other.
std::string KeyOf(const Cell& c) {
  if (c.null) return std::string(1, '\0');
  if (c.is_str) return "s" + c.str;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "n%.9g", c.num);
  return buf;
}

std::string Describe(const Cell& c) {
  if (c.null) return "null";
  if (c.is_str) return "'" + c.str + "'";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", c.num);
  return buf;
}

bool CellsMatch(const Cell& a, const Cell& b) {
  if (a.null || b.null) return a.null == b.null;
  if (a.is_str || b.is_str) return a.is_str == b.is_str && a.str == b.str;
  if (std::isnan(a.num) || std::isnan(b.num)) {
    return std::isnan(a.num) && std::isnan(b.num);
  }
  const double scale = std::max(std::fabs(a.num), std::fabs(b.num));
  return std::fabs(a.num - b.num) <= kRelTolerance * scale + 1e-9;
}

// Rows of `table` restricted to `columns` (in that order), sorted by key.
std::vector<Row> SortedRows(const Table& table, const std::vector<const Column*>& columns) {
  std::vector<Row> rows(table.num_rows());
  std::vector<std::string> keys(table.num_rows());
  for (size_t r = 0; r < table.num_rows(); ++r) {
    rows[r].reserve(columns.size());
    for (const Column* col : columns) {
      rows[r].push_back(CellAt(*col, r));
      keys[r] += KeyOf(rows[r].back());
      keys[r] += '\x1f';
    }
  }
  std::vector<size_t> order(rows.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return keys[a] < keys[b]; });
  std::vector<Row> sorted;
  sorted.reserve(rows.size());
  for (size_t i : order) sorted.push_back(std::move(rows[i]));
  return sorted;
}

TablePtr Rebuild(const Table& table, size_t skip_row, size_t bump_row,
                 const std::string& bump_column) {
  TableBuilder builder(table.schema());
  const int bump_col = table.schema().FieldIndex(bump_column);
  for (size_t r = 0; r < table.num_rows(); ++r) {
    if (r == skip_row) continue;
    std::vector<Value> values;
    for (size_t c = 0; c < table.num_columns(); ++c) {
      Value v = table.ValueAt(r, c);
      if (r == bump_row && static_cast<int>(c) == bump_col) {
        v = v.is_int() ? Value::Int(v.AsInt() + 1) : Value::Double(v.AsDouble() + 1);
      }
      values.push_back(std::move(v));
    }
    builder.AppendRow(values);
  }
  return builder.Build();
}

// Copies of `table` with one deliberate fault each.
std::vector<std::pair<std::string, TablePtr>> PerturbedCopies(const Table& table) {
  const size_t none = table.num_rows();
  std::vector<std::pair<std::string, TablePtr>> out;
  if (table.num_rows() == 0) return out;
  out.emplace_back("one count changed", Rebuild(table, none, 0, "count"));
  out.emplace_back("one row dropped", Rebuild(table, table.num_rows() - 1, none, ""));
  return out;
}

}  // namespace

std::string CompareTables(const Table& expected, const Table& actual) {
  std::vector<const Column*> exp_cols, act_cols;
  for (size_t c = 0; c < expected.num_columns(); ++c) {
    const std::string& name = expected.schema().field(c).name;
    const Column* col = actual.ColumnByName(name);
    if (col == nullptr) return "column '" + name + "' missing";
    exp_cols.push_back(&expected.column(c));
    act_cols.push_back(col);
  }
  if (expected.num_rows() != actual.num_rows()) {
    return "row count " + std::to_string(actual.num_rows()) + ", expected " +
           std::to_string(expected.num_rows());
  }
  std::vector<Row> exp_rows = SortedRows(expected, exp_cols);
  std::vector<Row> act_rows = SortedRows(actual, act_cols);
  for (size_t r = 0; r < exp_rows.size(); ++r) {
    for (size_t c = 0; c < exp_cols.size(); ++c) {
      if (!CellsMatch(exp_rows[r][c], act_rows[r][c])) {
        return "column '" + expected.schema().field(c).name + "': " +
               Describe(act_rows[r][c]) + ", expected " + Describe(exp_rows[r][c]);
      }
    }
  }
  return "";
}

size_t CountRowsInBrushes(const Table& table, const std::vector<Brush>& brushes) {
  std::vector<const Column*> cols;
  for (const Brush& b : brushes) cols.push_back(table.ColumnByName(b.field));
  size_t n = 0;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    bool pass = true;
    for (size_t i = 0; i < brushes.size() && pass; ++i) {
      const Column* col = cols[i];
      if (col == nullptr || col->IsNull(r)) {
        pass = false;
        break;
      }
      const double v = col->NumericAt(r);
      const double lo = std::min(brushes[i].lo, brushes[i].hi);
      const double hi = std::max(brushes[i].lo, brushes[i].hi);
      pass = v >= lo && v <= hi;
    }
    if (pass) ++n;
  }
  return n;
}

std::string CheckCountSum(const Table& mark, size_t expected) {
  const Column* count = mark.ColumnByName("count");
  if (count == nullptr) return "no 'count' column";
  double sum = 0;
  for (size_t r = 0; r < mark.num_rows(); ++r) {
    if (!count->IsNull(r)) sum += count->NumericAt(r);
  }
  if (sum == static_cast<double>(expected)) return "";
  char buf[96];
  std::snprintf(buf, sizeof(buf), "counts sum to %.0f, %zu rows pass the brushes", sum,
                expected);
  return buf;
}

std::string SelfTest(const Table& mark, size_t rows) {
  if (!CheckCountSum(mark, rows).empty()) return "reference mark fails its own count check";
  std::vector<int32_t> reversed;
  for (size_t r = mark.num_rows(); r > 0; --r) reversed.push_back(static_cast<int32_t>(r - 1));
  if (!CompareTables(mark, *mark.Take(reversed)).empty()) {
    return "comparison rejects a row-reordered copy";
  }
  auto perturbed = PerturbedCopies(mark);
  if (perturbed.empty()) return "reference mark is empty";
  for (const auto& [what, table] : perturbed) {
    if (CompareTables(mark, *table).empty()) return "comparison accepts " + what;
    if (CheckCountSum(*table, rows).empty()) return "count check accepts " + what;
  }
  return "";
}

std::string SyntheticSelfTest() {
  Schema schema({Field{"bin0", DataType::kFloat64}, Field{"bin1", DataType::kFloat64},
                 Field{"count", DataType::kInt64}});
  TableBuilder builder(schema);
  size_t rows = 0;
  for (int i = 0; i < 8; ++i) {
    const int64_t count = 10 + 7 * i;
    rows += static_cast<size_t>(count);
    builder.AppendRow({Value::Double(i * 0.5), Value::Double(i * 0.5 + 0.5),
                       Value::Int(count)});
  }
  return SelfTest(*builder.Build(), rows);
}

}  // namespace dashbench
