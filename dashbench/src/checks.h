// Output checks of the dashboard benchmark. Everything here is computed
// apart from the program's SQL path: mark tables are compared against an
// all-client execution, and binned count marks against row counts taken by
// a plain loop over the generated table.
#ifndef DASHBENCH_CHECKS_H_
#define DASHBENCH_CHECKS_H_

#include <string>
#include <vector>

#include "data/table.h"

namespace dashbench {

/// Relative tolerance for floating aggregates (sums and means may be
/// accumulated in a different order on the server, in tiles and on the
/// client).
inline constexpr double kRelTolerance = 1e-6;

/// Compare two mark tables ignoring row order. Every column of `expected`
/// must be present in `actual` with equal cells (numbers within
/// kRelTolerance), and both must have the same row count. Returns an empty
/// string on a match, else a one-line description of the first difference.
std::string CompareTables(const vegaplus::data::Table& expected,
                          const vegaplus::data::Table& actual);

/// One active brush: rows pass when `field` lies in [lo, hi] (inclusive,
/// endpoints in either order; nulls never pass), as Vega's inrange.
struct Brush {
  std::string field;
  double lo = 0;
  double hi = 0;
};

/// Rows of `table` that pass every brush, counted by a plain loop.
size_t CountRowsInBrushes(const vegaplus::data::Table& table,
                          const std::vector<Brush>& brushes);

/// Check that the "count" column of a binned count mark sums to `expected`.
/// Returns an empty string on a match, else a description.
std::string CheckCountSum(const vegaplus::data::Table& mark, size_t expected);

/// Checker self-test: both checks above must reject two perturbed copies of
/// `mark` (a binned count table whose counts sum to `rows`): one with the
/// first row's count changed by one, one with the last row dropped. And
/// CompareTables must accept a row-reversed copy. Returns an empty string
/// when the checker behaves, else what it failed to catch.
std::string SelfTest(const vegaplus::data::Table& mark, size_t rows);

/// SelfTest on a small synthetic histogram.
std::string SyntheticSelfTest();

}  // namespace dashbench

#endif  // DASHBENCH_CHECKS_H_
