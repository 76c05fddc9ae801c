// Semantics of the flat answer row table (eval::RowTable / eval::RowView):
// equality is over rows, not over the id buffer; row views index and
// iterate in place; AnswerSet::ToString renders rows as before.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "eval/seminaive.h"
#include "eval/value.h"

namespace factlog::eval {
namespace {

TEST(RowTableTest, EqualityComparesRowsNotTheBuffer) {
  const std::vector<ValueId> cells = {1, 2, 3, 4};
  const RowTable narrow(cells, 1, 4);  // (1) (2) (3) (4)
  const RowTable wide(cells, 2, 2);    // (1, 2) (3, 4)
  EXPECT_EQ(narrow.cells(), wide.cells());
  EXPECT_NE(narrow, wide);
  EXPECT_FALSE(narrow == wide);
  EXPECT_EQ(wide, RowTable(cells, 2, 2));
  EXPECT_NE(wide, RowTable({1, 2, 4, 3}, 2, 2));  // same rows, other order
}

TEST(RowTableTest, ZeroWidthRowCountMatters) {
  const RowTable one_empty_row({}, 0, 1);  // a matched 0-ary query
  const RowTable no_rows({}, 0, 0);
  EXPECT_NE(one_empty_row, no_rows);
  EXPECT_EQ(one_empty_row.size(), 1u);
  EXPECT_FALSE(one_empty_row.empty());
  EXPECT_TRUE(one_empty_row[0].empty());
  EXPECT_TRUE(no_rows.empty());
  EXPECT_EQ(one_empty_row, RowTable({}, 0, 1));
}

TEST(RowTableTest, EmptyTablesAreEqualWhateverTheirWidths) {
  EXPECT_EQ(RowTable(), RowTable({}, 3, 0));
  EXPECT_EQ(RowTable({}, 1, 0), RowTable({}, 4, 0));
  EXPECT_EQ(SortedUniqueRows({}, 2, 0), AnswerSet().rows);
  EXPECT_NE(RowTable(), RowTable({7}, 1, 1));
}

TEST(RowTableTest, RowViewsIndexAndIterateAtEveryWidth) {
  for (size_t width = 0; width <= 4; ++width) {
    SCOPED_TRACE("width " + std::to_string(width));
    const size_t n = 3;
    std::vector<ValueId> cells;
    for (size_t r = 0; r < n; ++r) {
      for (size_t c = 0; c < width; ++c) {
        cells.push_back(static_cast<ValueId>(r * 10 + c));
      }
    }
    const RowTable table(cells, width, n);
    EXPECT_EQ(table.size(), n);
    EXPECT_EQ(table.width(), width);
    size_t r = 0;
    for (const RowView row : table) {
      EXPECT_EQ(row.size(), width);
      EXPECT_EQ(row.empty(), width == 0);
      size_t c = 0;
      for (ValueId id : row) {
        EXPECT_EQ(id, static_cast<ValueId>(r * 10 + c));
        ++c;
      }
      EXPECT_EQ(c, width);
      const RowView at = table[r];
      ASSERT_EQ(at.size(), width);
      for (c = 0; c < width; ++c) {
        EXPECT_EQ(at[c], static_cast<ValueId>(r * 10 + c));
      }
      EXPECT_EQ(at.end() - at.begin(), static_cast<std::ptrdiff_t>(width));
      ++r;
    }
    EXPECT_EQ(r, n);
  }
}

TEST(RowTableTest, ToStringRendersEveryRow) {
  ValueStore store;
  const ValueId one = store.InternInt(1);
  const ValueId four = store.InternInt(4);
  const ValueId f23 =
      store.InternApp("f", {store.InternInt(2), store.InternInt(3)});
  const ValueId nil = store.InternSym("nil");

  AnswerSet pairs;
  pairs.vars = {"X", "L"};
  pairs.rows = RowTable({one, f23, four, nil}, 2, 2);
  EXPECT_EQ(pairs.ToString(store), "{X = 1, L = f(2, 3)}\n{X = 4, L = []}\n");

  AnswerSet yes;  // a matched 0-ary query: one empty row
  yes.rows = RowTable({}, 0, 1);
  EXPECT_EQ(yes.ToString(store), "{}\n");
  EXPECT_EQ(AnswerSet().ToString(store), "");
}

}  // namespace
}  // namespace factlog::eval
