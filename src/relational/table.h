#ifndef RELGRAPH_RELATIONAL_TABLE_H_
#define RELGRAPH_RELATIONAL_TABLE_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "core/status.h"
#include "relational/column.h"
#include "relational/schema.h"

namespace relgraph {

/// An in-memory table: a schema plus columnar row storage.
class Table {
 public:
  explicit Table(TableSchema schema);

  const TableSchema& schema() const { return schema_; }
  const std::string& name() const { return schema_.name(); }

  int64_t num_rows() const { return num_rows_; }
  int64_t num_columns() const {
    return static_cast<int64_t>(columns_.size());
  }

  /// Appends one row; `values` must match the schema's column count and
  /// types, and non-nullable columns reject nulls.
  Status AppendRow(const std::vector<Value>& values);

  const Column& column(int64_t index) const { return columns_[index]; }

  /// Column by name; aborts if missing (use schema().FindColumn for the
  /// fallible lookup).
  const Column& column(const std::string& col_name) const;

  /// Pointer to a column by name, or nullptr.
  const Column* FindColumnPtr(const std::string& col_name) const;

  /// Cell accessor by name.
  Value GetValue(int64_t row, const std::string& col_name) const {
    return column(col_name).GetValue(row);
  }

  /// Primary-key of a row (table must declare a PK; cell must be non-null).
  int64_t PrimaryKey(int64_t row) const;

  /// Row index for a primary-key value, or NotFound. Reads the index that
  /// AppendRow maintains (the last row holding a duplicated key wins), so
  /// lookups are read-only and safe from concurrent callers.
  Result<int64_t> FindByPrimaryKey(int64_t pk) const;

  /// Event timestamp of a row, or kNoTimestamp for static tables / null
  /// cells.
  Timestamp RowTime(int64_t row) const;

  /// Checks PK uniqueness/non-null.
  Status ValidatePrimaryKey() const;

 private:
  TableSchema schema_;
  std::vector<Column> columns_;
  int64_t num_rows_ = 0;
  int pk_col_ = -1;
  int time_col_ = -1;
  // PK value -> row, updated by every AppendRow (last row wins).
  std::unordered_map<int64_t, int64_t> pk_index_;
};

}  // namespace relgraph

#endif  // RELGRAPH_RELATIONAL_TABLE_H_
