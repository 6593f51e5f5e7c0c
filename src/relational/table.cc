#include "relational/table.h"

#include "core/logging.h"
#include "core/string_util.h"

namespace relgraph {

Table::Table(TableSchema schema) : schema_(std::move(schema)) {
  Status st = schema_.Validate();
  RELGRAPH_CHECK(st.ok()) << "invalid schema: " << st.ToString();
  columns_.reserve(schema_.columns().size());
  for (const auto& spec : schema_.columns()) {
    columns_.emplace_back(spec.name, spec.type);
  }
  if (schema_.primary_key()) {
    pk_col_ = schema_.FindColumn(*schema_.primary_key()).value();
  }
  if (schema_.time_column()) {
    time_col_ = schema_.FindColumn(*schema_.time_column()).value();
  }
}

Status Table::AppendRow(const std::vector<Value>& values) {
  if (values.size() != columns_.size()) {
    return Status::InvalidArgument(StrFormat(
        "table '%s': row has %zu values, expected %zu", name().c_str(),
        values.size(), columns_.size()));
  }
  for (size_t i = 0; i < values.size(); ++i) {
    if (values[i].is_null() && !schema_.columns()[i].nullable) {
      return Status::InvalidArgument(StrFormat(
          "table '%s': null in non-nullable column '%s'", name().c_str(),
          schema_.columns()[i].name.c_str()));
    }
  }
  // Validate all appends up-front so a failure cannot leave ragged columns.
  for (size_t i = 0; i < values.size(); ++i) {
    Column probe(columns_[i].name(), columns_[i].type());
    RELGRAPH_RETURN_IF_ERROR(probe.Append(values[i]));
  }
  for (size_t i = 0; i < values.size(); ++i) {
    Status st = columns_[i].Append(values[i]);
    RELGRAPH_CHECK(st.ok());
  }
  if (pk_col_ >= 0 && !columns_[pk_col_].IsNull(num_rows_)) {
    pk_index_[columns_[pk_col_].Int(num_rows_)] = num_rows_;
  }
  ++num_rows_;
  return Status::OK();
}

const Column& Table::column(const std::string& col_name) const {
  const Column* c = FindColumnPtr(col_name);
  RELGRAPH_CHECK(c != nullptr) << "no column '" << col_name << "' in table '"
                               << name() << "'";
  return *c;
}

const Column* Table::FindColumnPtr(const std::string& col_name) const {
  auto idx = schema_.FindColumn(col_name);
  if (!idx.ok()) return nullptr;
  return &columns_[idx.value()];
}

int64_t Table::PrimaryKey(int64_t row) const {
  RELGRAPH_CHECK(pk_col_ >= 0) << "table '" << name() << "' has no PK";
  return columns_[pk_col_].Int(row);
}

Result<int64_t> Table::FindByPrimaryKey(int64_t pk) const {
  if (pk_col_ < 0) {
    return Status::FailedPrecondition("table '" + name() + "' has no PK");
  }
  auto it = pk_index_.find(pk);
  if (it == pk_index_.end()) {
    return Status::NotFound(StrFormat("pk %lld not in table '%s'",
                                      static_cast<long long>(pk),
                                      name().c_str()));
  }
  return it->second;
}

Timestamp Table::RowTime(int64_t row) const {
  if (time_col_ < 0) return kNoTimestamp;
  if (columns_[time_col_].IsNull(row)) return kNoTimestamp;
  return columns_[time_col_].Time(row);
}

Status Table::ValidatePrimaryKey() const {
  if (pk_col_ < 0) return Status::OK();
  std::unordered_map<int64_t, int64_t> seen;
  seen.reserve(static_cast<size_t>(num_rows_) * 2);
  for (int64_t r = 0; r < num_rows_; ++r) {
    if (columns_[pk_col_].IsNull(r)) {
      return Status::InvalidArgument(StrFormat(
          "table '%s': null primary key at row %lld", name().c_str(),
          static_cast<long long>(r)));
    }
    int64_t pk = columns_[pk_col_].Int(r);
    auto [it, inserted] = seen.emplace(pk, r);
    if (!inserted) {
      return Status::InvalidArgument(StrFormat(
          "table '%s': duplicate primary key %lld (rows %lld and %lld)",
          name().c_str(), static_cast<long long>(pk),
          static_cast<long long>(it->second), static_cast<long long>(r)));
    }
  }
  return Status::OK();
}

}  // namespace relgraph
