#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <thread>
#include <vector>

#include "relational/csv_io.h"
#include "relational/snapshot.h"
#include "relational/database.h"
#include "relational/query.h"

namespace relgraph {
namespace {

// ---------------------------------------------------------------- Value

TEST(ValueTest, NullAndTypes) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_TRUE(Value(5).is_int());
  EXPECT_TRUE(Value(2.5).is_double());
  EXPECT_TRUE(Value(true).is_bool());
  EXPECT_TRUE(Value("hi").is_string());
}

TEST(ValueTest, ToDoubleCoercions) {
  EXPECT_DOUBLE_EQ(Value(3).ToDouble(), 3.0);
  EXPECT_DOUBLE_EQ(Value(2.5).ToDouble(), 2.5);
  EXPECT_DOUBLE_EQ(Value(true).ToDouble(), 1.0);
}

TEST(ValueTest, ToStringRendering) {
  EXPECT_EQ(Value::Null().ToString(), "");
  EXPECT_EQ(Value(42).ToString(), "42");
  EXPECT_EQ(Value(false).ToString(), "false");
  EXPECT_EQ(Value("x").ToString(), "x");
}

TEST(ValueTest, Equality) {
  EXPECT_EQ(Value(1), Value(1));
  EXPECT_NE(Value(1), Value(1.0));
  EXPECT_EQ(Value::Null(), Value::Null());
}

// ---------------------------------------------------------------- Column

TEST(ColumnTest, TypedAppendAndRead) {
  Column c("x", DataType::kInt64);
  ASSERT_TRUE(c.Append(Value(7)).ok());
  c.AppendNull();
  ASSERT_TRUE(c.Append(Value(9)).ok());
  EXPECT_EQ(c.size(), 3);
  EXPECT_EQ(c.null_count(), 1);
  EXPECT_EQ(c.Int(0), 7);
  EXPECT_TRUE(c.IsNull(1));
  EXPECT_EQ(c.Int(2), 9);
}

TEST(ColumnTest, TypeMismatchRejected) {
  Column c("x", DataType::kInt64);
  EXPECT_FALSE(c.Append(Value("oops")).ok());
  EXPECT_FALSE(c.Append(Value(1.5)).ok());
  Column b("b", DataType::kBool);
  EXPECT_FALSE(b.Append(Value(1)).ok());
  Column s("s", DataType::kString);
  EXPECT_FALSE(s.Append(Value(1)).ok());
}

TEST(ColumnTest, IntCoercesIntoFloatColumn) {
  Column c("x", DataType::kFloat64);
  ASSERT_TRUE(c.Append(Value(3)).ok());
  ASSERT_TRUE(c.Append(Value(2.5)).ok());
  EXPECT_DOUBLE_EQ(c.Double(0), 3.0);
  EXPECT_DOUBLE_EQ(c.Double(1), 2.5);
}

TEST(ColumnTest, NumericViews) {
  Column b("b", DataType::kBool);
  ASSERT_TRUE(b.Append(Value(true)).ok());
  EXPECT_DOUBLE_EQ(b.Numeric(0), 1.0);
  Column t("t", DataType::kTimestamp);
  ASSERT_TRUE(t.Append(Value::Time(Days(2))).ok());
  EXPECT_EQ(t.Time(0), Days(2));
  EXPECT_DOUBLE_EQ(t.Numeric(0), static_cast<double>(Days(2)));
}

TEST(ColumnTest, GetValueRoundTrip) {
  Column s("s", DataType::kString);
  ASSERT_TRUE(s.Append(Value("abc")).ok());
  s.AppendNull();
  EXPECT_EQ(s.GetValue(0), Value("abc"));
  EXPECT_TRUE(s.GetValue(1).is_null());
}

// ---------------------------------------------------------------- Schema

TableSchema MakeOrdersSchema() {
  TableSchema s("orders");
  s.AddColumn("id", DataType::kInt64, false)
      .AddColumn("user_id", DataType::kInt64)
      .AddColumn("total", DataType::kFloat64)
      .AddColumn("ts", DataType::kTimestamp)
      .SetPrimaryKey("id")
      .AddForeignKey("user_id", "users")
      .SetTimeColumn("ts");
  return s;
}

TEST(SchemaTest, ValidSchemaPasses) {
  EXPECT_TRUE(MakeOrdersSchema().Validate().ok());
}

TEST(SchemaTest, RejectsDuplicateColumns) {
  TableSchema s("t");
  s.AddColumn("a", DataType::kInt64).AddColumn("a", DataType::kInt64);
  EXPECT_FALSE(s.Validate().ok());
}

TEST(SchemaTest, RejectsMissingPkColumn) {
  TableSchema s("t");
  s.AddColumn("a", DataType::kInt64).SetPrimaryKey("nope");
  EXPECT_FALSE(s.Validate().ok());
}

TEST(SchemaTest, RejectsNonIntPk) {
  TableSchema s("t");
  s.AddColumn("a", DataType::kString).SetPrimaryKey("a");
  EXPECT_FALSE(s.Validate().ok());
}

TEST(SchemaTest, RejectsNonTimestampTimeColumn) {
  TableSchema s("t");
  s.AddColumn("a", DataType::kInt64).SetTimeColumn("a");
  EXPECT_FALSE(s.Validate().ok());
}

TEST(SchemaTest, FindAndFkPredicates) {
  TableSchema s = MakeOrdersSchema();
  EXPECT_EQ(s.FindColumn("total").value(), 2);
  EXPECT_FALSE(s.FindColumn("zzz").ok());
  EXPECT_TRUE(s.IsForeignKey("user_id"));
  EXPECT_FALSE(s.IsForeignKey("total"));
}

TEST(SchemaTest, ToStringMentionsMetadata) {
  std::string str = MakeOrdersSchema().ToString();
  EXPECT_NE(str.find("PK"), std::string::npos);
  EXPECT_NE(str.find("-> users"), std::string::npos);
  EXPECT_NE(str.find("TIME"), std::string::npos);
}

// ---------------------------------------------------------------- Table

TEST(TableTest, AppendAndRead) {
  Table t(MakeOrdersSchema());
  ASSERT_TRUE(
      t.AppendRow({Value(1), Value(10), Value(99.5), Value::Time(100)}).ok());
  ASSERT_TRUE(
      t.AppendRow({Value(2), Value(11), Value::Null(), Value::Time(200)})
          .ok());
  EXPECT_EQ(t.num_rows(), 2);
  EXPECT_EQ(t.PrimaryKey(1), 2);
  EXPECT_EQ(t.RowTime(0), 100);
  EXPECT_DOUBLE_EQ(t.GetValue(0, "total").as_double(), 99.5);
  EXPECT_TRUE(t.GetValue(1, "total").is_null());
}

TEST(TableTest, RejectsWrongArity) {
  Table t(MakeOrdersSchema());
  EXPECT_FALSE(t.AppendRow({Value(1)}).ok());
  EXPECT_EQ(t.num_rows(), 0);
}

TEST(TableTest, RejectsNullInNonNullable) {
  Table t(MakeOrdersSchema());
  EXPECT_FALSE(
      t.AppendRow({Value::Null(), Value(1), Value(0.0), Value::Time(0)}).ok());
}

TEST(TableTest, RejectsTypeMismatchWithoutPartialAppend) {
  Table t(MakeOrdersSchema());
  // Bad value in the last column must not leave earlier columns longer.
  EXPECT_FALSE(
      t.AppendRow({Value(1), Value(2), Value(3.0), Value("bad")}).ok());
  EXPECT_EQ(t.num_rows(), 0);
  ASSERT_TRUE(
      t.AppendRow({Value(1), Value(2), Value(3.0), Value::Time(5)}).ok());
  EXPECT_EQ(t.num_rows(), 1);
}

TEST(TableTest, FindByPrimaryKey) {
  Table t(MakeOrdersSchema());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(t.AppendRow({Value(100 + i), Value(1), Value(1.0),
                             Value::Time(i)})
                    .ok());
  }
  EXPECT_EQ(t.FindByPrimaryKey(103).value(), 3);
  EXPECT_FALSE(t.FindByPrimaryKey(999).ok());
  // Index refreshes after appends.
  ASSERT_TRUE(
      t.AppendRow({Value(200), Value(1), Value(1.0), Value::Time(9)}).ok());
  EXPECT_EQ(t.FindByPrimaryKey(200).value(), 5);
}

TEST(TableTest, ValidatePrimaryKeyCatchesDuplicates) {
  Table t(MakeOrdersSchema());
  ASSERT_TRUE(
      t.AppendRow({Value(1), Value(1), Value(1.0), Value::Time(0)}).ok());
  ASSERT_TRUE(
      t.AppendRow({Value(1), Value(2), Value(2.0), Value::Time(1)}).ok());
  EXPECT_FALSE(t.ValidatePrimaryKey().ok());
}

TEST(TableTest, DuplicatePrimaryKeyMapsToLastRow) {
  // A sequential run of keys, then keys off the run: a duplicate of a run
  // key and keys at both ends of the int64 range.
  Table t(MakeOrdersSchema());
  const int64_t keys[] = {5, 6, 7, 1, 5, INT64_MAX, INT64_MIN, 6};
  for (int64_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(t.AppendRow({Value(keys[i]), Value(int64_t{1}), Value(1.0),
                             Value::Time(i)})
                    .ok());
  }
  EXPECT_EQ(t.FindByPrimaryKey(5).value(), 4);
  EXPECT_EQ(t.FindByPrimaryKey(6).value(), 7);
  EXPECT_EQ(t.FindByPrimaryKey(7).value(), 2);
  EXPECT_EQ(t.FindByPrimaryKey(1).value(), 3);
  EXPECT_EQ(t.FindByPrimaryKey(INT64_MAX).value(), 5);
  EXPECT_EQ(t.FindByPrimaryKey(INT64_MIN).value(), 6);
  EXPECT_FALSE(t.FindByPrimaryKey(8).ok());
  EXPECT_FALSE(t.FindByPrimaryKey(4).ok());
}

// Lookups after an append must be pure reads: four threads probing at once
// (run under TSan in scripts/ci.sh tsan) may not race on the index.
TEST(RelationalTest, ConcurrentPrimaryKeyLookupsAfterAppend) {
  Table t(MakeOrdersSchema());
  constexpr int64_t kRows = 2000;
  for (int64_t i = 0; i < kRows; ++i) {
    ASSERT_TRUE(t.AppendRow({Value(1000 + i), Value(1), Value(1.0),
                             Value::Time(i)})
                    .ok());
  }
  std::atomic<int64_t> wrong{0};
  std::vector<std::thread> threads;
  for (int th = 0; th < 4; ++th) {
    threads.emplace_back([&t, &wrong, th] {
      for (int64_t i = th; i < kRows; i += 3) {
        auto row = t.FindByPrimaryKey(1000 + i);
        if (!row.ok() || row.value() != i) wrong.fetch_add(1);
      }
      if (t.FindByPrimaryKey(-1).ok()) wrong.fetch_add(1);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(wrong.load(), 0);
}

TEST(TableTest, StaticTableHasNoTimestamp) {
  TableSchema s("dim");
  s.AddColumn("id", DataType::kInt64, false).SetPrimaryKey("id");
  Table t(s);
  ASSERT_TRUE(t.AppendRow({Value(1)}).ok());
  EXPECT_EQ(t.RowTime(0), kNoTimestamp);
}

// ---------------------------------------------------------------- Database

Database MakeShopDb() {
  Database db("shop");
  TableSchema users("users");
  users.AddColumn("id", DataType::kInt64, false)
      .AddColumn("country", DataType::kString)
      .SetPrimaryKey("id");
  Table* ut = db.AddTable(users).value();
  EXPECT_TRUE(ut->AppendRow({Value(10), Value("be")}).ok());
  EXPECT_TRUE(ut->AppendRow({Value(11), Value("nl")}).ok());

  Table* ot = db.AddTable(MakeOrdersSchema()).value();
  EXPECT_TRUE(ot->AppendRow({Value(1), Value(10), Value(5.0),
                             Value::Time(Days(1))})
                  .ok());
  EXPECT_TRUE(ot->AppendRow({Value(2), Value(10), Value(7.0),
                             Value::Time(Days(3))})
                  .ok());
  EXPECT_TRUE(ot->AppendRow({Value(3), Value(11), Value(2.0),
                             Value::Time(Days(2))})
                  .ok());
  return db;
}

TEST(DatabaseTest, AddAndLookup) {
  Database db = MakeShopDb();
  EXPECT_EQ(db.num_tables(), 2);
  EXPECT_NE(db.FindTable("users"), nullptr);
  EXPECT_EQ(db.FindTable("nope"), nullptr);
  EXPECT_EQ(db.table("orders").num_rows(), 3);
  EXPECT_EQ(db.TotalRows(), 5);
}

TEST(DatabaseTest, DuplicateTableRejected) {
  Database db = MakeShopDb();
  TableSchema dup("users");
  dup.AddColumn("id", DataType::kInt64, false).SetPrimaryKey("id");
  EXPECT_EQ(db.AddTable(dup).status().code(), StatusCode::kAlreadyExists);
}

TEST(DatabaseTest, ValidatePassesOnConsistentDb) {
  EXPECT_TRUE(MakeShopDb().Validate().ok());
}

TEST(DatabaseTest, ValidateCatchesDanglingFk) {
  Database db = MakeShopDb();
  Table* ot = db.FindMutableTable("orders");
  ASSERT_TRUE(ot->AppendRow({Value(4), Value(999), Value(1.0),
                             Value::Time(Days(4))})
                  .ok());
  EXPECT_FALSE(db.Validate().ok());
}

TEST(DatabaseTest, ValidateCatchesFkToUnknownTable) {
  Database db("d");
  TableSchema s("child");
  s.AddColumn("id", DataType::kInt64, false)
      .AddColumn("parent_id", DataType::kInt64)
      .SetPrimaryKey("id")
      .AddForeignKey("parent_id", "ghost");
  ASSERT_TRUE(db.AddTable(s).ok());
  EXPECT_FALSE(db.Validate().ok());
}

TEST(DatabaseTest, TimeRange) {
  Database db = MakeShopDb();
  auto [lo, hi] = db.TimeRange();
  EXPECT_EQ(lo, Days(1));
  EXPECT_EQ(hi, Days(3));
}

TEST(DatabaseTest, TimeRangeOfStaticDb) {
  Database db("static");
  TableSchema s("dim");
  s.AddColumn("id", DataType::kInt64, false).SetPrimaryKey("id");
  ASSERT_TRUE(db.AddTable(s).ok());
  auto [lo, hi] = db.TimeRange();
  EXPECT_EQ(lo, kNoTimestamp);
  EXPECT_EQ(hi, kNoTimestamp);
}

TEST(DatabaseTest, DescribeSchemaListsTables) {
  std::string desc = MakeShopDb().DescribeSchema();
  EXPECT_NE(desc.find("users"), std::string::npos);
  EXPECT_NE(desc.find("orders"), std::string::npos);
}

// ---------------------------------------------------------------- CSV IO

TEST(CsvIoTest, LoadTable) {
  Table t(MakeOrdersSchema());
  std::string csv =
      "id,user_id,total,ts\n"
      "1,10,5.5,86400\n"
      "2,,,172800\n";
  ASSERT_TRUE(LoadTableFromCsv(csv, &t).ok());
  EXPECT_EQ(t.num_rows(), 2);
  EXPECT_TRUE(t.GetValue(1, "user_id").is_null());
  EXPECT_DOUBLE_EQ(t.GetValue(0, "total").as_double(), 5.5);
  EXPECT_EQ(t.RowTime(1), Days(2));
}

TEST(CsvIoTest, LoadRejectsHeaderMismatch) {
  Table t(MakeOrdersSchema());
  EXPECT_FALSE(LoadTableFromCsv("id,user,total,ts\n", &t).ok());
  EXPECT_FALSE(LoadTableFromCsv("id,user_id,total\n", &t).ok());
}

TEST(CsvIoTest, LoadRejectsBadCell) {
  Table t(MakeOrdersSchema());
  Status st = LoadTableFromCsv("id,user_id,total,ts\nx,1,1.0,0\n", &t);
  EXPECT_EQ(st.code(), StatusCode::kParseError);
}

TEST(CsvIoTest, RoundTrip) {
  Database db = MakeShopDb();
  const Table& orders = db.table("orders");
  std::string csv = TableToCsv(orders);
  Table copy(MakeOrdersSchema());
  ASSERT_TRUE(LoadTableFromCsv(csv, &copy).ok());
  ASSERT_EQ(copy.num_rows(), orders.num_rows());
  for (int64_t r = 0; r < orders.num_rows(); ++r) {
    for (int64_t c = 0; c < orders.num_columns(); ++c) {
      EXPECT_EQ(copy.column(c).GetValue(r), orders.column(c).GetValue(r));
    }
  }
}

TEST(CsvIoTest, BoolParsing) {
  TableSchema s("flags");
  s.AddColumn("id", DataType::kInt64, false)
      .AddColumn("on", DataType::kBool)
      .SetPrimaryKey("id");
  Table t(s);
  ASSERT_TRUE(LoadTableFromCsv("id,on\n1,true\n2,0\n3,\n", &t).ok());
  EXPECT_TRUE(t.GetValue(0, "on").as_bool());
  EXPECT_FALSE(t.GetValue(1, "on").as_bool());
  EXPECT_TRUE(t.GetValue(2, "on").is_null());
}

// ---------------------------------------------------------------- Snapshot

TEST(SnapshotTest, RoundTripPreservesEverything) {
  Database db = MakeShopDb();
  const std::string path = testing::TempDir() + "/relgraph_snapshot.db";
  ASSERT_TRUE(SaveDatabaseSnapshot(db, path).ok());
  auto loaded = LoadDatabaseSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const Database& copy = loaded.value();
  EXPECT_EQ(copy.name(), db.name());
  ASSERT_EQ(copy.num_tables(), db.num_tables());
  EXPECT_TRUE(copy.Validate().ok());
  for (const auto& table : db.tables()) {
    const Table* other = copy.FindTable(table->name());
    ASSERT_NE(other, nullptr);
    ASSERT_EQ(other->num_rows(), table->num_rows());
    ASSERT_EQ(other->num_columns(), table->num_columns());
    EXPECT_EQ(other->schema().primary_key(), table->schema().primary_key());
    EXPECT_EQ(other->schema().time_column(), table->schema().time_column());
    EXPECT_EQ(other->schema().foreign_keys().size(),
              table->schema().foreign_keys().size());
    for (int64_t r = 0; r < table->num_rows(); ++r) {
      for (int64_t c = 0; c < table->num_columns(); ++c) {
        EXPECT_EQ(other->column(c).GetValue(r),
                  table->column(c).GetValue(r));
      }
    }
  }
  std::remove(path.c_str());
}

TEST(SnapshotTest, RoundTripPreservesNulls) {
  Database db("n");
  TableSchema s("t");
  s.AddColumn("id", DataType::kInt64, false)
      .AddColumn("x", DataType::kFloat64)
      .AddColumn("name", DataType::kString)
      .SetPrimaryKey("id");
  Table* t = db.AddTable(s).value();
  ASSERT_TRUE(t->AppendRow({Value(1), Value::Null(), Value("a")}).ok());
  ASSERT_TRUE(t->AppendRow({Value(2), Value(1.5), Value::Null()}).ok());
  const std::string path = testing::TempDir() + "/relgraph_snapshot_n.db";
  ASSERT_TRUE(SaveDatabaseSnapshot(db, path).ok());
  auto loaded = LoadDatabaseSnapshot(path);
  ASSERT_TRUE(loaded.ok());
  const Table& copy = loaded.value().table("t");
  EXPECT_TRUE(copy.GetValue(0, "x").is_null());
  EXPECT_TRUE(copy.GetValue(1, "name").is_null());
  EXPECT_DOUBLE_EQ(copy.GetValue(1, "x").as_double(), 1.5);
  std::remove(path.c_str());
}

TEST(SnapshotTest, RejectsMissingAndForeignFiles) {
  EXPECT_EQ(LoadDatabaseSnapshot("/nonexistent/x.db").status().code(),
            StatusCode::kIoError);
  const std::string path = testing::TempDir() + "/relgraph_not_snapshot";
  {
    std::ofstream out(path);
    out << "plain text";
  }
  EXPECT_EQ(LoadDatabaseSnapshot(path).status().code(),
            StatusCode::kParseError);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------- Query

TEST(QueryTest, ParseAggKind) {
  EXPECT_EQ(ParseAggKind("count").value(), AggKind::kCount);
  EXPECT_EQ(ParseAggKind("SUM").value(), AggKind::kSum);
  EXPECT_EQ(ParseAggKind("Exists").value(), AggKind::kExists);
  EXPECT_FALSE(ParseAggKind("median").ok());
}

TEST(QueryTest, FkIndexGroupsAndSorts) {
  Database db = MakeShopDb();
  auto idx = FkIndex::Build(db.table("orders"), "user_id");
  ASSERT_TRUE(idx.ok());
  const auto& rows = idx.value().Rows(10);
  ASSERT_EQ(rows.size(), 2u);
  // Sorted by time: day1 then day3.
  EXPECT_LT(db.table("orders").RowTime(rows[0]),
            db.table("orders").RowTime(rows[1]));
  EXPECT_TRUE(idx.value().Rows(999).empty());
  EXPECT_EQ(idx.value().NumKeys(), 2);
}

TEST(QueryTest, FkIndexRejectsBadColumn) {
  Database db = MakeShopDb();
  EXPECT_FALSE(FkIndex::Build(db.table("orders"), "ghost").ok());
  EXPECT_FALSE(FkIndex::Build(db.table("orders"), "total").ok());
}

TEST(QueryTest, RowsInWindow) {
  Database db = MakeShopDb();
  auto idx = FkIndex::Build(db.table("orders"), "user_id").value();
  EXPECT_EQ(idx.RowsInWindow(10, Days(0), Days(2)).size(), 1u);
  EXPECT_EQ(idx.RowsInWindow(10, Days(0), Days(10)).size(), 2u);
  EXPECT_EQ(idx.RowsInWindow(10, Days(4), Days(10)).size(), 0u);
}

TEST(QueryTest, AggregateWindowAllKinds) {
  Database db = MakeShopDb();
  auto idx = FkIndex::Build(db.table("orders"), "user_id").value();
  // User 10 has totals 5.0 (day1) and 7.0 (day3).
  EXPECT_DOUBLE_EQ(
      AggregateWindow(idx, 10, 0, Days(10), AggKind::kCount, "").value(),
      2.0);
  EXPECT_DOUBLE_EQ(
      AggregateWindow(idx, 10, 0, Days(10), AggKind::kSum, "total").value(),
      12.0);
  EXPECT_DOUBLE_EQ(
      AggregateWindow(idx, 10, 0, Days(10), AggKind::kAvg, "total").value(),
      6.0);
  EXPECT_DOUBLE_EQ(
      AggregateWindow(idx, 10, 0, Days(10), AggKind::kMin, "total").value(),
      5.0);
  EXPECT_DOUBLE_EQ(
      AggregateWindow(idx, 10, 0, Days(10), AggKind::kMax, "total").value(),
      7.0);
  EXPECT_DOUBLE_EQ(
      AggregateWindow(idx, 10, 0, Days(10), AggKind::kExists, "").value(),
      1.0);
  EXPECT_DOUBLE_EQ(
      AggregateWindow(idx, 999, 0, Days(10), AggKind::kExists, "").value(),
      0.0);
}

TEST(QueryTest, AggregateWindowRespectsWindow) {
  Database db = MakeShopDb();
  auto idx = FkIndex::Build(db.table("orders"), "user_id").value();
  // Only the day-1 order is inside [0, day2).
  EXPECT_DOUBLE_EQ(
      AggregateWindow(idx, 10, 0, Days(2), AggKind::kSum, "total").value(),
      5.0);
  // Window start is inclusive, end exclusive.
  EXPECT_DOUBLE_EQ(
      AggregateWindow(idx, 10, Days(1), Days(3), AggKind::kCount, "")
          .value(),
      1.0);
}

TEST(QueryTest, AggregateWindowEmptyDefaults) {
  Database db = MakeShopDb();
  auto idx = FkIndex::Build(db.table("orders"), "user_id").value();
  EXPECT_DOUBLE_EQ(
      AggregateWindow(idx, 999, 0, Days(1), AggKind::kAvg, "total").value(),
      0.0);
  EXPECT_DOUBLE_EQ(
      AggregateWindow(idx, 999, 0, Days(1), AggKind::kMin, "total").value(),
      0.0);
}

TEST(QueryTest, AggregateWindowRowFilter) {
  Database db = MakeShopDb();
  const Table& orders = db.table("orders");
  auto idx = FkIndex::Build(orders, "user_id").value();
  std::function<bool(int64_t)> big = [&orders](int64_t r) {
    return orders.GetValue(r, "total").as_double() > 6.0;
  };
  EXPECT_DOUBLE_EQ(
      AggregateWindow(idx, 10, 0, Days(10), AggKind::kCount, "", &big)
          .value(),
      1.0);
}

TEST(QueryTest, AggregateWindowBadColumn) {
  Database db = MakeShopDb();
  auto idx = FkIndex::Build(db.table("orders"), "user_id").value();
  EXPECT_FALSE(
      AggregateWindow(idx, 10, 0, Days(10), AggKind::kSum, "ghost").ok());
}

TEST(QueryTest, CollectWindowDistinctInOrder) {
  Database db("d");
  TableSchema items("items");
  items.AddColumn("id", DataType::kInt64, false)
      .AddColumn("user_id", DataType::kInt64)
      .AddColumn("product_id", DataType::kInt64)
      .AddColumn("ts", DataType::kTimestamp)
      .SetPrimaryKey("id")
      .SetTimeColumn("ts");
  Table* t = db.AddTable(items).value();
  ASSERT_TRUE(t->AppendRow({Value(1), Value(1), Value(7), Value::Time(10)})
                  .ok());
  ASSERT_TRUE(t->AppendRow({Value(2), Value(1), Value(5), Value::Time(20)})
                  .ok());
  ASSERT_TRUE(t->AppendRow({Value(3), Value(1), Value(7), Value::Time(30)})
                  .ok());
  auto idx = FkIndex::Build(*t, "user_id").value();
  auto got = CollectWindow(idx, 1, 0, 100, "product_id").value();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], 7);
  EXPECT_EQ(got[1], 5);
  EXPECT_TRUE(CollectWindow(idx, 1, 25, 100, "product_id").value() ==
              std::vector<int64_t>{7});
}

TEST(QueryTest, FilterRows) {
  Database db = MakeShopDb();
  const Table& orders = db.table("orders");
  auto rows = FilterRows(orders, [&orders](int64_t r) {
    return orders.GetValue(r, "total").as_double() >= 5.0;
  });
  EXPECT_EQ(rows.size(), 2u);
}

}  // namespace
}  // namespace relgraph
