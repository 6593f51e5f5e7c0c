// Differential harness for streaming DB→graph maintenance (the PR's
// headline deliverable): any append sequence replayed incrementally through
// StreamingDbGraph must produce a graph — node features, node times,
// per-node neighbor order, edge times — and sampler output bit-identical
// to a from-scratch batch build of the same database at the same cutoff.
// Covers the append-log contract on Database, batch-split invariance,
// compaction, the kAppendApply/kCompact fault-recovery paths, CSR
// structural invariants, and a seeded ~1k-operation schedule fuzzer.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/fault_injection.h"
#include "core/rng.h"
#include "db2graph/graph_builder.h"
#include "db2graph/streaming.h"
#include "graph/hetero_graph.h"
#include "relational/append_log.h"
#include "relational/database.h"
#include "sampler/neighbor_sampler.h"

namespace relgraph {
namespace {

/// Every test starts and ends with a disarmed fault injector.
class StreamingTest : public testing::Test {
 protected:
  void SetUp() override { FaultInjector::Global().Reset(); }
  void TearDown() override { FaultInjector::Global().Reset(); }
};

// ------------------------------------------------------------- mini world
//
// users(id PK, country, age)                      -- static dimension
// products(id PK, price)                          -- static dimension
// orders(id PK, user_id FK, product_id FK, total, ts TIME)

Database MakeStreamDb() {
  Database db("stream");

  TableSchema users("users");
  users.AddColumn("id", DataType::kInt64, false)
      .AddColumn("country", DataType::kString)
      .AddColumn("age", DataType::kFloat64)
      .SetPrimaryKey("id");
  Table* ut = db.AddTable(users).value();
  EXPECT_TRUE(
      ut->AppendRow({Value(int64_t{0}), Value("be"), Value(30.0)}).ok());
  EXPECT_TRUE(
      ut->AppendRow({Value(int64_t{1}), Value("nl"), Value(40.0)}).ok());
  EXPECT_TRUE(
      ut->AppendRow({Value(int64_t{2}), Value("be"), Value(55.0)}).ok());

  TableSchema products("products");
  products.AddColumn("id", DataType::kInt64, false)
      .AddColumn("price", DataType::kFloat64)
      .SetPrimaryKey("id");
  Table* pt = db.AddTable(products).value();
  EXPECT_TRUE(pt->AppendRow({Value(int64_t{0}), Value(9.5)}).ok());
  EXPECT_TRUE(pt->AppendRow({Value(int64_t{1}), Value(19.0)}).ok());

  TableSchema orders("orders");
  orders.AddColumn("id", DataType::kInt64, false)
      .AddColumn("user_id", DataType::kInt64)
      .AddColumn("product_id", DataType::kInt64)
      .AddColumn("total", DataType::kFloat64)
      .AddColumn("ts", DataType::kTimestamp)
      .SetPrimaryKey("id")
      .AddForeignKey("user_id", "users")
      .AddForeignKey("product_id", "products")
      .SetTimeColumn("ts");
  Table* ot = db.AddTable(orders).value();
  EXPECT_TRUE(ot->AppendRow({Value(int64_t{0}), Value(int64_t{0}),
                             Value(int64_t{0}), Value(9.5), Value::Time(10)})
                  .ok());
  EXPECT_TRUE(ot->AppendRow({Value(int64_t{1}), Value(int64_t{1}),
                             Value(int64_t{1}), Value(19.0), Value::Time(20)})
                  .ok());
  EXPECT_TRUE(ot->AppendRow({Value(int64_t{2}), Value(int64_t{0}),
                             Value(int64_t{1}), Value(19.0), Value::Time(30)})
                  .ok());
  return db;
}

std::vector<Value> UserRow(int64_t id, const std::string& country,
                           double age) {
  return {Value(id), Value(country), Value(age)};
}

std::vector<Value> ProductRow(int64_t id, double price) {
  return {Value(id), Value(price)};
}

std::vector<Value> OrderRow(int64_t id, int64_t user, int64_t product,
                            double total, Timestamp ts) {
  return {Value(id), Value(user), Value(product), Value(total),
          Value::Time(ts)};
}

// ----------------------------------------------------- equality predicates

/// Full neighbor list of one node in canonical order (segments 0..n-1).
std::vector<std::pair<int64_t, Timestamp>> FullNeighbors(
    const HeteroGraph& g, EdgeTypeId e, int64_t node) {
  std::vector<std::pair<int64_t, Timestamp>> out;
  for (int32_t s = 0; s < g.num_segments(e); ++s) {
    const int64_t* dst;
    const Timestamp* times;
    int64_t count;
    g.SegmentNeighbors(e, s, node, &dst, &times, &count);
    for (int64_t i = 0; i < count; ++i) out.emplace_back(dst[i], times[i]);
  }
  return out;
}

/// Asserts `got` and `want` are bit-identical in content: node types,
/// counts, features (exact float compare), node times, edge types, and
/// per-node neighbor order with edge times — regardless of segment layout.
void ExpectGraphsBitIdentical(const HeteroGraph& got, const HeteroGraph& want,
                              const std::string& context) {
  SCOPED_TRACE(context);
  ASSERT_EQ(got.num_node_types(), want.num_node_types());
  for (NodeTypeId t = 0; t < got.num_node_types(); ++t) {
    SCOPED_TRACE("node type " + got.node_type_name(t));
    ASSERT_EQ(got.node_type_name(t), want.node_type_name(t));
    ASSERT_EQ(got.num_nodes(t), want.num_nodes(t));
    const Tensor& gf = got.node_features(t);
    const Tensor& wf = want.node_features(t);
    ASSERT_EQ(gf.rows(), wf.rows());
    ASSERT_EQ(gf.cols(), wf.cols());
    for (int64_t i = 0; i < gf.numel(); ++i) {
      ASSERT_EQ(gf.data()[i], wf.data()[i]) << "feature element " << i;
    }
    for (int64_t n = 0; n < got.num_nodes(t); ++n) {
      ASSERT_EQ(got.node_time(t, n), want.node_time(t, n)) << "node " << n;
    }
  }
  ASSERT_EQ(got.num_edge_types(), want.num_edge_types());
  for (EdgeTypeId e = 0; e < got.num_edge_types(); ++e) {
    SCOPED_TRACE("edge type " + got.edge_type_name(e));
    ASSERT_EQ(got.edge_type_name(e), want.edge_type_name(e));
    ASSERT_EQ(got.edge_src_type(e), want.edge_src_type(e));
    ASSERT_EQ(got.edge_dst_type(e), want.edge_dst_type(e));
    ASSERT_EQ(got.num_edges(e), want.num_edges(e));
    const int64_t n = got.num_nodes(got.edge_src_type(e));
    for (int64_t node = 0; node < n; ++node) {
      ASSERT_EQ(FullNeighbors(got, e, node), FullNeighbors(want, e, node))
          << "neighbor list of node " << node;
    }
  }
}

/// Structural invariants of the segmented CSR: window bounds, monotone
/// offsets, in-range endpoints, and edge counts consistent with both the
/// segment sizes and the per-node degrees.
void ExpectCsrInvariants(const HeteroGraph& g) {
  for (EdgeTypeId e = 0; e < g.num_edge_types(); ++e) {
    SCOPED_TRACE("edge type " + g.edge_type_name(e));
    const int64_t num_src = g.num_nodes(g.edge_src_type(e));
    const int64_t num_dst = g.num_nodes(g.edge_dst_type(e));
    int64_t total = 0;
    for (int32_t s = 0; s < g.num_segments(e); ++s) {
      SCOPED_TRACE("segment " + std::to_string(s));
      const CsrSegment& seg = g.segment(e, s);
      ASSERT_GE(seg.src_begin, 0);
      ASSERT_GE(static_cast<int64_t>(seg.offsets.size()), 1);
      ASSERT_LE(seg.src_end(), num_src);
      ASSERT_EQ(seg.offsets.front(), 0);
      for (size_t i = 1; i < seg.offsets.size(); ++i) {
        ASSERT_LE(seg.offsets[i - 1], seg.offsets[i]);
      }
      ASSERT_EQ(seg.offsets.back(), seg.num_edges());
      ASSERT_EQ(seg.neighbors.size(), seg.times.size());
      for (int64_t d : seg.neighbors) {
        ASSERT_GE(d, 0);
        ASSERT_LT(d, num_dst);
      }
      total += seg.num_edges();
    }
    ASSERT_EQ(total, g.num_edges(e));
    int64_t degree_sum = 0;
    for (int64_t node = 0; node < num_src; ++node) {
      degree_sum += g.Degree(e, node);
    }
    ASSERT_EQ(degree_sum, g.num_edges(e));
  }
}

void ExpectSubgraphsEqual(const Subgraph& a, const Subgraph& b) {
  ASSERT_EQ(a.frontiers.size(), b.frontiers.size());
  for (size_t f = 0; f < a.frontiers.size(); ++f) {
    SCOPED_TRACE("frontier " + std::to_string(f));
    ASSERT_EQ(a.frontiers[f].nodes, b.frontiers[f].nodes);
    ASSERT_EQ(a.frontiers[f].cutoffs, b.frontiers[f].cutoffs);
  }
  ASSERT_EQ(a.blocks.size(), b.blocks.size());
  for (size_t k = 0; k < a.blocks.size(); ++k) {
    SCOPED_TRACE("block layer " + std::to_string(k));
    ASSERT_EQ(a.blocks[k].size(), b.blocks[k].size());
    for (size_t j = 0; j < a.blocks[k].size(); ++j) {
      ASSERT_EQ(a.blocks[k][j].edge_type, b.blocks[k][j].edge_type);
      ASSERT_EQ(a.blocks[k][j].target_local, b.blocks[k][j].target_local);
      ASSERT_EQ(a.blocks[k][j].source_local, b.blocks[k][j].source_local);
    }
  }
}

/// The differential gate: the stream's current epoch vs a from-scratch
/// batch build of the SAME database under the frozen plans.
void ExpectMatchesRebuild(const Database& db, const StreamingDbGraph& stream,
                          const std::string& context) {
  auto rebuilt = BuildDbGraph(db, stream.RebuildOptions());
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().message();
  ExpectGraphsBitIdentical(*stream.graph(), rebuilt.value().graph, context);
}

// -------------------------------------------------- Database::ApplyAppend

TEST_F(StreamingTest, AppendLogRecordsAcceptedRowsInOrder) {
  Database db = MakeStreamDb();
  AppendBatch batch;
  batch.Add("users", UserRow(3, "fr", 28.0));
  batch.Add("orders", OrderRow(3, 3, 0, 9.5, 40));
  batch.Add("orders", OrderRow(4, 1, 1, 19.0, 50));

  auto outcome = db.ApplyAppend(batch);
  ASSERT_TRUE(outcome.ok()) << outcome.status().message();
  EXPECT_EQ(outcome.value().rows_applied, 3);
  EXPECT_EQ(outcome.value().rows_quarantined, 0);
  EXPECT_TRUE(outcome.value().clean());

  const auto& ranges = outcome.value().applied_ranges;
  ASSERT_EQ(ranges.size(), 2u);
  EXPECT_EQ(ranges.at("users"), (std::pair<int64_t, int64_t>{3, 4}));
  EXPECT_EQ(ranges.at("orders"), (std::pair<int64_t, int64_t>{3, 5}));

  const auto& log = db.append_log();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0].seq, 1);
  EXPECT_EQ(log[0].table, "users");
  EXPECT_EQ(log[0].row, 3);
  EXPECT_EQ(log[0].time, kNoTimestamp);
  EXPECT_EQ(log[1].seq, 2);
  EXPECT_EQ(log[1].table, "orders");
  EXPECT_EQ(log[1].row, 3);
  EXPECT_EQ(log[1].time, 40);
  EXPECT_EQ(log[2].seq, 3);
  EXPECT_EQ(db.append_seq(), 3);

  // A second batch continues the global sequence.
  AppendBatch more;
  more.Add("orders", OrderRow(5, 0, 0, 9.5, 60));
  ASSERT_TRUE(db.ApplyAppend(more).ok());
  ASSERT_EQ(db.append_log().size(), 4u);
  EXPECT_EQ(db.append_log()[3].seq, 4);
}

TEST_F(StreamingTest, StrictRejectionLeavesDatabaseUntouched) {
  Database db = MakeStreamDb();
  const int64_t users_before = db.table("users").num_rows();
  const int64_t orders_before = db.table("orders").num_rows();

  AppendBatch batch;
  batch.Add("users", UserRow(3, "fr", 28.0));       // fine on its own
  batch.Add("orders", OrderRow(2, 0, 0, 9.5, 40));  // duplicate PK 2

  auto outcome = db.ApplyAppend(batch);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(outcome.status().message().find("row 2"), std::string::npos)
      << outcome.status().message();
  EXPECT_NE(outcome.status().message().find("orders"), std::string::npos);

  // ZERO mutation: the earlier valid row did not land either.
  EXPECT_EQ(db.table("users").num_rows(), users_before);
  EXPECT_EQ(db.table("orders").num_rows(), orders_before);
  EXPECT_TRUE(db.append_log().empty());
  EXPECT_EQ(db.append_seq(), 0);
}

TEST_F(StreamingTest, UnknownTableIsHardErrorEvenInLenientMode) {
  Database db = MakeStreamDb();
  AppendBatch batch;
  batch.Add("ghosts", {Value(int64_t{1})});
  IngestOptions lenient;
  lenient.mode = IngestMode::kLenient;
  auto outcome = db.ApplyAppend(batch, lenient);
  ASSERT_FALSE(outcome.ok());
  EXPECT_NE(outcome.status().message().find("ghosts"), std::string::npos);
  EXPECT_TRUE(db.append_log().empty());
}

TEST_F(StreamingTest, LenientQuarantinesOffendersAndAppliesRest) {
  Database db = MakeStreamDb();
  IngestOptions lenient;
  lenient.mode = IngestMode::kLenient;

  AppendBatch batch;
  batch.Add("users", UserRow(3, "fr", 28.0));         // ok
  batch.Add("users", UserRow(1, "de", 33.0));         // duplicate PK
  batch.Add("orders", OrderRow(3, 99, 0, 9.5, 40));   // dangling user FK
  batch.Add("orders", OrderRow(4, 3, 1, 19.0, 50));   // FK to batch row: ok
  batch.Add("orders", {Value(int64_t{5}), Value(int64_t{0})});  // arity

  auto outcome = db.ApplyAppend(batch, lenient);
  ASSERT_TRUE(outcome.ok()) << outcome.status().message();
  EXPECT_EQ(outcome.value().rows_applied, 2);
  EXPECT_EQ(outcome.value().rows_quarantined, 3);
  EXPECT_FALSE(outcome.value().clean());
  EXPECT_EQ(outcome.value().report.TotalIssues(), 3);

  // Quarantined rows never landed; accepted ones are contiguous.
  EXPECT_EQ(db.table("users").num_rows(), 4);
  EXPECT_EQ(db.table("orders").num_rows(), 4);
  ASSERT_EQ(db.append_log().size(), 2u);
  EXPECT_EQ(db.append_log()[0].table, "users");
  EXPECT_EQ(db.append_log()[1].table, "orders");
}

TEST_F(StreamingTest, ForwardReferenceWithinBatchDangles) {
  Database db = MakeStreamDb();
  IngestOptions lenient;
  lenient.mode = IngestMode::kLenient;

  // The order references user 3, which only appears LATER in the batch —
  // the stream is an ordered log, so the FK dangles at validation time.
  AppendBatch batch;
  batch.Add("orders", OrderRow(3, 3, 0, 9.5, 40));
  batch.Add("users", UserRow(3, "fr", 28.0));

  auto outcome = db.ApplyAppend(batch, lenient);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.value().rows_applied, 1);
  EXPECT_EQ(outcome.value().rows_quarantined, 1);
  EXPECT_EQ(db.table("orders").num_rows(), 3);
  EXPECT_EQ(db.table("users").num_rows(), 4);
}

// ------------------------------------------------------- StreamingDbGraph

StreamingOptions LenientStream(int64_t compact_threshold = 8) {
  StreamingOptions o;
  o.ingest.mode = IngestMode::kLenient;
  o.build.lenient = true;
  o.compact_threshold = compact_threshold;
  return o;
}

TEST_F(StreamingTest, CreateValidatesArguments) {
  EXPECT_FALSE(StreamingDbGraph::Create(nullptr).ok());
  Database db = MakeStreamDb();
  StreamingOptions bad;
  bad.compact_threshold = 0;
  EXPECT_FALSE(StreamingDbGraph::Create(&db, bad).ok());
}

TEST_F(StreamingTest, BaseEpochMatchesBatchBuild) {
  Database db = MakeStreamDb();
  auto stream = StreamingDbGraph::Create(&db).value();
  ExpectMatchesRebuild(db, *stream, "base epoch");
  ExpectCsrInvariants(*stream->graph());
  EXPECT_EQ(stream->epochs_published(), 1);
}

TEST_F(StreamingTest, IncrementalEqualsRebuildAfterAppends) {
  Database db = MakeStreamDb();
  auto stream = StreamingDbGraph::Create(&db).value();

  AppendBatch batch;
  batch.Add("users", UserRow(3, "fr", 28.0));
  batch.Add("products", ProductRow(2, 42.0));
  batch.Add("orders", OrderRow(3, 3, 2, 42.0, 40));
  batch.Add("orders", OrderRow(4, 0, 0, 9.5, 50));

  auto result = stream->Apply(batch);
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_EQ(result.value().outcome.rows_applied, 4);
  EXPECT_FALSE(result.value().recovered);
  EXPECT_EQ(result.value().graph, stream->graph());

  // The delta names the pre-existing nodes whose adjacency changed: user 0
  // and product 0 gained reverse edges from order 4; user 3 / product 2
  // are NEW nodes, so they are not "touched".
  const GraphDelta& delta = result.value().delta;
  const auto& types = stream->table_type();
  ASSERT_EQ(delta.first_new_node.size(),
            static_cast<size_t>(stream->graph()->num_node_types()));
  EXPECT_EQ(delta.first_new_node[types.at("users")], 3);
  EXPECT_EQ(delta.first_new_node[types.at("products")], 2);
  EXPECT_EQ(delta.first_new_node[types.at("orders")], 3);
  EXPECT_EQ(delta.touched[types.at("users")], (std::vector<int64_t>{0}));
  EXPECT_EQ(delta.touched[types.at("products")], (std::vector<int64_t>{0}));
  EXPECT_TRUE(delta.touched[types.at("orders")].empty());
  EXPECT_EQ(delta.max_event_time, 50);

  ExpectMatchesRebuild(db, *stream, "after one batch");
  ExpectCsrInvariants(*stream->graph());
}

TEST_F(StreamingTest, OldEpochsAreImmutableSnapshots) {
  Database db = MakeStreamDb();
  auto stream = StreamingDbGraph::Create(&db).value();
  std::shared_ptr<const HeteroGraph> base = stream->graph();
  const int64_t base_users = base->num_nodes(0);
  const int64_t base_edges = base->TotalEdges();

  AppendBatch batch;
  batch.Add("users", UserRow(3, "fr", 28.0));
  batch.Add("orders", OrderRow(3, 3, 0, 9.5, 40));
  ASSERT_TRUE(stream->Apply(batch).ok());

  // The pinned pre-apply epoch is untouched; the new epoch grew.
  EXPECT_EQ(base->num_nodes(0), base_users);
  EXPECT_EQ(base->TotalEdges(), base_edges);
  EXPECT_NE(stream->graph(), base);
  EXPECT_GT(stream->graph()->TotalEdges(), base_edges);
  EXPECT_EQ(stream->epochs_published(), 2);
}

/// Every payload byte a graph epoch exposes: fp32 features, int8 codes
/// and scales, node times.
struct PayloadBytes {
  std::vector<float> features;
  std::vector<int8_t> codes;
  std::vector<float> scales;
  std::vector<Timestamp> times;
  bool operator==(const PayloadBytes&) const = default;
};

PayloadBytes ReadPayloads(const HeteroGraph& g) {
  PayloadBytes out;
  for (NodeTypeId t = 0; t < g.num_node_types(); ++t) {
    const Tensor& f = g.node_features(t);
    out.features.insert(out.features.end(), f.data(), f.data() + f.numel());
    const QuantizedTensor& q = g.node_qfeatures(t);
    out.codes.insert(out.codes.end(), q.data(),
                     q.data() + q.rows() * q.cols());
    out.scales.insert(out.scales.end(), q.scales(), q.scales() + q.rows());
    for (int64_t n = 0; n < g.num_nodes(t); ++n) {
      out.times.push_back(g.node_time(t, n));
    }
  }
  return out;
}

/// Appends `count` nodes to every type of the forked-append world: rows of
/// `value` for the fp32 and quantized types, times from `time`.
void AppendEverywhere(HeteroGraph* g, int64_t count, float value,
                      Timestamp time) {
  const Tensor rows = Tensor::Full(count, 3, value);
  const std::vector<Timestamp> times(static_cast<size_t>(count), time);
  ASSERT_TRUE(g->AppendNodes(0, count, rows, false, {}).ok());
  ASSERT_TRUE(g->AppendNodes(1, count, rows, false, {}).ok());
  ASSERT_TRUE(g->AppendNodes(2, count, Tensor(), true, times).ok());
}

TEST_F(StreamingTest, ForkedEpochAppendsDoNotAlias) {
  // Types: fp32 features, int8-quantized features, timed (featureless).
  HeteroGraph g;
  ASSERT_TRUE(g.AddNodeType("fp32", 4).ok());
  ASSERT_TRUE(g.AddNodeType("int8", 4).ok());
  ASSERT_TRUE(g.AddNodeType("timed", 4).ok());
  ASSERT_TRUE(g.SetNodeFeatures(0, Tensor::Full(4, 3, 1.0f)).ok());
  ASSERT_TRUE(g.SetNodeFeatures(1, Tensor::Full(4, 3, 2.0f)).ok());
  ASSERT_TRUE(g.QuantizeNodeFeatures(1).ok());
  ASSERT_TRUE(g.SetNodeTimes(2, {10, 20, 30, 40}).ok());
  // The first append outgrows the bulk-loaded payloads, leaving the
  // parent epoch's buffers with spare capacity to append into in place.
  AppendEverywhere(&g, 1, 3.0f, 50);
  if (HasFatalFailure()) return;
  const HeteroGraph parent = g;
  const PayloadBytes parent_bytes = ReadPayloads(parent);
  // Both precisions count the whole buffer (8 rows after growing from 4),
  // not the 5-row view: fp32 at 4 bytes/element, int8 codes + scales.
  EXPECT_EQ(parent.FeatureBytes(), 8 * 3 * 4 + (8 * 3 + 8 * 4));

  HeteroGraph left = parent;
  HeteroGraph right = parent;
  AppendEverywhere(&left, 2, 7.0f, 70);
  AppendEverywhere(&right, 2, -9.0f, 90);
  if (HasFatalFailure()) return;

  // The first fork claimed the parent's spare rows in place; the second
  // found them taken and copied into a buffer of its own.
  EXPECT_EQ(left.node_features(0).data(), parent.node_features(0).data());
  EXPECT_EQ(left.node_qfeatures(1).data(), parent.node_qfeatures(1).data());
  EXPECT_NE(right.node_features(0).data(), parent.node_features(0).data());
  EXPECT_NE(right.node_qfeatures(1).data(),
            parent.node_qfeatures(1).data());

  // A fork appending again grows its own lineage only.
  AppendEverywhere(&right, 1, -11.0f, 110);
  if (HasFatalFailure()) return;

  EXPECT_EQ(ReadPayloads(parent), parent_bytes);
  for (NodeTypeId t = 0; t < 3; ++t) {
    EXPECT_EQ(parent.num_nodes(t), 5);
    EXPECT_EQ(left.num_nodes(t), 7);
    EXPECT_EQ(right.num_nodes(t), 8);
  }
  for (int64_t n = 0; n < 5; ++n) {
    for (const HeteroGraph* fork : {&left, &right}) {
      EXPECT_EQ(fork->node_features(0).at(n, 0),
                parent.node_features(0).at(n, 0));
      EXPECT_EQ(fork->node_qfeatures(1).Dequant(n, 0),
                parent.node_qfeatures(1).Dequant(n, 0));
      EXPECT_EQ(fork->node_time(2, n), parent.node_time(2, n));
    }
  }
  const float q7 = QuantizedTensor::FromTensor(Tensor::Full(1, 3, 7.0f))
                       .value()
                       .Dequant(0, 0);
  const float q9 = QuantizedTensor::FromTensor(Tensor::Full(1, 3, -9.0f))
                       .value()
                       .Dequant(0, 0);
  for (int64_t n = 5; n < 7; ++n) {
    EXPECT_EQ(left.node_features(0).at(n, 2), 7.0f);
    EXPECT_EQ(right.node_features(0).at(n, 2), -9.0f);
    EXPECT_EQ(left.node_qfeatures(1).Dequant(n, 2), q7);
    EXPECT_EQ(right.node_qfeatures(1).Dequant(n, 2), q9);
    EXPECT_EQ(left.node_time(2, n), 70);
    EXPECT_EQ(right.node_time(2, n), 90);
  }
  EXPECT_EQ(right.node_features(0).at(7, 0), -11.0f);
  EXPECT_EQ(right.node_time(2, 7), 110);
}

TEST_F(StreamingTest, EmptyAndFullyQuarantinedBatchesKeepEpoch) {
  Database db = MakeStreamDb();
  auto stream = StreamingDbGraph::Create(&db, LenientStream()).value();
  std::shared_ptr<const HeteroGraph> epoch = stream->graph();

  auto empty = stream->Apply(AppendBatch{});
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty.value().outcome.rows_applied, 0);
  EXPECT_EQ(stream->graph(), epoch);

  AppendBatch junk;
  junk.Add("orders", OrderRow(2, 0, 0, 9.5, 40));  // duplicate PK
  auto quarantined = stream->Apply(junk);
  ASSERT_TRUE(quarantined.ok());
  EXPECT_EQ(quarantined.value().outcome.rows_applied, 0);
  EXPECT_EQ(quarantined.value().outcome.rows_quarantined, 1);
  EXPECT_EQ(stream->graph(), epoch);  // no new epoch published
  EXPECT_EQ(stream->epochs_published(), 1);
}

TEST_F(StreamingTest, BatchSplitInvariance) {
  // The same appends pushed as one batch vs row-at-a-time produce
  // bit-identical graphs: batching is an efficiency choice, not semantics.
  std::vector<RowAppend> rows;
  rows.push_back({"users", UserRow(3, "fr", 28.0)});
  rows.push_back({"products", ProductRow(2, 42.0)});
  rows.push_back({"orders", OrderRow(3, 3, 2, 42.0, 40)});
  rows.push_back({"orders", OrderRow(4, 1, 0, 9.5, 50)});
  rows.push_back({"users", UserRow(4, "de", 61.0)});
  rows.push_back({"orders", OrderRow(5, 4, 2, 42.0, 60)});

  Database db_one = MakeStreamDb();
  auto one = StreamingDbGraph::Create(&db_one).value();
  AppendBatch all;
  all.rows = rows;
  ASSERT_TRUE(one->Apply(all).ok());

  Database db_many = MakeStreamDb();
  auto many = StreamingDbGraph::Create(&db_many).value();
  for (const auto& row : rows) {
    AppendBatch single;
    single.rows = {row};
    ASSERT_TRUE(many->Apply(single).ok());
  }

  ExpectGraphsBitIdentical(*one->graph(), *many->graph(),
                           "one batch vs row-at-a-time");
  // Layouts differ (segment counts), contents do not.
  ExpectCsrInvariants(*one->graph());
  ExpectCsrInvariants(*many->graph());
}

/// Sampler output over every user of the stream's epoch equals sampling
/// the from-scratch rebuild (segment layout must never show).
void ExpectSamplerMatchesRebuild(const Database& db,
                                 const StreamingDbGraph& stream,
                                 Timestamp cutoff) {
  auto rebuilt = BuildDbGraph(db, stream.RebuildOptions()).value();
  const NodeTypeId users = stream.table_type().at("users");
  std::vector<int64_t> seeds;
  for (int64_t u = 0; u < stream.graph()->num_nodes(users); ++u) {
    seeds.push_back(u);
  }
  std::vector<Timestamp> cutoffs(seeds.size(), cutoff);
  SamplerOptions opts;
  opts.fanouts = {3, 2};
  opts.policy = SamplePolicy::kMostRecent;
  NeighborSampler inc(stream.graph().get(), opts);
  NeighborSampler batch(&rebuilt.graph, opts);
  Rng rng_a(7), rng_b(7);
  ExpectSubgraphsEqual(inc.Sample(users, seeds, cutoffs, &rng_a),
                       batch.Sample(users, seeds, cutoffs, &rng_b));
}

/// Counts the two compaction tiers across one apply: a fold rewrote the
/// shared base segment, a tail merge kept it and stopped the segment count
/// from growing although edges were appended.
void CountCompactionTiers(const HeteroGraph& before, const HeteroGraph& after,
                          int64_t* folds, int64_t* tail_merges) {
  for (EdgeTypeId e = 0; e < after.num_edge_types(); ++e) {
    if (after.num_edges(e) == before.num_edges(e)) continue;
    if (&after.segment(e, 0) != &before.segment(e, 0)) {
      ++*folds;
    } else if (after.num_segments(e) <= before.num_segments(e)) {
      ++*tail_merges;
    }
  }
}

TEST_F(StreamingTest, CompactionPreservesBitEquality) {
  // The three-order base is small, so single-order tails outgrow it within
  // a few appends: both tiers (tail merge, then fold into the base) run.
  Database db = MakeStreamDb();
  constexpr int64_t kThreshold = 2;
  auto stream =
      StreamingDbGraph::Create(&db, LenientStream(kThreshold)).value();

  int64_t compactions = 0, folds = 0, tail_merges = 0;
  for (int64_t i = 0; i < 12; ++i) {
    std::shared_ptr<const HeteroGraph> before = stream->graph();
    AppendBatch batch;
    batch.Add("orders",
              OrderRow(3 + i, i % 3, i % 2, 9.5, 40 + 10 * i));
    auto result = stream->Apply(batch);
    ASSERT_TRUE(result.ok());
    compactions += result.value().compacted_edge_types;
    CountCompactionTiers(*before, *stream->graph(), &folds, &tail_merges);
    const HeteroGraph& g = *stream->graph();
    for (EdgeTypeId e = 0; e < g.num_edge_types(); ++e) {
      ASSERT_LE(g.num_segments(e), kThreshold) << g.edge_type_name(e);
    }
    ExpectMatchesRebuild(db, *stream,
                         "after append " + std::to_string(i));
    ExpectCsrInvariants(g);
    ExpectSamplerMatchesRebuild(db, *stream, 1000);
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(compactions, 0);
  EXPECT_GT(tail_merges, 0);
  EXPECT_GT(folds, 0);
}

TEST_F(StreamingTest, SamplerOutputMatchesRebuild) {
  Database db = MakeStreamDb();
  // High threshold: keep the incremental graph genuinely multi-segment so
  // the sampler's segment iteration is what's under test.
  StreamingOptions opts_stream;
  opts_stream.compact_threshold = 64;
  auto stream = StreamingDbGraph::Create(&db, opts_stream).value();

  // Grow the graph so multi-segment adjacency is actually exercised.
  for (int64_t i = 0; i < 8; ++i) {
    AppendBatch batch;
    batch.Add("users", UserRow(3 + i, i % 2 ? "be" : "fr", 20.0 + i));
    batch.Add("orders", OrderRow(3 + 2 * i, 3 + i, i % 2, 9.5, 40 + 5 * i));
    batch.Add("orders",
              OrderRow(4 + 2 * i, i % 3, i % 2, 19.0, 42 + 5 * i));
    ASSERT_TRUE(stream->Apply(batch).ok());
  }
  auto rebuilt = BuildDbGraph(db, stream->RebuildOptions()).value();
  ASSERT_GT(stream->graph()->num_segments(0), 1);  // segmented vs
  ASSERT_EQ(rebuilt.graph.num_segments(0), 1);     // single-segment oracle

  const NodeTypeId users = stream->table_type().at("users");
  std::vector<int64_t> seeds;
  for (int64_t u = 0; u < stream->graph()->num_nodes(users); ++u) {
    seeds.push_back(u);
  }
  const Timestamp cutoff = 1000;
  std::vector<Timestamp> cutoffs(seeds.size(), cutoff);

  for (SamplePolicy policy :
       {SamplePolicy::kUniform, SamplePolicy::kMostRecent}) {
    SCOPED_TRACE(policy == SamplePolicy::kUniform ? "uniform"
                                                  : "most-recent");
    SamplerOptions opts;
    opts.fanouts = {3, 2};
    opts.policy = policy;
    NeighborSampler inc(stream->graph().get(), opts);
    NeighborSampler batch(&rebuilt.graph, opts);
    Rng rng_a(7), rng_b(7);
    Subgraph sg_a = inc.Sample(users, seeds, cutoffs, &rng_a);
    Subgraph sg_b = batch.Sample(users, seeds, cutoffs, &rng_b);
    ExpectSubgraphsEqual(sg_a, sg_b);
  }
}

// ------------------------------------------------------------ fault paths

TEST_F(StreamingTest, AppendApplyFaultTriggersRecoveryRebuild) {
  Database db = MakeStreamDb();
  auto stream = StreamingDbGraph::Create(&db).value();
  FaultInjector::Global().Arm(FaultSite::kAppendApply);

  AppendBatch batch;
  batch.Add("users", UserRow(3, "fr", 28.0));
  batch.Add("orders", OrderRow(3, 3, 0, 9.5, 40));
  auto result = stream->Apply(batch);
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_TRUE(result.value().recovered);
  EXPECT_EQ(FaultInjector::Global().fired(FaultSite::kAppendApply), 1);

  // The database accepted the rows, so recovery must deliver the grown
  // graph — bit-identical to the oracle, just rebuilt instead of folded.
  EXPECT_EQ(result.value().outcome.rows_applied, 2);
  ExpectMatchesRebuild(db, *stream, "recovered epoch");
  ExpectCsrInvariants(*stream->graph());

  // The delta is still usable by the serving layer after recovery.
  EXPECT_EQ(result.value().delta.first_new_node[
                stream->table_type().at("users")],
            3);

  FaultInjector::Global().Reset();
  AppendBatch more;
  more.Add("orders", OrderRow(4, 0, 0, 9.5, 50));
  auto next = stream->Apply(more);
  ASSERT_TRUE(next.ok());
  EXPECT_FALSE(next.value().recovered);
  ExpectMatchesRebuild(db, *stream, "epoch after recovery");
}

TEST_F(StreamingTest, CompactFaultDefersCompactionHarmlessly) {
  // Threshold 1 always folds into the base. Threshold 2 over a base of 13
  // orders catches up with a tail-only merge: the deferred tails hold
  // fewer edges than the base.
  for (const int64_t threshold : {1, 2}) {
    SCOPED_TRACE("threshold " + std::to_string(threshold));
    FaultInjector::Global().Reset();
    Database db = MakeStreamDb();
    if (threshold == 2) {
      Table* orders = db.FindMutableTable("orders");
      for (int64_t i = 0; i < 10; ++i) {
        ASSERT_TRUE(
            orders->AppendRow(OrderRow(100 + i, i % 3, i % 2, 9.5, 31 + i))
                .ok());
      }
    }
    auto stream =
        StreamingDbGraph::Create(&db, LenientStream(threshold)).value();
    FaultInjector::Global().Arm(FaultSite::kCompact, /*skip=*/0,
                                /*times=*/-1);

    for (int64_t i = 0; i < 4; ++i) {
      AppendBatch batch;
      batch.Add("orders", OrderRow(3 + i, i % 3, i % 2, 9.5, 50 + 10 * i));
      auto result = stream->Apply(batch);
      ASSERT_TRUE(result.ok());
      EXPECT_EQ(result.value().compacted_edge_types, 0);
      EXPECT_FALSE(result.value().recovered);  // compaction is non-fatal
      ExpectMatchesRebuild(db, *stream,
                           "deferred compaction " + std::to_string(i));
    }
    EXPECT_GT(FaultInjector::Global().fired(FaultSite::kCompact), 0);
    EXPECT_GT(stream->graph()->num_segments(0), threshold);

    // Once the fault clears, the next apply catches up on compaction and
    // equality still holds.
    FaultInjector::Global().Reset();
    std::shared_ptr<const HeteroGraph> before = stream->graph();
    AppendBatch batch;
    batch.Add("orders", OrderRow(7, 0, 0, 9.5, 90));
    auto result = stream->Apply(batch);
    ASSERT_TRUE(result.ok());
    EXPECT_GT(result.value().compacted_edge_types, 0);
    int64_t folds = 0, tail_merges = 0;
    CountCompactionTiers(*before, *stream->graph(), &folds, &tail_merges);
    EXPECT_GT(threshold == 1 ? folds : tail_merges, 0);
    for (EdgeTypeId e = 0; e < stream->graph()->num_edge_types(); ++e) {
      EXPECT_LE(stream->graph()->num_segments(e), threshold);
    }
    ExpectMatchesRebuild(db, *stream, "post-fault compaction");
    ExpectCsrInvariants(*stream->graph());
  }
}

// -------------------------------------------------------- schedule fuzzer

/// Random schedule state: live PKs per table plus a monotone order clock.
struct FuzzState {
  int64_t next_user = 3;
  int64_t next_product = 2;
  int64_t next_order = 3;
  Timestamp clock = 30;
  std::vector<int64_t> users{0, 1, 2};
  std::vector<int64_t> products{0, 1};
};

/// One random row; ~12% of draws are deliberately invalid (dangling FK,
/// duplicate PK, arity error, null PK) to exercise quarantine alongside
/// growth. Returns whether the row should be accepted.
bool RandomRow(Rng* rng, FuzzState* st, AppendBatch* batch,
               std::vector<int64_t>* batch_users) {
  const double roll = rng->Uniform();
  if (roll < 0.03) {  // dangling order FK
    batch->Add("orders", OrderRow(st->next_order++, 100000, 0, 1.0,
                                  st->clock += rng->UniformInt(0, 3)));
    return false;
  }
  if (roll < 0.06) {  // duplicate user PK
    batch->Add("users", UserRow(st->users[rng->UniformInt(
                                    0, static_cast<int64_t>(
                                           st->users.size()) - 1)],
                                "dup", 1.0));
    return false;
  }
  if (roll < 0.09) {  // arity error
    batch->Add("orders", {Value(st->next_order++), Value(int64_t{0})});
    return false;
  }
  if (roll < 0.12) {  // null PK
    batch->Add("users", {Value::Null(), Value("null"), Value(1.0)});
    return false;
  }
  if (roll < 0.32) {  // new user, sometimes an out-of-vocab country
    const char* countries[] = {"be", "nl", "fr", "zz", "xx"};
    const int64_t id = st->next_user++;
    batch->Add("users",
               UserRow(id, countries[rng->UniformInt(0, 4)],
                       20.0 + static_cast<double>(rng->UniformInt(0, 50))));
    batch_users->push_back(id);
    return true;
  }
  if (roll < 0.44) {  // new product
    const int64_t id = st->next_product++;
    batch->Add("products",
               ProductRow(id, 5.0 + static_cast<double>(
                                        rng->UniformInt(0, 100))));
    st->products.push_back(id);
    return true;
  }
  // New order; may reference a user introduced earlier in this batch.
  int64_t user;
  if (!batch_users->empty() && rng->Bernoulli(0.3)) {
    user = (*batch_users)[rng->UniformInt(
        0, static_cast<int64_t>(batch_users->size()) - 1)];
  } else {
    user = st->users[rng->UniformInt(
        0, static_cast<int64_t>(st->users.size()) - 1)];
  }
  const int64_t product = st->products[rng->UniformInt(
      0, static_cast<int64_t>(st->products.size()) - 1)];
  batch->Add("orders",
             OrderRow(st->next_order++, user, product,
                      static_cast<double>(rng->UniformInt(1, 100)),
                      st->clock += rng->UniformInt(0, 3)));
  return true;
}

TEST_F(StreamingTest, FuzzedSchedulesMatchRebuildBitForBit) {
  // ~1k random operations per seed across random batch sizes, with a
  // compaction-prone threshold, verifying the differential gate and the
  // CSR invariants at every checkpoint and sampler equality at the end.
  for (uint64_t seed : {11u, 22u, 33u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    Database db = MakeStreamDb();
    constexpr int64_t kThreshold = 3;
    auto stream =
        StreamingDbGraph::Create(&db, LenientStream(kThreshold)).value();
    FuzzState st;

    int64_t ops = 0, applied = 0, quarantined = 0;
    int64_t folds = 0, tail_merges = 0;
    for (int64_t step = 0; step < 120; ++step) {
      AppendBatch batch;
      std::vector<int64_t> batch_users;
      const int64_t batch_size = rng.UniformInt(1, 8);
      for (int64_t i = 0; i < batch_size; ++i) {
        RandomRow(&rng, &st, &batch, &batch_users);
        ++ops;
      }
      std::shared_ptr<const HeteroGraph> before = stream->graph();
      auto result = stream->Apply(batch);
      ASSERT_TRUE(result.ok()) << result.status().message();
      applied += result.value().outcome.rows_applied;
      quarantined += result.value().outcome.rows_quarantined;
      CountCompactionTiers(*before, *stream->graph(), &folds, &tail_merges);
      for (EdgeTypeId e = 0; e < stream->graph()->num_edge_types(); ++e) {
        ASSERT_LE(stream->graph()->num_segments(e), kThreshold);
      }
      // Users accepted this batch become referenceable next batch.
      for (int64_t u : batch_users) st.users.push_back(u);

      if (step % 20 == 19) {
        ExpectCsrInvariants(*stream->graph());
        ExpectMatchesRebuild(db, *stream,
                             "step " + std::to_string(step));
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
    ASSERT_GE(ops, 500);
    EXPECT_GT(applied, 0);
    EXPECT_GT(quarantined, 0);  // invalid draws actually occurred
    EXPECT_GT(tail_merges, 0);  // both compaction tiers ran
    EXPECT_GT(folds, 0);
    ExpectCsrInvariants(*stream->graph());
    ExpectMatchesRebuild(db, *stream, "final");

    // Sampler differential at the fuzzed endpoint.
    auto rebuilt = BuildDbGraph(db, stream->RebuildOptions()).value();
    const NodeTypeId users = stream->table_type().at("users");
    std::vector<int64_t> seeds_v;
    for (int64_t u = 0; u < stream->graph()->num_nodes(users); u += 3) {
      seeds_v.push_back(u);
    }
    std::vector<Timestamp> cutoffs(seeds_v.size(), st.clock + 1);
    SamplerOptions opts;
    opts.fanouts = {4, 3};
    opts.policy = SamplePolicy::kMostRecent;
    NeighborSampler inc(stream->graph().get(), opts);
    NeighborSampler batch_s(&rebuilt.graph, opts);
    Rng ra(99), rb(99);
    ExpectSubgraphsEqual(inc.Sample(users, seeds_v, cutoffs, &ra),
                         batch_s.Sample(users, seeds_v, cutoffs, &rb));
  }
}

TEST_F(StreamingTest, FuzzWithChaosFaultsStillMatchesRebuild) {
  // Seeded probabilistic faults at both streaming sites while the fuzzer
  // runs: every recovery must land on the same bit-identical state.
  Rng rng(77);
  Database db = MakeStreamDb();
  auto stream = StreamingDbGraph::Create(&db, LenientStream(3)).value();
  FaultInjector::Global().ArmProbability(FaultSite::kAppendApply, 0.15, 5);
  FaultInjector::Global().ArmProbability(FaultSite::kCompact, 0.3, 6);

  FuzzState st;
  int64_t recoveries = 0;
  for (int64_t step = 0; step < 60; ++step) {
    AppendBatch batch;
    std::vector<int64_t> batch_users;
    const int64_t batch_size = rng.UniformInt(1, 6);
    for (int64_t i = 0; i < batch_size; ++i) {
      RandomRow(&rng, &st, &batch, &batch_users);
    }
    auto result = stream->Apply(batch);
    ASSERT_TRUE(result.ok()) << result.status().message();
    recoveries += result.value().recovered ? 1 : 0;
    for (int64_t u : batch_users) st.users.push_back(u);

    if (step % 15 == 14) {
      ExpectMatchesRebuild(db, *stream, "chaos step " + std::to_string(step));
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  EXPECT_GT(recoveries, 0);
  EXPECT_GT(FaultInjector::Global().fired(FaultSite::kAppendApply), 0);
  FaultInjector::Global().Reset();
  ExpectMatchesRebuild(db, *stream, "chaos final");
  ExpectCsrInvariants(*stream->graph());
}

}  // namespace
}  // namespace relgraph
