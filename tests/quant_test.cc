// Tests of the low-precision stack (src/tensor/quantized.*, the quantized
// microkernels, and their integration points): quantization edge cases
// (all-zero rows, single-element rows, non-finite rejection, int8
// saturation), bit-identical results across thread counts, quantized
// node-feature storage on HeteroGraph / the graph builder, the
// EncodedEmbedding cache codec, per-dtype byte accounting, and the
// serving-side precision modes (ServeOptions / ServePlan /
// RELGRAPH_PRECISION).

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/buffer_pool.h"
#include "core/parallel.h"
#include "datagen/ecommerce.h"
#include "db2graph/graph_builder.h"
#include "pq/engine.h"
#include "pq/label_builder.h"
#include "pq/parser.h"
#include "serve/inference_engine.h"
#include "tensor/quantized.h"
#include "tensor/serialize.h"
#include "tensor/simd_kernels.h"
#include "train/trainer.h"

namespace relgraph {
namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kNan = std::numeric_limits<float>::quiet_NaN();

/// Deterministic pseudo-random fill in [-range, range] (no <random> so the
/// values are identical on every platform/stdlib).
Tensor FillTensor(int64_t rows, int64_t cols, float range,
                  uint64_t seed = 7) {
  Tensor t(rows, cols);
  uint64_t s = seed;
  for (int64_t i = 0; i < t.numel(); ++i) {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    const float u =
        static_cast<float>((s >> 33) & 0xFFFFFF) / 16777215.0f;  // [0,1]
    t.data()[i] = (2.0f * u - 1.0f) * range;
  }
  return t;
}

// ------------------------------------------------------ kernel edge cases

TEST(QuantizeRowTest, AllZeroRowGetsZeroScaleAndCodes) {
  const std::vector<float> x(16, 0.0f);
  std::vector<int8_t> q(16, 99);
  float scale = -1.0f;
  kern::QuantizeRowRef(x.data(), 16, q.data(), &scale);
  EXPECT_EQ(scale, 0.0f);
  for (int8_t c : q) EXPECT_EQ(c, 0);
}

TEST(QuantizeRowTest, SingleElementRowMapsToFullScale) {
  float x = -3.25f;
  int8_t q = 0;
  float scale = 0.0f;
  kern::QuantizeRowRef(&x, 1, &q, &scale);
  EXPECT_EQ(q, -127);
  EXPECT_FLOAT_EQ(scale, 3.25f / 127.0f);
  EXPECT_FLOAT_EQ(scale * static_cast<float>(q), -3.25f);
}

TEST(QuantizeRowTest, SaturatesAtExtremesAndNeverEmitsMinus128) {
  // The row max maps to exactly +/-127; symmetric quantization never
  // produces -128, so negation of any code is representable.
  std::vector<float> x = {127.0f, -127.0f, 126.4f, -126.6f, 0.4f, -0.4f};
  std::vector<int8_t> q(x.size());
  float scale = 0.0f;
  kern::QuantizeRowRef(x.data(), static_cast<int64_t>(x.size()), q.data(),
                       &scale);
  EXPECT_FLOAT_EQ(scale, 1.0f);
  EXPECT_EQ(q[0], 127);
  EXPECT_EQ(q[1], -127);
  EXPECT_EQ(q[2], 126);  // round-to-nearest-even
  EXPECT_EQ(q[3], -127);
  EXPECT_EQ(q[4], 0);
  EXPECT_EQ(q[5], 0);
  for (int8_t c : q) EXPECT_GE(c, -127);
}

TEST(QuantizeRowTest, RoundTripErrorBoundedByHalfScale) {
  Tensor t = FillTensor(1, 257, 12.5f);
  std::vector<int8_t> q(257);
  float scale = 0.0f;
  kern::QuantizeRowRef(t.data(), 257, q.data(), &scale);
  ASSERT_GT(scale, 0.0f);
  for (int64_t c = 0; c < 257; ++c) {
    const float deq = scale * static_cast<float>(q[c]);
    EXPECT_LE(std::fabs(deq - t.data()[c]), 0.5f * scale + 1e-6f)
        << "col " << c;
  }
}

TEST(Bf16Test, RoundTripIsOneRneRounding) {
  // Exactly representable values survive unchanged.
  for (float v : {0.0f, 1.0f, -2.0f, 0.5f, 256.0f, -0.015625f}) {
    EXPECT_EQ(kern::F32FromBf16(kern::Bf16FromF32(v)), v);
  }
  // 1 + 2^-8 is exactly halfway between bf16 neighbors 1.0 and 1+2^-7;
  // round-to-nearest-EVEN picks 1.0 (even significand).
  EXPECT_EQ(kern::F32FromBf16(kern::Bf16FromF32(1.00390625f)), 1.0f);
  // NaN stays NaN (quieted), infinities stay infinite.
  EXPECT_TRUE(std::isnan(kern::F32FromBf16(kern::Bf16FromF32(kNan))));
  EXPECT_EQ(kern::F32FromBf16(kern::Bf16FromF32(kInf)), kInf);
  EXPECT_EQ(kern::F32FromBf16(kern::Bf16FromF32(-kInf)), -kInf);
}

// --------------------------------------------------------- QuantizedTensor

TEST(QuantizedTensorTest, FromTensorRejectsNonFiniteNamingRowAndColumn) {
  Tensor t = FillTensor(4, 5, 1.0f);
  t.at(2, 3) = kNan;
  auto q = QuantizedTensor::FromTensor(t);
  ASSERT_FALSE(q.ok());
  EXPECT_NE(std::string(q.status().message()).find("row 2"),
            std::string::npos)
      << q.status().message();
  EXPECT_NE(std::string(q.status().message()).find("col 3"),
            std::string::npos)
      << q.status().message();

  t.at(2, 3) = -kInf;
  EXPECT_FALSE(QuantizedTensor::FromTensor(t).ok());
}

TEST(QuantizedTensorTest, DequantMatchesScalarContractEverywhere) {
  Tensor t = FillTensor(9, 33, 40.0f);
  // A mixed bag of edge rows: all zero, single dominant spike, tiny.
  for (int64_t c = 0; c < 33; ++c) t.at(4, c) = 0.0f;
  t.at(5, 17) = 1000.0f;
  auto q = QuantizedTensor::FromTensor(t);
  ASSERT_TRUE(q.ok());
  Tensor deq = q.value().Dequantize();
  for (int64_t r = 0; r < 9; ++r) {
    for (int64_t c = 0; c < 33; ++c) {
      EXPECT_EQ(deq.at(r, c), q.value().Dequant(r, c));
      EXPECT_EQ(deq.at(r, c),
                q.value().scale(r) *
                    static_cast<float>(q.value().code(r, c)));
    }
  }
  EXPECT_EQ(q.value().scale(4), 0.0f);
  EXPECT_EQ(q.value().code(5, 17), 127);
}

TEST(QuantizedTensorTest, QuantizationIsThreadCountInvariant) {
  // 600 rows: large enough that FromTensor's ParallelFor actually splits.
  Tensor t = FillTensor(600, 24, 8.0f);
  std::vector<std::vector<int8_t>> codes;
  std::vector<std::vector<float>> scales;
  for (int threads : {1, 2, 8}) {
    ThreadPool::SetNumThreadsForTesting(threads);
    auto q = QuantizedTensor::FromTensor(t);
    ASSERT_TRUE(q.ok());
    codes.emplace_back(q.value().data(),
                       q.value().data() + t.numel());
    scales.emplace_back(q.value().scales(), q.value().scales() + 600);
  }
  ThreadPool::SetNumThreadsForTesting(1);
  for (size_t i = 1; i < codes.size(); ++i) {
    EXPECT_EQ(codes[i], codes[0]);
    EXPECT_EQ(scales[i], scales[0]);
  }
}

TEST(QuantizedTensorTest, WriteRowsAndRowViewsMatchFromScratch) {
  // Rows quantize independently, so quantizing a table in two blocks and
  // writing both into one buffer gives the codes of quantizing it whole —
  // what HeteroGraph::AppendNodes relies on.
  Tensor head = FillTensor(13, 7, 5.0f, 11);
  Tensor tail = FillTensor(6, 7, 5.0f, 13);
  Tensor both(19, 7);
  for (int64_t r = 0; r < 13; ++r) {
    for (int64_t c = 0; c < 7; ++c) both.at(r, c) = head.at(r, c);
  }
  for (int64_t r = 0; r < 6; ++r) {
    for (int64_t c = 0; c < 7; ++c) both.at(13 + r, c) = tail.at(r, c);
  }

  QuantizedTensor grown = QuantizedTensor::Zeros(19, 7);
  grown.WriteRows(0, QuantizedTensor::FromTensor(head).value());
  grown.WriteRows(13, QuantizedTensor::FromTensor(tail).value());
  auto scratch = QuantizedTensor::FromTensor(both);
  ASSERT_TRUE(scratch.ok());
  const QuantizedTensor tail_view = QuantizedTensor::RowView(grown, 13, 6);

  ASSERT_EQ(grown.rows(), 19);
  ASSERT_EQ(tail_view.rows(), 6);
  for (int64_t r = 0; r < 19; ++r) {
    EXPECT_EQ(grown.scale(r), scratch.value().scale(r)) << "row " << r;
    for (int64_t c = 0; c < 7; ++c) {
      EXPECT_EQ(grown.code(r, c), scratch.value().code(r, c));
      if (r >= 13) EXPECT_EQ(tail_view.code(r - 13, c), grown.code(r, c));
    }
  }
  EXPECT_EQ(tail_view.data(), grown.data() + 13 * 7);  // no copy
}

TEST(QuantizedTensorTest, StorageIsAtMost035xOfFp32) {
  // (n + 4) / 4n <= 0.35 for n >= 10; the serving embedding/feature dims
  // (16..256) sit comfortably below the acceptance bound.
  for (int64_t n : {16, 64, 256}) {
    Tensor t = FillTensor(100, n, 3.0f);
    auto q = QuantizedTensor::FromTensor(t);
    ASSERT_TRUE(q.ok());
    const double fp32_bytes =
        static_cast<double>(t.numel()) * sizeof(float);
    EXPECT_LE(static_cast<double>(q.value().bytes()), 0.35 * fp32_bytes)
        << "n=" << n;
  }
}

TEST(QuantizedTensorTest, BytesAreAccountedWhileResident) {
  auto& reg = QuantBytesRegistry::Global();
  const int64_t before = reg.resident(QuantDtype::kInt8);
  {
    auto q = QuantizedTensor::FromTensor(FillTensor(32, 16, 2.0f));
    ASSERT_TRUE(q.ok());
    EXPECT_EQ(reg.resident(QuantDtype::kInt8),
              before + q.value().bytes());
    QuantizedTensor copy = QuantizedTensor::Zeros(32, 16);
    EXPECT_EQ(reg.resident(QuantDtype::kInt8),
              before + 2 * q.value().bytes());
    // A view owns nothing, so it accounts nothing.
    const QuantizedTensor view = QuantizedTensor::RowView(copy, 0, 32);
    EXPECT_EQ(reg.resident(QuantDtype::kInt8),
              before + 2 * q.value().bytes());
  }
  EXPECT_EQ(reg.resident(QuantDtype::kInt8), before);

  const int64_t bf16_before = reg.resident(QuantDtype::kBf16);
  {
    Bf16Matrix m = Bf16FromTensor(FillTensor(8, 10, 2.0f));
    EXPECT_EQ(reg.resident(QuantDtype::kBf16), bf16_before + m.bytes());
  }
  EXPECT_EQ(reg.resident(QuantDtype::kBf16), bf16_before);
}

// ------------------------------------------------------------ int8 GEMM

/// Scalar reference: quantize both sides per the symmetric contract,
/// accumulate in int64 (trivially exact), dequantize once.
Tensor ReferenceInt8MatMul(const Tensor& a, const Tensor& b) {
  const int64_t m = a.rows(), k = a.cols(), n = b.cols();
  std::vector<int8_t> qa(static_cast<size_t>(m * k));
  std::vector<float> sa(static_cast<size_t>(m));
  for (int64_t i = 0; i < m; ++i) {
    kern::QuantizeRowRef(a.data() + i * k, k, qa.data() + i * k, &sa[i]);
  }
  // Per-column quantization of B == per-row quantization of B^T.
  Tensor bt(n, k);
  for (int64_t p = 0; p < k; ++p) {
    for (int64_t j = 0; j < n; ++j) bt.at(j, p) = b.at(p, j);
  }
  std::vector<int8_t> qb(static_cast<size_t>(n * k));
  std::vector<float> sb(static_cast<size_t>(n));
  for (int64_t j = 0; j < n; ++j) {
    kern::QuantizeRowRef(bt.data() + j * k, k, qb.data() + j * k, &sb[j]);
  }
  Tensor out(m, n);
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      int64_t acc = 0;
      for (int64_t p = 0; p < k; ++p) {
        acc += static_cast<int64_t>(qa[i * k + p]) *
               static_cast<int64_t>(qb[j * k + p]);
      }
      out.at(i, j) = (sa[i] * sb[j]) * static_cast<float>(acc);
    }
  }
  return out;
}

TEST(Int8GemmTest, MatchesExactIntegerReferenceAtOddShapes) {
  // Shapes straddling the panel width and vector width (n % 8, 16 != 0),
  // including k odd (the packer pads k to even).
  struct Shape { int64_t m, k, n; };
  for (const Shape& s : std::vector<Shape>{
           {1, 1, 1}, {3, 5, 7}, {4, 16, 17}, {7, 33, 31}, {16, 64, 100}}) {
    Tensor a = FillTensor(s.m, s.k, 4.0f, 17);
    Tensor b = FillTensor(s.k, s.n, 2.0f, 19);
    auto packed = PackForMatMulInt8(b);
    ASSERT_TRUE(packed.ok());
    Tensor got = MatMulInt8(a, packed.value());
    Tensor want = ReferenceInt8MatMul(a, b);
    for (int64_t i = 0; i < s.m; ++i) {
      for (int64_t j = 0; j < s.n; ++j) {
        EXPECT_EQ(got.at(i, j), want.at(i, j))
            << s.m << "x" << s.k << "x" << s.n << " at (" << i << ","
            << j << ")";
      }
    }
  }
}

TEST(Int8GemmTest, BitIdenticalAcrossThreadCounts) {
  // Big enough to clear the parallel-dispatch threshold.
  Tensor a = FillTensor(96, 48, 3.0f, 23);
  Tensor b = FillTensor(48, 40, 3.0f, 29);
  auto packed = PackForMatMulInt8(b);
  ASSERT_TRUE(packed.ok());
  std::vector<Tensor> results;
  for (int threads : {1, 2, 8}) {
    ThreadPool::SetNumThreadsForTesting(threads);
    results.push_back(MatMulInt8(a, packed.value()));
  }
  ThreadPool::SetNumThreadsForTesting(1);
  for (size_t i = 1; i < results.size(); ++i) {
    for (int64_t p = 0; p < results[0].numel(); ++p) {
      ASSERT_EQ(results[i].data()[p], results[0].data()[p]) << "elt " << p;
    }
  }
}

TEST(Int8GemmTest, PackRejectsNonFinite) {
  Tensor b = FillTensor(6, 6, 1.0f);
  b.at(5, 2) = kNan;
  auto packed = PackForMatMulInt8(b);
  ASSERT_FALSE(packed.ok());
  EXPECT_NE(std::string(packed.status().message()).find("col 2"),
            std::string::npos)
      << packed.status().message();
}

TEST(Bf16GemmTest, MatchesFp32GemmOnExpandedWeights) {
  // Bf16GemmRowChunk follows the fp32 ascending-p contract after exact
  // expansion, so it is bitwise MatMul(a, expand(b)) at any shape.
  for (int64_t n : {1, 7, 17, 40}) {
    Tensor a = FillTensor(9, 21, 2.0f, 31);
    Tensor b = FillTensor(21, n, 2.0f, 37);
    Bf16Matrix b16 = Bf16FromTensor(b);
    Tensor got = MatMulBf16(a, b16);
    Tensor want = MatMul(a, TensorFromBf16(b16));
    for (int64_t p = 0; p < got.numel(); ++p) {
      ASSERT_EQ(got.data()[p], want.data()[p]) << "n=" << n << " elt " << p;
    }
  }
}

TEST(Bf16GemmTest, BitIdenticalAcrossThreadCounts) {
  Tensor a = FillTensor(96, 48, 3.0f, 41);
  Bf16Matrix b16 = Bf16FromTensor(FillTensor(48, 40, 3.0f, 43));
  std::vector<Tensor> results;
  for (int threads : {1, 2, 8}) {
    ThreadPool::SetNumThreadsForTesting(threads);
    results.push_back(MatMulBf16(a, b16));
  }
  ThreadPool::SetNumThreadsForTesting(1);
  for (size_t i = 1; i < results.size(); ++i) {
    for (int64_t p = 0; p < results[0].numel(); ++p) {
      ASSERT_EQ(results[i].data()[p], results[0].data()[p]) << "elt " << p;
    }
  }
}

// ----------------------------------------------------- EncodedEmbedding

TEST(EncodedEmbeddingTest, Fp32IsLosslessBf16AndInt8MatchTheirCodecs) {
  Tensor row = FillTensor(1, 24, 6.0f, 47);
  std::vector<float> dst(24);

  EncodedEmbedding f = EncodedEmbedding::Encode(row.data(), 24,
                                                Precision::kFp32);
  f.Decode(dst.data());
  for (int64_t c = 0; c < 24; ++c) EXPECT_EQ(dst[c], row.data()[c]);
  EXPECT_EQ(f.bytes(), 24 * static_cast<int64_t>(sizeof(float)));

  EncodedEmbedding h = EncodedEmbedding::Encode(row.data(), 24,
                                                Precision::kBf16);
  h.Decode(dst.data());
  for (int64_t c = 0; c < 24; ++c) {
    EXPECT_EQ(dst[c],
              kern::F32FromBf16(kern::Bf16FromF32(row.data()[c])));
  }
  EXPECT_EQ(h.bytes(), 24 * 2);

  EncodedEmbedding q = EncodedEmbedding::Encode(row.data(), 24,
                                                Precision::kInt8);
  q.Decode(dst.data());
  std::vector<int8_t> codes(24);
  float scale = 0.0f;
  kern::QuantizeRowRef(row.data(), 24, codes.data(), &scale);
  for (int64_t c = 0; c < 24; ++c) {
    EXPECT_EQ(dst[c], scale * static_cast<float>(codes[c]));
  }
  EXPECT_EQ(q.bytes(), 24);
}

// ------------------------------------------------- HeteroGraph features

HeteroGraph GraphWithFeatures(const Tensor& feats) {
  HeteroGraph g;
  NodeTypeId t = g.AddNodeType("items", feats.rows()).value();
  EXPECT_TRUE(g.SetNodeFeatures(t, feats).ok());
  return g;
}

TEST(QuantizedFeaturesTest, QuantizeNodeFeaturesDropsFp32AndPreservesDim) {
  Tensor feats = FillTensor(50, 12, 5.0f, 53);
  HeteroGraph g = GraphWithFeatures(feats);
  ASSERT_FALSE(g.features_quantized(0));
  ASSERT_TRUE(g.QuantizeNodeFeatures(0).ok());
  EXPECT_TRUE(g.features_quantized(0));
  EXPECT_EQ(g.feature_dim(0), 12);
  // fp32 payload dropped: residency now int8 + per-row scales only.
  EXPECT_EQ(g.node_features(0).numel(), 0);
  EXPECT_EQ(g.FeatureBytes(), g.node_qfeatures(0).bytes());
  // Values match the canonical one-rounding dequant of the original.
  auto want = QuantizedTensor::FromTensor(feats);
  ASSERT_TRUE(want.ok());
  for (int64_t r = 0; r < 50; ++r) {
    for (int64_t c = 0; c < 12; ++c) {
      EXPECT_EQ(g.node_qfeatures(0).Dequant(r, c),
                want.value().Dequant(r, c));
    }
  }
  // Idempotent; out-of-range and featureless types error.
  EXPECT_TRUE(g.QuantizeNodeFeatures(0).ok());
  EXPECT_FALSE(g.QuantizeNodeFeatures(9).ok());
  HeteroGraph bare;
  NodeTypeId t = bare.AddNodeType("bare", 3).value();
  EXPECT_FALSE(bare.QuantizeNodeFeatures(t).ok());
}

TEST(QuantizedFeaturesTest, AppendNodesGrowsQuantizedStorage) {
  Tensor feats = FillTensor(20, 6, 4.0f, 59);
  HeteroGraph g = GraphWithFeatures(feats);
  ASSERT_TRUE(g.QuantizeNodeFeatures(0).ok());

  // Copy-on-write: a graph copy taken before the append keeps its view.
  HeteroGraph before = g;

  Tensor extra = FillTensor(5, 6, 4.0f, 61);
  ASSERT_TRUE(g.AppendNodes(0, 5, extra, false, {}).ok());
  EXPECT_EQ(g.num_nodes(0), 25);
  EXPECT_EQ(g.node_qfeatures(0).rows(), 25);
  EXPECT_EQ(before.node_qfeatures(0).rows(), 20);
  auto tail = QuantizedTensor::FromTensor(extra);
  ASSERT_TRUE(tail.ok());
  for (int64_t r = 0; r < 5; ++r) {
    for (int64_t c = 0; c < 6; ++c) {
      EXPECT_EQ(g.node_qfeatures(0).Dequant(20 + r, c),
                tail.value().Dequant(r, c));
    }
  }
  // Dimension mismatches keep erroring against the quantized width.
  EXPECT_FALSE(g.AppendNodes(0, 2, FillTensor(2, 7, 1.0f), false, {}).ok());
}

TEST(QuantizedFeaturesTest, GraphBuilderOptInQuantizesEveryFeatureType) {
  ECommerceConfig cfg;
  cfg.num_users = 30;
  cfg.num_products = 10;
  cfg.num_categories = 3;
  cfg.horizon_days = 60;
  Database db = MakeECommerceDb(cfg);

  auto fp32 = BuildDbGraph(db);
  ASSERT_TRUE(fp32.ok());
  GraphBuilderOptions opts;
  opts.quantize_features = true;
  auto quant = BuildDbGraph(db, opts);
  ASSERT_TRUE(quant.ok());

  int64_t quantized_types = 0;
  for (const auto& [name, type] : quant.value().table_type) {
    EXPECT_EQ(quant.value().graph.feature_dim(type),
              fp32.value().graph.feature_dim(type))
        << name;
    if (fp32.value().graph.feature_dim(type) > 0) {
      EXPECT_TRUE(quant.value().graph.features_quantized(type)) << name;
      ++quantized_types;
    }
  }
  ASSERT_GT(quantized_types, 0);
  EXPECT_LT(quant.value().graph.FeatureBytes(),
            fp32.value().graph.FeatureBytes());
}

// --------------------------------------------------------- precision names

TEST(PrecisionTest, NamesRoundTripAndBadNamesError) {
  for (Precision p :
       {Precision::kFp32, Precision::kBf16, Precision::kInt8}) {
    auto parsed = ParsePrecision(PrecisionName(p));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), p);
  }
  EXPECT_FALSE(ParsePrecision("fp16").ok());
  EXPECT_FALSE(ParsePrecision("").ok());
}

// ------------------------------------------------------- serving fixture

constexpr const char* kQuery =
    "PREDICT COUNT(orders) = 0 OVER NEXT 28 DAYS FOR EACH users";

/// Trains a small churn model ONCE and shares the checkpoint, database and
/// graph across the precision-mode serving tests (mirrors ServeTest).
class QuantServeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ECommerceConfig cfg;
    cfg.num_users = 80;
    cfg.num_products = 25;
    cfg.num_categories = 4;
    cfg.horizon_days = 150;
    db_ = new Database(MakeECommerceDb(cfg));
    dbg_ = std::make_shared<DbGraph>(BuildDbGraph(*db_).value());
    users_ = dbg_->graph.FindNodeType("users").value();

    auto rq = AnalyzeQuery(ParseQuery(kQuery).value(), *db_).value();
    auto cutoffs = MakeCutoffs(rq, *db_).value();
    auto table = BuildTrainingTable(rq, *db_, cutoffs).value();
    auto split = MakeSplit(rq, table, cutoffs).value();

    TrainerConfig tc;
    tc.epochs = 2;
    tc.seed = 3;
    GnnNodePredictor trainer(&dbg_->graph, users_,
                             TaskKind::kBinaryClassification, 2, Gnn(),
                             Sampler(), tc);
    ASSERT_TRUE(trainer.Fit(table, split).ok());
    ckpt_path_ = ::testing::TempDir() + "/quant_test." +
                 std::to_string(getpid()) + ".ckpt";
    ASSERT_TRUE(trainer.SaveWeights(ckpt_path_).ok());
  }

  static void TearDownTestSuite() {
    std::remove(ckpt_path_.c_str());
    dbg_.reset();
    delete db_;
    db_ = nullptr;
  }

  static GnnConfig Gnn() {
    GnnConfig gnn;
    gnn.hidden_dim = 16;
    gnn.num_layers = 2;
    return gnn;
  }

  static SamplerOptions Sampler() {
    SamplerOptions sopts;
    sopts.fanouts = {4, 4};
    sopts.policy = SamplePolicy::kMostRecent;
    return sopts;
  }

  static Timestamp Now() { return db_->TimeRange().second + 1; }

  static std::unique_ptr<InferenceEngine> MakeEngine(
      const ServeOptions& serve = {}) {
    auto engine = std::make_unique<InferenceEngine>(
        SharedGraph(dbg_), users_, TaskKind::kBinaryClassification, 2, Gnn(),
        Sampler(), Now(), serve);
    EXPECT_TRUE(engine->LoadCheckpoint(ckpt_path_).ok());
    return engine;
  }

  static std::vector<int64_t> Ids() {
    return {5, 17, 5, 3, 42, 17, 8, 0, 3, 61, 42, 79, 1, 5};
  }

  static Database* db_;
  static std::shared_ptr<DbGraph> dbg_;
  static NodeTypeId users_;
  static std::string ckpt_path_;
};

Database* QuantServeTest::db_ = nullptr;
std::shared_ptr<DbGraph> QuantServeTest::dbg_;
NodeTypeId QuantServeTest::users_ = 0;
std::string QuantServeTest::ckpt_path_;

// --------------------------------------------------- serving precision

TEST_F(QuantServeTest, EveryPrecisionIsCacheInvariant) {
  // The canonicalized-embedding contract: in each mode, scores are
  // bit-identical with caches on (first call: all misses), caches on
  // (second call: all hits), and caches off.
  for (Precision p :
       {Precision::kFp32, Precision::kBf16, Precision::kInt8}) {
    ServeOptions on;
    on.precision = p;
    ServeOptions off = on;
    off.enable_subgraph_cache = false;
    off.enable_embedding_cache = false;

    auto cached = MakeEngine(on);
    EXPECT_EQ(cached->precision(), p);
    auto cold = cached->Score(Ids());
    auto warm = cached->Score(Ids());
    auto uncached = MakeEngine(off)->Score(Ids());
    ASSERT_TRUE(cold.ok() && warm.ok() && uncached.ok());
    for (size_t i = 0; i < cold.value().size(); ++i) {
      EXPECT_EQ(cold.value()[i], warm.value()[i])
          << PrecisionName(p) << " id " << i;
      EXPECT_EQ(cold.value()[i], uncached.value()[i])
          << PrecisionName(p) << " id " << i;
    }
  }
}

TEST_F(QuantServeTest, LowPrecisionScoresTrackFp32) {
  ServeOptions fp32;
  auto base = MakeEngine(fp32)->Score(Ids());
  ASSERT_TRUE(base.ok());
  for (Precision p : {Precision::kBf16, Precision::kInt8}) {
    ServeOptions low;
    low.precision = p;
    auto scores = MakeEngine(low)->Score(Ids());
    ASSERT_TRUE(scores.ok());
    ASSERT_EQ(scores.value().size(), base.value().size());
    for (size_t i = 0; i < scores.value().size(); ++i) {
      EXPECT_GT(scores.value()[i], 0.0);
      EXPECT_LT(scores.value()[i], 1.0);
      // Quantization shifts probabilities but must not wreck them: the
      // 16-dim model's observed deltas are < 0.02; allow 10x headroom.
      EXPECT_NEAR(scores.value()[i], base.value()[i], 0.2)
          << PrecisionName(p) << " id " << i;
    }
  }
}

TEST_F(QuantServeTest, HealthReportsPrecisionAndBytesPerNode) {
  ServeOptions low;
  low.precision = Precision::kInt8;
  auto engine = MakeEngine(low);
  ServeHealth h = engine->HealthStatus();
  EXPECT_EQ(h.precision, Precision::kInt8);
  EXPECT_GT(h.bytes_per_node, 0.0);
}

TEST_F(QuantServeTest, EnvVarOverridesConfiguredPrecision) {
  // RELGRAPH_PRECISION wins over ServeOptions (the chaos/serve lanes use
  // it to exercise non-fp32 modes without code changes)...
  ASSERT_EQ(setenv("RELGRAPH_PRECISION", "int8", 1), 0);
  auto engine = MakeEngine();
  EXPECT_EQ(engine->precision(), Precision::kInt8);
  auto scores = engine->Score(Ids());
  ASSERT_TRUE(scores.ok());

  // ...and an invalid value is ignored (loudly), keeping the configured
  // mode.
  ASSERT_EQ(setenv("RELGRAPH_PRECISION", "float8", 1), 0);
  ServeOptions bf16;
  bf16.precision = Precision::kBf16;
  EXPECT_EQ(MakeEngine(bf16)->precision(), Precision::kBf16);
  ASSERT_EQ(unsetenv("RELGRAPH_PRECISION"), 0);
  EXPECT_EQ(MakeEngine(bf16)->precision(), Precision::kBf16);
}

TEST_F(QuantServeTest, NonFp32LoadRejectsNonFiniteCheckpoints) {
  // Poison one weight and re-save: fp32 mode still loads (bit-faithful
  // to training, NaN propagation is the trainer's business), but the
  // quantizing modes reject it up front with a precise error.
  auto bundle = LoadTensorBundle(ckpt_path_);
  ASSERT_TRUE(bundle.ok());
  ASSERT_FALSE(bundle.value().tensors.empty());
  bundle.value().tensors[0].data()[1] = kNan;
  const std::string bad_path = ::testing::TempDir() + "/quant_test.bad." +
                               std::to_string(getpid()) + ".ckpt";
  ASSERT_TRUE(SaveTensorBundle(bad_path, bundle.value().tensors,
                               bundle.value().scalars)
                  .ok());

  InferenceEngine fp32(SharedGraph(dbg_), users_,
                       TaskKind::kBinaryClassification, 2, Gnn(), Sampler(),
                       Now());
  EXPECT_TRUE(fp32.LoadCheckpoint(bad_path).ok());

  ServeOptions low;
  low.precision = Precision::kInt8;
  InferenceEngine int8(SharedGraph(dbg_), users_,
                       TaskKind::kBinaryClassification, 2, Gnn(), Sampler(),
                       Now(), low);
  Status s = int8.LoadCheckpoint(bad_path);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(std::string(s.message()).find("finite"), std::string::npos)
      << s.message();
  std::remove(bad_path.c_str());
}

TEST_F(QuantServeTest, ServePlanCarriesWithPrecision) {
  PredictiveQueryEngine pq(db_);
  auto plan = pq.CompileForServing(
      std::string(kQuery) +
      " USING GNN WITH hidden=16, layers=2, fanout=4, policy=recent, "
      "seed=3, precision='int8'");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value().precision, Precision::kInt8);

  InferenceEngine engine(plan.value());
  EXPECT_EQ(engine.precision(), Precision::kInt8);
  ASSERT_TRUE(engine.LoadCheckpoint(ckpt_path_).ok());
  auto scores = engine.Score({1, 2, 3});
  ASSERT_TRUE(scores.ok());
  for (double s : scores.value()) {
    EXPECT_GT(s, 0.0);
    EXPECT_LT(s, 1.0);
  }

  // Default stays fp32; a bad name fails compilation.
  auto fp32_plan = pq.CompileForServing(std::string(kQuery) + " USING GNN");
  ASSERT_TRUE(fp32_plan.ok());
  EXPECT_EQ(fp32_plan.value().precision, Precision::kFp32);
  EXPECT_FALSE(pq.CompileForServing(std::string(kQuery) +
                                    " USING GNN WITH precision='fp64'")
                   .ok());
}

TEST_F(QuantServeTest, QuantizedFeatureGraphServesAllPrecisions) {
  // End-to-end storage path: the snapshot graph itself holds int8
  // features. Bytes per node must clear the 0.35x acceptance bound for
  // the feature-heavy types, and the engine must score in every mode.
  GraphBuilderOptions opts;
  opts.quantize_features = true;
  auto built = BuildDbGraph(*db_, opts);
  ASSERT_TRUE(built.ok());
  auto qdbg = std::make_shared<DbGraph>(std::move(built).value());
  ASSERT_LT(qdbg->graph.FeatureBytes(), dbg_->graph.FeatureBytes());

  for (Precision p :
       {Precision::kFp32, Precision::kBf16, Precision::kInt8}) {
    ServeOptions serve;
    serve.precision = p;
    InferenceEngine engine(SharedGraph(qdbg), users_,
                           TaskKind::kBinaryClassification, 2, Gnn(),
                           Sampler(), Now(), serve);
    ASSERT_TRUE(engine.LoadCheckpoint(ckpt_path_).ok());
    auto scores = engine.Score(Ids());
    ASSERT_TRUE(scores.ok()) << PrecisionName(p);
    for (double s : scores.value()) {
      EXPECT_GT(s, 0.0);
      EXPECT_LT(s, 1.0);
    }
  }
}

}  // namespace
}  // namespace relgraph
