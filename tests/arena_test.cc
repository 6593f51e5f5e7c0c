// Zero-allocation contract of the tensor buffer arena (core/buffer_pool):
// once the pool is warm, a steady-state training run and repeated serving
// requests — warm-cache or cold — perform zero tensor heap allocations.
// These are the acceptance tests for the allocation-lean forward path; the
// matching throughput numbers live in bench/bench_forward.cc.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/buffer_pool.h"
#include "datagen/ecommerce.h"
#include "db2graph/graph_builder.h"
#include "pq/engine.h"
#include "pq/label_builder.h"
#include "pq/parser.h"
#include "serve/inference_engine.h"
#include "tensor/tensor.h"
#include "train/trainer.h"

namespace relgraph {
namespace {

// ------------------------------------------------------------ pool basics

TEST(BufferPoolTest, AcquireAfterReleaseHitsThePool) {
  auto& pool = FloatBufferPool::Global();
  if (!pool.enabled()) GTEST_SKIP() << "RELGRAPH_ARENA=0";
  // Prime: make sure at least one buffer of this class is pooled.
  pool.Release(pool.Acquire(1000));
  const auto before = pool.stats();
  pool.Release(pool.Acquire(1000));
  const auto after = pool.stats();
  EXPECT_EQ(after.heap_allocs, before.heap_allocs);
  EXPECT_EQ(after.pool_hits, before.pool_hits + 1);
  EXPECT_EQ(after.released, before.released + 1);
}

TEST(BufferPoolTest, AcquiredBufferHasRequestedCapacity) {
  auto& pool = FloatBufferPool::Global();
  for (const size_t n : {1u, 7u, 64u, 1000u, 4097u}) {
    std::vector<float> buf = pool.Acquire(n);
    EXPECT_GE(buf.capacity(), n) << "n=" << n;
    pool.Release(std::move(buf));
  }
}

TEST(BufferPoolTest, TensorLoopAllocatesOnlyOnce) {
  auto& pool = FloatBufferPool::Global();
  if (!pool.enabled()) GTEST_SKIP() << "RELGRAPH_ARENA=0";
  { Tensor warm(33, 17); }  // first buffer of this class may hit the heap
  const auto before = pool.stats();
  for (int i = 0; i < 10; ++i) {
    Tensor t(33, 17);
    EXPECT_EQ(t.Sum(), 0.0f);  // recycled storage is re-zeroed
    t.Fill(1.0f);
  }
  EXPECT_EQ(pool.stats().heap_allocs, before.heap_allocs);
}

// ----------------------------------------------------------- shared model

constexpr const char* kQuery =
    "PREDICT COUNT(orders) = 0 OVER NEXT 28 DAYS FOR EACH users";

/// One small churn setup (database, graph, training table, checkpoint)
/// shared by the end-to-end zero-alloc tests.
class ArenaTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ECommerceConfig cfg;
    cfg.num_users = 60;
    cfg.num_products = 20;
    cfg.num_categories = 4;
    cfg.horizon_days = 150;
    db_ = new Database(MakeECommerceDb(cfg));
    dbg_ = std::make_shared<DbGraph>(BuildDbGraph(*db_).value());
    users_ = dbg_->graph.FindNodeType("users").value();

    auto rq = AnalyzeQuery(ParseQuery(kQuery).value(), *db_).value();
    auto cutoffs = MakeCutoffs(rq, *db_).value();
    table_ = new TrainingTable(BuildTrainingTable(rq, *db_, cutoffs).value());
    split_ = new Split(MakeSplit(rq, *table_, cutoffs).value());

    auto trainer = MakeTrainer();
    ASSERT_TRUE(trainer->Fit(*table_, *split_).ok());
    // Pid-unique path: ctest runs each TEST of this binary as its own
    // process, possibly in parallel — a shared path would race.
    ckpt_path_ = ::testing::TempDir() + "/arena_test." +
                 std::to_string(getpid()) + ".ckpt";
    ASSERT_TRUE(trainer->SaveWeights(ckpt_path_).ok());
  }

  static void TearDownTestSuite() {
    std::remove(ckpt_path_.c_str());
    delete split_;
    delete table_;
    dbg_.reset();
    delete db_;
    split_ = nullptr;
    table_ = nullptr;
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

  static std::unique_ptr<GnnNodePredictor> MakeTrainer() {
    TrainerConfig tc;
    tc.epochs = 2;
    tc.seed = 3;
    return std::make_unique<GnnNodePredictor>(
        &dbg_->graph, users_, TaskKind::kBinaryClassification, 2, Gnn(),
        Sampler(), tc);
  }

  static std::unique_ptr<InferenceEngine> MakeEngine(
      const ServeOptions& serve = {}) {
    auto engine = std::make_unique<InferenceEngine>(
        SharedGraph(dbg_), users_, TaskKind::kBinaryClassification, 2, Gnn(),
        Sampler(), db_->TimeRange().second + 1, serve);
    EXPECT_TRUE(engine->LoadCheckpoint(ckpt_path_).ok());
    return engine;
  }

  static Database* db_;
  static std::shared_ptr<DbGraph> dbg_;
  static NodeTypeId users_;
  static TrainingTable* table_;
  static Split* split_;
  static std::string ckpt_path_;
};

Database* ArenaTest::db_ = nullptr;
std::shared_ptr<DbGraph> ArenaTest::dbg_;
NodeTypeId ArenaTest::users_ = 0;
TrainingTable* ArenaTest::table_ = nullptr;
Split* ArenaTest::split_ = nullptr;
std::string ArenaTest::ckpt_path_;

// --------------------------------------------------------- zero-alloc: Fit

TEST_F(ArenaTest, SteadyStateFitDoesZeroTensorHeapAllocs) {
  auto& pool = FloatBufferPool::Global();
  if (!pool.enabled()) GTEST_SKIP() << "RELGRAPH_ARENA=0";

  // The fixture's Fit warmed the pool with every buffer class a training
  // run touches. An identical run (same seed, so the same batch and
  // subgraph shapes) must be served entirely from recycled buffers —
  // the per-batch claim, measured across whole epochs.
  auto trainer = MakeTrainer();  // parameter allocs land before the snapshot
  const auto before = pool.stats();
  ASSERT_TRUE(trainer->Fit(*table_, *split_).ok());
  const auto after = pool.stats();
  EXPECT_EQ(after.heap_allocs, before.heap_allocs)
      << "tensor heap allocations leaked into the steady-state train loop";
  EXPECT_GT(after.pool_hits, before.pool_hits);
}

TEST_F(ArenaTest, SteadyStatePredictScoresDoesZeroTensorHeapAllocs) {
  auto& pool = FloatBufferPool::Global();
  if (!pool.enabled()) GTEST_SKIP() << "RELGRAPH_ARENA=0";

  // Validation and test scoring run serving-path slices across the pool;
  // once one pass has warmed their shapes, repeats allocate nothing.
  auto trainer = MakeTrainer();
  ASSERT_TRUE(trainer->LoadWeights(ckpt_path_).ok());
  std::vector<int64_t> rows = split_->val;
  rows.insert(rows.end(), split_->test.begin(), split_->test.end());
  const std::vector<double> first = trainer->PredictScores(*table_, rows);

  const auto before = pool.stats();
  for (int pass = 0; pass < 3; ++pass) {
    EXPECT_EQ(trainer->PredictScores(*table_, rows), first);
  }
  const auto after = pool.stats();
  EXPECT_EQ(after.heap_allocs, before.heap_allocs)
      << "PredictScores allocated tensors after its shapes were warmed";
}

// ------------------------------------------------------- zero-alloc: Score

TEST_F(ArenaTest, WarmCacheScoreDoesZeroTensorHeapAllocs) {
  auto& pool = FloatBufferPool::Global();
  if (!pool.enabled()) GTEST_SKIP() << "RELGRAPH_ARENA=0";

  auto engine = MakeEngine();
  const std::vector<int64_t> ids = {0, 5, 11, 17, 23, 42, 59};
  const auto cold = engine->Score(ids);
  ASSERT_TRUE(cold.ok());

  const auto before = pool.stats();
  const auto warm = engine->Score(ids);
  const auto after = pool.stats();
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(after.heap_allocs, before.heap_allocs)
      << "warm-cache Score must not touch the heap for tensors";
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(warm.value()[i], cold.value()[i]);
  }
}

TEST_F(ArenaTest, SteadyStateColdScoreDoesZeroTensorHeapAllocs) {
  auto& pool = FloatBufferPool::Global();
  if (!pool.enabled()) GTEST_SKIP() << "RELGRAPH_ARENA=0";

  // With both caches off, every request re-samples and re-encodes — the
  // worst case. After one warming request, repeats still must not allocate.
  ServeOptions off;
  off.enable_subgraph_cache = false;
  off.enable_embedding_cache = false;
  auto engine = MakeEngine(off);
  const std::vector<int64_t> ids = {1, 6, 12, 18, 24, 43, 58};
  ASSERT_TRUE(engine->Score(ids).ok());

  const auto before = pool.stats();
  for (int pass = 0; pass < 3; ++pass) {
    ASSERT_TRUE(engine->Score(ids).ok());
  }
  const auto after = pool.stats();
  EXPECT_EQ(after.heap_allocs, before.heap_allocs)
      << "cold Score allocated tensors after its shapes were warmed";
}

}  // namespace
}  // namespace relgraph
