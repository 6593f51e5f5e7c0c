// Tests of the online inference engine (src/serve/): LRU cache semantics,
// bit-identical scores across every cache/micro-batch configuration,
// warm-up, snapshot advancement, checkpoint validation, query compilation
// for serving (including plan lifetime), and concurrent request
// correctness.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/parallel.h"
#include "datagen/ecommerce.h"
#include "db2graph/graph_builder.h"
#include "pq/engine.h"
#include "pq/label_builder.h"
#include "pq/parser.h"
#include "serve/inference_engine.h"
#include "serve/lru_cache.h"
#include "train/trainer.h"

namespace relgraph {
namespace {

// ---------------------------------------------------------------- LruCache

TEST(LruCacheTest, GetReturnsWhatPutStored) {
  LruCache<int64_t, int> cache(4, /*version=*/0);
  int v = 0;
  EXPECT_FALSE(cache.Get(1, &v, 0));
  cache.Put(1, 10, 0, {});
  ASSERT_TRUE(cache.Get(1, &v, 0));
  EXPECT_EQ(v, 10);
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cache.misses(), 1);
}

TEST(LruCacheTest, EvictsLeastRecentlyUsed) {
  LruCache<int64_t, int> cache(2, /*version=*/0);
  cache.Put(1, 10, 0, {});
  cache.Put(2, 20, 0, {});
  int v = 0;
  ASSERT_TRUE(cache.Get(1, &v, 0));  // refresh 1: now 2 is the LRU entry
  cache.Put(3, 30, 0, {});           // evicts 2
  EXPECT_EQ(cache.evictions(), 1);
  EXPECT_FALSE(cache.Get(2, &v, 0));
  EXPECT_TRUE(cache.Get(1, &v, 0));
  EXPECT_TRUE(cache.Get(3, &v, 0));
  EXPECT_EQ(cache.size(), 2);
}

TEST(LruCacheTest, PutRefreshesExistingKey) {
  LruCache<int64_t, int> cache(2, /*version=*/0);
  cache.Put(1, 10, 0, {});
  cache.Put(2, 20, 0, {});
  cache.Put(1, 11, 0, {});  // refresh + overwrite, no eviction
  EXPECT_EQ(cache.evictions(), 0);
  cache.Put(3, 30, 0, {});  // now 2 is the LRU entry
  int v = 0;
  EXPECT_FALSE(cache.Get(2, &v, 0));
  ASSERT_TRUE(cache.Get(1, &v, 0));
  EXPECT_EQ(v, 11);
}

TEST(LruCacheTest, ClearEmptiesButKeepsTallies) {
  LruCache<int64_t, int> cache(4, /*version=*/0);
  cache.Put(1, 10, 0, {});
  int v = 0;
  ASSERT_TRUE(cache.Get(1, &v, 0));
  cache.Clear();
  EXPECT_EQ(cache.size(), 0);
  EXPECT_FALSE(cache.Get(1, &v, 0));
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cache.misses(), 1);
}

TEST(LruCacheTest, InvalidateDropsExactlyTheDependentsOfTouchedNodes) {
  // Random dependency sets over a small node range (long dependent lists,
  // index-table collisions) through evictions and re-Puts, checked round
  // by round against the dependencies each live key was last put with.
  std::mt19937_64 rng(5);
  LruCache<int64_t, int> cache(48, /*version=*/0);
  std::map<int64_t, std::vector<uint64_t>> deps_of;
  std::map<int64_t, int64_t> born_of;
  for (int64_t version = 0; version < 6; ++version) {
    for (int i = 0; i < 200; ++i) {
      const int64_t key = static_cast<int64_t>(rng() % 96);
      std::vector<uint64_t> deps;
      for (int d = 0; d < 12; ++d) deps.push_back(rng() % 160);
      deps.push_back((uint64_t{3} << 48) | static_cast<uint64_t>(key));
      std::sort(deps.begin(), deps.end());
      deps.erase(std::unique(deps.begin(), deps.end()), deps.end());
      cache.Put(key, static_cast<int>(key), version, deps);
      deps_of[key] = deps;
      born_of[key] = version;
    }
    std::vector<int64_t> live;
    int value = 0;
    for (const auto& [key, deps] : deps_of) {
      if (cache.Get(key, &value, version)) live.push_back(key);
    }
    ASSERT_EQ(static_cast<int64_t>(live.size()), cache.size());

    std::vector<uint64_t> touched = {rng() % 160, rng() % 160,
                                     (uint64_t{3} << 48) | 7};
    int64_t expect_invalidated = 0;
    for (int64_t key : live) {
      const std::vector<uint64_t>& deps = deps_of[key];
      bool hit = false;
      for (uint64_t node : touched) {
        hit = hit || std::binary_search(deps.begin(), deps.end(), node);
      }
      expect_invalidated += hit ? 1 : 0;
    }
    EXPECT_EQ(cache.Invalidate(touched, version + 1), expect_invalidated);
    for (int64_t key : live) {
      const std::vector<uint64_t>& deps = deps_of[key];
      bool hit = false;
      for (uint64_t node : touched) {
        hit = hit || std::binary_search(deps.begin(), deps.end(), node);
      }
      EXPECT_EQ(cache.Get(key, &value, version + 1), !hit) << "key " << key;
      // Valid from the version it was put at on, never before it.
      const int64_t born = born_of[key];
      EXPECT_EQ(cache.Get(key, &value, born), !hit) << "key " << key;
      if (born > 0) {
        EXPECT_FALSE(cache.Get(key, &value, born - 1)) << "key " << key;
      }
    }
    // A Put computed at the superseded version is dropped.
    cache.Put(1000, 1, version, {});
    EXPECT_FALSE(cache.Get(1000, &value, version + 1));
  }
}

// ----------------------------------------------------------- ServingFixture

constexpr const char* kQuery =
    "PREDICT COUNT(orders) = 0 OVER NEXT 28 DAYS FOR EACH users";

/// Trains a small churn model ONCE and shares the checkpoint, database and
/// graph across all serving tests (training dominates the suite runtime).
class ServeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ECommerceConfig cfg;
    cfg.num_users = 80;
    cfg.num_products = 25;
    cfg.num_categories = 4;
    cfg.horizon_days = 150;
    db_ = new Database(MakeECommerceDb(cfg));
    dbg_ = std::make_shared<DbGraph>(BuildDbGraph(*db_).value());
    // An independent build of the same database: a fresher snapshot with
    // the identical layout, for snapshot-advance tests.
    dbg2_ = std::make_shared<DbGraph>(BuildDbGraph(*db_).value());
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
    // Pid-unique path: ctest runs each TEST of this binary as its own
    // process, possibly in parallel — a shared path would race.
    ckpt_path_ = ::testing::TempDir() + "/serve_test." +
                 std::to_string(getpid()) + ".ckpt";
    ASSERT_TRUE(trainer.SaveWeights(ckpt_path_).ok());
  }

  static void TearDownTestSuite() {
    std::remove(ckpt_path_.c_str());
    dbg2_.reset();
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

  /// A loaded engine over the shared checkpoint.
  static std::unique_ptr<InferenceEngine> MakeEngine(
      const ServeOptions& serve = {},
      const std::shared_ptr<DbGraph>& dbg = dbg_) {
    auto engine = std::make_unique<InferenceEngine>(
        SharedGraph(dbg), users_, TaskKind::kBinaryClassification, 2, Gnn(),
        Sampler(), Now(), serve);
    EXPECT_TRUE(engine->LoadCheckpoint(ckpt_path_).ok());
    return engine;
  }

  static Database* db_;
  static std::shared_ptr<DbGraph> dbg_;
  static std::shared_ptr<DbGraph> dbg2_;
  static NodeTypeId users_;
  static std::string ckpt_path_;
};

Database* ServeTest::db_ = nullptr;
std::shared_ptr<DbGraph> ServeTest::dbg_;
std::shared_ptr<DbGraph> ServeTest::dbg2_;
NodeTypeId ServeTest::users_ = 0;
std::string ServeTest::ckpt_path_;

// A request mixing repeats and scattered ids, larger than one micro-batch
// at size 7.
std::vector<int64_t> MixedIds() {
  return {5, 17, 5, 3, 42, 17, 8, 0, 3, 61, 42, 79, 1, 5};
}

// ----------------------------------------------------------- basic contract

TEST_F(ServeTest, ScoreBeforeLoadFails) {
  InferenceEngine engine(SharedGraph(dbg_), users_,
                         TaskKind::kBinaryClassification, 2, Gnn(), Sampler(),
                         Now());
  EXPECT_FALSE(engine.loaded());
  EXPECT_EQ(engine.Score({0}).status().code(),
            StatusCode::kFailedPrecondition);
  // WarmUp runs the same body, so it refuses the placeholder weights too.
  EXPECT_EQ(engine.WarmUp({0}).code(), StatusCode::kFailedPrecondition);
}

TEST_F(ServeTest, LoadCheckpointRejectsMissingAndMismatched) {
  InferenceEngine engine(SharedGraph(dbg_), users_,
                         TaskKind::kBinaryClassification, 2, Gnn(), Sampler(),
                         Now());
  EXPECT_FALSE(engine.LoadCheckpoint("/nonexistent/nope.ckpt").ok());

  GnnConfig wrong = Gnn();
  wrong.hidden_dim = 24;
  InferenceEngine mismatched(SharedGraph(dbg_), users_,
                             TaskKind::kBinaryClassification, 2, wrong,
                             Sampler(), Now());
  EXPECT_FALSE(mismatched.LoadCheckpoint(ckpt_path_).ok());
}

TEST_F(ServeTest, RejectsOutOfRangeIds) {
  auto engine = MakeEngine();
  EXPECT_FALSE(engine->Score({-1}).ok());
  EXPECT_FALSE(engine->Score({dbg_->graph.num_nodes(users_)}).ok());
  auto empty = engine->Score({});
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty.value().empty());
}

TEST_F(ServeTest, ScoresAreProbabilities) {
  auto engine = MakeEngine();
  auto scores = engine->Score(MixedIds());
  ASSERT_TRUE(scores.ok());
  ASSERT_EQ(scores.value().size(), MixedIds().size());
  for (double s : scores.value()) {
    EXPECT_GT(s, 0.0);
    EXPECT_LT(s, 1.0);
  }
  // Repeated ids in one request get identical scores.
  EXPECT_EQ(scores.value()[0], scores.value()[2]);   // id 5
  EXPECT_EQ(scores.value()[1], scores.value()[5]);   // id 17
  EXPECT_EQ(scores.value()[3], scores.value()[8]);   // id 3
}

// ----------------------------------------------------- bit-identity matrix

TEST_F(ServeTest, ScoresBitIdenticalAcrossCacheAndBatchConfigs) {
  auto reference = MakeEngine();  // defaults: both caches, micro-batch 32
  const auto expected = reference->Score(MixedIds());
  ASSERT_TRUE(expected.ok());

  std::vector<ServeOptions> configs;
  {
    ServeOptions off;
    off.enable_subgraph_cache = false;
    off.enable_embedding_cache = false;
    configs.push_back(off);
    ServeOptions subgraph_only = off;
    subgraph_only.enable_subgraph_cache = true;
    configs.push_back(subgraph_only);
    ServeOptions embedding_only = off;
    embedding_only.enable_embedding_cache = true;
    configs.push_back(embedding_only);
    ServeOptions tiny_batches;
    tiny_batches.micro_batch_size = 1;
    configs.push_back(tiny_batches);
    ServeOptions odd_batches;
    odd_batches.micro_batch_size = 7;
    configs.push_back(odd_batches);
  }
  for (size_t c = 0; c < configs.size(); ++c) {
    auto engine = MakeEngine(configs[c]);
    auto got = engine->Score(MixedIds());
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(got.value().size(), expected.value().size());
    for (size_t i = 0; i < expected.value().size(); ++i) {
      // Exact double equality: caching and batching must not perturb a
      // single bit of any score.
      EXPECT_EQ(got.value()[i], expected.value()[i])
          << "config " << c << " id index " << i;
    }
  }
}

TEST_F(ServeTest, MultiSliceScoresBitIdenticalAcrossThreadCounts) {
  // 96 ids cycling over all 80 users: one request that splits into several
  // seed slices at every pool size, with repeats spread across slices.
  std::vector<int64_t> ids;
  for (int64_t i = 0; i < 96; ++i) ids.push_back((i * 37) % 80);
  const int pool_threads = NumThreads();
  for (Precision precision : {Precision::kFp32, Precision::kInt8}) {
    ServeOptions off;
    off.enable_subgraph_cache = false;
    off.enable_embedding_cache = false;
    off.precision = precision;
    std::vector<double> want;
    {
      auto solo = MakeEngine(off);
      for (int64_t id : ids) {
        auto one = solo->Score({id});
        ASSERT_TRUE(one.ok());
        want.push_back(one.value()[0]);
      }
    }
    for (int threads : {1, 2, 4}) {
      ThreadPool::SetNumThreadsForTesting(threads);
      for (bool caches : {false, true}) {
        ServeOptions serve = off;
        serve.enable_subgraph_cache = caches;
        serve.enable_embedding_cache = caches;
        auto engine = MakeEngine(serve);
        // With caches on, the repeat is served from the embedding cache.
        for (int pass = 0; pass < (caches ? 2 : 1); ++pass) {
          auto got = engine->Score(ids);
          ASSERT_TRUE(got.ok());
          EXPECT_EQ(got.value(), want)
              << PrecisionName(precision) << " threads=" << threads
              << " caches=" << caches << " pass=" << pass;
        }
      }
    }
  }
  ThreadPool::SetNumThreadsForTesting(pool_threads);
}

// ------------------------------------------- offline == served (one path)

/// 100 examples over all 80 users (repeats included) at `cutoff(i)`.
TrainingTable ExampleTable(const std::function<Timestamp(int64_t)>& cutoff) {
  TrainingTable table;
  for (int64_t i = 0; i < 100; ++i) {
    table.entity_rows.push_back((i * 37) % 80);
    table.cutoffs.push_back(cutoff(i));
    table.labels.push_back(static_cast<double>(i % 2));
  }
  return table;
}

std::vector<int64_t> AllRows(const TrainingTable& table) {
  std::vector<int64_t> rows(static_cast<size_t>(table.size()));
  std::iota(rows.begin(), rows.end(), int64_t{0});
  return rows;
}

TEST_F(ServeTest, PredictScoresEqualServedScoresBitForBit) {
  // The trainer's offline scores are the engine's served scores for the
  // same entities at the engine's cutoff: same per-seed sampling salt,
  // same concat, same forward. Checked under both sampling policies, with
  // the engine's caches off and on, at several prediction slice sizes and
  // pool sizes.
  const TrainingTable table = ExampleTable([](int64_t) { return Now(); });
  const std::vector<int64_t> rows = AllRows(table);
  const int pool_threads = NumThreads();
  for (SamplePolicy policy :
       {SamplePolicy::kUniform, SamplePolicy::kMostRecent}) {
    SamplerOptions sopts = Sampler();
    sopts.policy = policy;
    ServeOptions serve;
    serve.seed = 3;  // the fixture's trainer seed
    std::vector<double> want;
    for (bool caches : {false, true}) {
      serve.enable_subgraph_cache = caches;
      serve.enable_embedding_cache = caches;
      InferenceEngine engine(SharedGraph(dbg_), users_,
                             TaskKind::kBinaryClassification, 2, Gnn(), sopts,
                             Now(), serve);
      ASSERT_TRUE(engine.LoadCheckpoint(ckpt_path_).ok());
      for (int pass = 0; pass < (caches ? 2 : 1); ++pass) {
        auto served = engine.Score(table.entity_rows);
        ASSERT_TRUE(served.ok());
        if (want.empty()) want = served.value();
        EXPECT_EQ(served.value(), want) << "caches=" << caches;
      }
    }
    for (int threads : {1, 4}) {
      ThreadPool::SetNumThreadsForTesting(threads);
      for (int64_t batch_size : {1, 7, 128}) {
        TrainerConfig tc;
        tc.seed = 3;
        tc.batch_size = batch_size;
        GnnNodePredictor predictor(&dbg_->graph, users_,
                                   TaskKind::kBinaryClassification, 2, Gnn(),
                                   sopts, tc);
        ASSERT_TRUE(predictor.LoadWeights(ckpt_path_).ok());
        EXPECT_EQ(predictor.PredictScores(table, rows), want)
            << "policy=" << static_cast<int>(policy)
            << " threads=" << threads << " batch_size=" << batch_size;
      }
    }
  }
  ThreadPool::SetNumThreadsForTesting(pool_threads);
}

TEST_F(ServeTest, PredictedScoreDoesNotDependOnBatchMates) {
  // Mixed cutoffs and uniform sampling: a row's score is the same alone,
  // in its batch, and with its batch-mates reordered.
  const TrainingTable table = ExampleTable(
      [](int64_t i) { return Now() - Days(20 * (i % 4)); });
  const std::vector<int64_t> rows = AllRows(table);
  SamplerOptions sopts = Sampler();
  sopts.policy = SamplePolicy::kUniform;
  TrainerConfig tc;
  tc.seed = 3;
  tc.batch_size = 16;
  GnnNodePredictor predictor(&dbg_->graph, users_,
                             TaskKind::kBinaryClassification, 2, Gnn(), sopts,
                             tc);
  ASSERT_TRUE(predictor.LoadWeights(ckpt_path_).ok());
  const std::vector<double> all = predictor.PredictScores(table, rows);
  ASSERT_EQ(all.size(), rows.size());
  const std::vector<int64_t> reversed(rows.rbegin(), rows.rend());
  const std::vector<double> backwards =
      predictor.PredictScores(table, reversed);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(predictor.PredictScores(table, {rows[i]}).at(0), all[i])
        << "row " << i;
    EXPECT_EQ(backwards[rows.size() - 1 - i], all[i]) << "row " << i;
  }
}

TEST_F(ServeTest, WarmRepeatIsBitIdenticalAndHitsCaches) {
  auto engine = MakeEngine();
  const auto cold = engine->Score(MixedIds());
  ASSERT_TRUE(cold.ok());
  const ServeStats after_cold = engine->stats();
  EXPECT_GT(after_cold.subgraph_misses, 0);
  EXPECT_GT(after_cold.embedding_misses, 0);

  const auto warm = engine->Score(MixedIds());
  ASSERT_TRUE(warm.ok());
  for (size_t i = 0; i < cold.value().size(); ++i) {
    EXPECT_EQ(warm.value()[i], cold.value()[i]);
  }
  const ServeStats after_warm = engine->stats();
  // The repeat is served entirely from the embedding cache.
  EXPECT_GT(after_warm.embedding_hits, after_cold.embedding_hits);
  EXPECT_EQ(after_warm.embedding_misses, after_cold.embedding_misses);
  EXPECT_EQ(after_warm.requests, 2);
  EXPECT_EQ(after_warm.entities_scored,
            2 * static_cast<int64_t>(MixedIds().size()));
}

TEST_F(ServeTest, SingleIdScoresMatchBatchedScores) {
  auto batch_engine = MakeEngine();
  const std::vector<int64_t> ids = {0, 7, 19, 33, 54, 79};
  const auto batched = batch_engine->Score(ids);
  ASSERT_TRUE(batched.ok());

  ServeOptions cold;
  cold.enable_subgraph_cache = false;
  cold.enable_embedding_cache = false;
  auto single_engine = MakeEngine(cold);
  for (size_t i = 0; i < ids.size(); ++i) {
    auto one = single_engine->Score({ids[i]});
    ASSERT_TRUE(one.ok());
    ASSERT_EQ(one.value().size(), 1u);
    EXPECT_EQ(one.value()[0], batched.value()[i]) << "id " << ids[i];
  }
}

TEST_F(ServeTest, TinyCachesEvictButStayCorrect) {
  ServeOptions tiny;
  tiny.subgraph_cache_capacity = 2;
  tiny.embedding_cache_capacity = 2;
  auto engine = MakeEngine(tiny);
  ServeOptions off;
  off.enable_subgraph_cache = false;
  off.enable_embedding_cache = false;
  auto reference = MakeEngine(off);

  // Two passes over more ids than fit: constant eviction churn, yet every
  // score stays bit-identical to the cacheless engine.
  const std::vector<int64_t> ids = {0, 11, 22, 33, 44, 55, 66, 77};
  for (int pass = 0; pass < 2; ++pass) {
    auto got = engine->Score(ids);
    auto want = reference->Score(ids);
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(want.ok());
    for (size_t i = 0; i < ids.size(); ++i) {
      EXPECT_EQ(got.value()[i], want.value()[i]) << "pass " << pass;
    }
  }
}

// ------------------------------------------------------------------ warm-up

TEST_F(ServeTest, WarmUpMakesFirstRequestHit) {
  auto engine = MakeEngine();
  const std::vector<int64_t> hot = {2, 4, 6, 8};
  ASSERT_TRUE(engine->WarmUp(hot).ok());
  const ServeStats warmed = engine->stats();
  EXPECT_EQ(warmed.requests, 0);  // warm-up is not a served request

  auto scores = engine->Score(hot);
  ASSERT_TRUE(scores.ok());
  const ServeStats after = engine->stats();
  EXPECT_EQ(after.embedding_hits - warmed.embedding_hits,
            static_cast<int64_t>(hot.size()));
  EXPECT_EQ(after.embedding_misses, warmed.embedding_misses);
}

// ---------------------------------------------------------------- snapshots

TEST_F(ServeTest, AdvanceSnapshotBumpsVersionAndInvalidatesEmbeddings) {
  auto engine = MakeEngine();
  const auto before = engine->Score(MixedIds());
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(engine->snapshot_version(), 0);

  // Advance onto an independently built graph of the same database: same
  // layout, same data, so scores must not change — but the engine cannot
  // know that. With no delta the chain check cannot pass, so cached
  // embeddings are swapped out wholesale and recomputed.
  const ServeStats pre = engine->stats();
  ASSERT_TRUE(engine->ApplyDelta(SharedGraph(dbg2_), Now(), {}).ok());
  EXPECT_EQ(engine->snapshot_version(), 1);
  EXPECT_EQ(engine->stats().shard_swaps, pre.shard_swaps + 1);

  const auto after = engine->Score(MixedIds());
  ASSERT_TRUE(after.ok());
  const ServeStats post = engine->stats();
  // Fresh misses on both caches: embeddings were cleared, and the old
  // subgraph entries are dead keys under the new snapshot version.
  EXPECT_EQ(post.embedding_hits, pre.embedding_hits);
  EXPECT_GT(post.embedding_misses, pre.embedding_misses);
  EXPECT_GT(post.subgraph_misses, pre.subgraph_misses);
  EXPECT_EQ(after.value(), before.value());  // exact doubles

  // And exactly what a cold engine built on the new graph answers.
  ServeOptions off;
  off.enable_subgraph_cache = false;
  off.enable_embedding_cache = false;
  const auto cold = MakeEngine(off, dbg2_)->Score(MixedIds());
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(after.value(), cold.value());
}

TEST_F(ServeTest, AdvanceSnapshotRejectsMismatchedLayout) {
  auto engine = MakeEngine();
  HeteroGraph other;
  ASSERT_TRUE(other.AddNodeType("users", 3).ok());
  ASSERT_TRUE(other.SetNodeFeatures(0, Tensor::Ones(3, 2)).ok());
  EXPECT_FALSE(
      engine->ApplyDelta(std::make_shared<HeteroGraph>(std::move(other)), 1, {})
          .ok());
  EXPECT_FALSE(engine->ApplyDelta(nullptr, 1, {}).ok());
  EXPECT_EQ(engine->snapshot_version(), 0);
}

// ----------------------------------------------------------- query compile

TEST_F(ServeTest, CompileForServingResolvesThePlan) {
  PredictiveQueryEngine pq(db_);
  auto plan = pq.CompileForServing(
      std::string(kQuery) +
      " USING GNN WITH hidden=16, layers=2, fanout=4, policy=recent, seed=3");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value().kind, TaskKind::kBinaryClassification);
  EXPECT_EQ(plan.value().entity_table, "users");
  ASSERT_NE(plan.value().graph, nullptr);
  EXPECT_EQ(plan.value().graph->num_nodes(plan.value().entity_type), 80);
  EXPECT_EQ(plan.value().gnn.hidden_dim, 16);
  EXPECT_EQ(plan.value().sampler.fanouts, (std::vector<int64_t>{4, 4}));
  EXPECT_EQ(plan.value().sampler.policy, SamplePolicy::kMostRecent);
  EXPECT_EQ(plan.value().seed, 3u);
  EXPECT_EQ(plan.value().now_cutoff, db_->TimeRange().second + 1);

  // Ranking queries and non-GNN models are not servable through this path.
  EXPECT_FALSE(pq.CompileForServing(
                     "PREDICT LIST(orders.product_id) OVER NEXT 28 DAYS "
                     "FOR EACH users USING POPULAR")
                   .ok());
  EXPECT_FALSE(
      pq.CompileForServing(std::string(kQuery) + " USING GBDT").ok());
}

TEST_F(ServeTest, PlanConstructedEngineServesTheCheckpoint) {
  // The plan shares the query engine's graph, so it (and the engine built
  // from it) stays servable after the PredictiveQueryEngine is destroyed.
  auto compile = [] {
    PredictiveQueryEngine pq(db_);
    return pq.CompileForServing(
        std::string(kQuery) +
        " USING GNN WITH hidden=16, layers=2, fanout=4, policy=recent, "
        "seed=3");
  };
  Result<ServePlan> plan = compile();
  ASSERT_TRUE(plan.ok());
  InferenceEngine engine(plan.value());
  ASSERT_TRUE(engine.LoadCheckpoint(ckpt_path_).ok());
  auto scores = engine.Score({1, 2, 3});
  ASSERT_TRUE(scores.ok());
  ASSERT_EQ(scores.value().size(), 3u);
  for (double s : scores.value()) {
    EXPECT_GT(s, 0.0);
    EXPECT_LT(s, 1.0);
  }
}

// -------------------------------------------------------------- concurrency

TEST_F(ServeTest, ConcurrentScoresMatchSerialReference) {
  ServeOptions off;
  off.enable_subgraph_cache = false;
  off.enable_embedding_cache = false;
  auto reference = MakeEngine(off);

  const int kThreads = 4;
  const int kIters = 5;
  // Per-thread id lists with heavy overlap so threads race on the same
  // cache entries.
  std::vector<std::vector<int64_t>> requests;
  for (int t = 0; t < kThreads; ++t) {
    requests.push_back({static_cast<int64_t>(t), 10, 20, 30,
                        static_cast<int64_t>(40 + t), 50});
  }
  std::vector<std::vector<double>> expected;
  for (const auto& req : requests) {
    auto want = reference->Score(req);
    ASSERT_TRUE(want.ok());
    expected.push_back(want.value());
  }

  auto engine = MakeEngine();
  std::vector<int> failures(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int it = 0; it < kIters; ++it) {
        auto got = engine->Score(requests[t]);
        if (!got.ok() || got.value() != expected[t]) ++failures[t];
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], 0) << "thread " << t;
  }
}

}  // namespace
}  // namespace relgraph
