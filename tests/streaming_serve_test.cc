// Serving-side differential harness for streaming ingestion: an engine fed
// incremental graph epochs through InferenceEngine::ApplyDelta must score
// bit-identically (exact doubles) to an engine built from a from-scratch
// batch rebuild at the same cutoff — caches on and off, at 1 and 4
// threads, through concurrent score/append interleavings, and across the
// fault-injection recovery paths. Also pins the cache-invalidation
// precision fix: a same-cutoff delta keeps warm entries whose sampled
// neighborhoods are untouched, instead of clearing the world.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "core/deadline.h"
#include "core/fault_injection.h"
#include "core/metrics.h"
#include "datagen/ecommerce.h"
#include "db2graph/graph_builder.h"
#include "db2graph/streaming.h"
#include "pq/engine.h"
#include "pq/label_builder.h"
#include "pq/parser.h"
#include "relational/append_log.h"
#include "sampler/neighbor_sampler.h"
#include "serve/inference_engine.h"
#include "train/trainer.h"

namespace relgraph {
namespace {

constexpr const char* kQuery =
    "PREDICT COUNT(orders) = 0 OVER NEXT 28 DAYS FOR EACH users";

/// Shared world: one small e-commerce database and one trained checkpoint.
/// Each test makes its own Database copy (by regenerating — generation is
/// bit-reproducible) so appends never leak between tests; the checkpoint
/// is layout-compatible with every streamed epoch because streams freeze
/// the encoder plans fitted on the identical base tables.
class StreamingServeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Database db = MakeDb();
    auto stream = StreamingDbGraph::Create(&db).value();
    // Train on the stream's own oracle build so the checkpoint matches
    // the frozen-plan feature layout exactly.
    dbg_ = new DbGraph(BuildDbGraph(db, stream->RebuildOptions()).value());
    users_ = dbg_->graph.FindNodeType("users").value();
    now_ = db.TimeRange().second + 1;

    auto rq = AnalyzeQuery(ParseQuery(kQuery).value(), db).value();
    auto cutoffs = MakeCutoffs(rq, db).value();
    auto table = BuildTrainingTable(rq, db, cutoffs).value();
    auto split = MakeSplit(rq, table, cutoffs).value();
    TrainerConfig tc;
    tc.epochs = 2;
    tc.seed = 3;
    GnnNodePredictor trainer(&dbg_->graph, users_,
                             TaskKind::kBinaryClassification, 2, Gnn(),
                             Sampler(), tc);
    ASSERT_TRUE(trainer.Fit(table, split).ok());
    ckpt_path_ = ::testing::TempDir() + "/streaming_serve_test." +
                 std::to_string(getpid()) + ".ckpt";
    ASSERT_TRUE(trainer.SaveWeights(ckpt_path_).ok());
  }

  static void TearDownTestSuite() {
    std::remove(ckpt_path_.c_str());
    delete dbg_;
    dbg_ = nullptr;
  }

  void SetUp() override { FaultInjector::Global().Reset(); }
  void TearDown() override { FaultInjector::Global().Reset(); }

  static Database MakeDb() {
    ECommerceConfig cfg;
    cfg.num_users = 60;
    cfg.num_products = 20;
    cfg.num_categories = 4;
    cfg.horizon_days = 120;
    return MakeECommerceDb(cfg);
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

  /// A loaded engine over `graph` at cutoff `now` (shared checkpoint). The
  /// engine keeps a stream-published epoch alive even after the stream
  /// publishes a newer one.
  static std::unique_ptr<InferenceEngine> MakeEngine(
      std::shared_ptr<const HeteroGraph> graph, Timestamp now,
      const ServeOptions& serve) {
    auto engine = std::make_unique<InferenceEngine>(
        std::move(graph), users_, TaskKind::kBinaryClassification, 2, Gnn(),
        Sampler(), now, serve);
    EXPECT_TRUE(engine->LoadCheckpoint(ckpt_path_).ok());
    return engine;
  }

  /// Appends `n` orders at `ts` from consecutive existing users, starting
  /// a fresh PK range above anything the generator produced.
  static AppendBatch OrderAppends(const Database& db, int64_t n,
                                  Timestamp ts, int64_t first_user = 0) {
    const int64_t next_id = db.table("orders").num_rows() + 1000000;
    const int64_t num_users = db.table("users").num_rows();
    const int64_t num_products = db.table("products").num_rows();
    AppendBatch batch;
    for (int64_t i = 0; i < n; ++i) {
      // Generator PKs are 1-based; node id = PK - 1.
      const int64_t user_pk = (first_user + i) % num_users + 1;
      const int64_t product_pk = i % num_products + 1;
      batch.Add("orders",
                {Value(next_id + i), Value(user_pk), Value(product_pk),
                 Value::Time(ts), Value(int64_t{1}), Value(9.5),
                 Value(9.5)});
    }
    return batch;
  }

  /// Appends `n` brand-new users (touches no existing adjacency).
  static AppendBatch UserAppends(const Database& db, int64_t n) {
    const int64_t next_id = db.table("users").num_rows() + 1000000;
    AppendBatch batch;
    for (int64_t i = 0; i < n; ++i) {
      batch.Add("users", {Value(next_id + i), Value("be"), Value(35.0),
                          Value(i % 2 == 0)});
    }
    return batch;
  }

  static DbGraph* dbg_;
  static NodeTypeId users_;
  static Timestamp now_;
  static std::string ckpt_path_;
};

DbGraph* StreamingServeTest::dbg_ = nullptr;
NodeTypeId StreamingServeTest::users_ = 0;
Timestamp StreamingServeTest::now_ = 0;
std::string StreamingServeTest::ckpt_path_;

std::vector<int64_t> SomeUsers() {
  return {0, 7, 13, 13, 21, 34, 55, 2, 40, 59};
}

void ExpectScoresExactlyEqual(const std::vector<double>& got,
                              const std::vector<double>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << "score " << i;  // exact doubles
  }
}

// --------------------------------------------------- the differential gate

TEST_F(StreamingServeTest, ScoresBitIdenticalIncrementalVsRebuilt) {
  Database db = MakeDb();
  auto stream = StreamingDbGraph::Create(&db).value();

  std::vector<ServeOptions> configs;
  {
    ServeOptions both;
    configs.push_back(both);
    ServeOptions none;
    none.enable_subgraph_cache = false;
    none.enable_embedding_cache = false;
    configs.push_back(none);
  }

  for (size_t c = 0; c < configs.size(); ++c) {
    SCOPED_TRACE("config " + std::to_string(c));
    // Fresh world per config so cache state never leaks across configs.
    Database db_inc = MakeDb();
    auto s = StreamingDbGraph::Create(&db_inc).value();
    auto incremental = MakeEngine(s->graph(), now_, configs[c]);

    // Warm the incremental engine pre-delta, then stream three batches
    // (orders before the cutoff, so they change real neighborhoods, plus
    // new users) and publish each epoch through ApplyDelta.
    ASSERT_TRUE(incremental->Score(SomeUsers()).ok());
    for (int64_t round = 0; round < 3; ++round) {
      AppendBatch batch = OrderAppends(db_inc, 6, now_ - 1 - round,
                                       /*first_user=*/round * 11);
      for (auto& row : UserAppends(db_inc, 2).rows) {
        batch.rows.push_back(row);
      }
      auto result = s->Apply(batch);
      ASSERT_TRUE(result.ok()) << result.status().message();
      ASSERT_EQ(result.value().outcome.rows_quarantined, 0);
      ASSERT_TRUE(incremental
                      ->ApplyDelta(result.value().graph, now_,
                                   result.value().delta)
                      .ok());
    }

    // The oracle: a from-scratch batch build of the SAME grown database
    // under the stream's frozen plans, served by a fresh engine.
    auto rebuilt = std::make_shared<DbGraph>(
        BuildDbGraph(db_inc, s->RebuildOptions()).value());
    auto reference = MakeEngine(SharedGraph(rebuilt), now_, configs[c]);

    // Score ids spanning old and brand-new users.
    std::vector<int64_t> ids = SomeUsers();
    ids.push_back(rebuilt->graph.num_nodes(users_) - 1);
    ids.push_back(rebuilt->graph.num_nodes(users_) - 3);

    auto want = reference->Score(ids);
    ASSERT_TRUE(want.ok());
    // 1 thread.
    auto got = incremental->Score(ids);
    ASSERT_TRUE(got.ok());
    ExpectScoresExactlyEqual(got.value(), want.value());
    // Scoring again through warm caches changes nothing.
    ExpectScoresExactlyEqual(incremental->Score(ids).value(), want.value());

    // 4 threads, disjoint slices, against the same reference.
    std::vector<std::thread> threads;
    std::vector<Status> statuses(4, Status::OK());
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&, t] {
        for (int rep = 0; rep < 3; ++rep) {
          auto scores = incremental->Score(ids);
          if (!scores.ok()) {
            statuses[t] = scores.status();
            return;
          }
          for (size_t i = 0; i < ids.size(); ++i) {
            if (scores.value()[i] != want.value()[i]) {
              statuses[t] = Status::Internal("score mismatch under threads");
              return;
            }
          }
        }
      });
    }
    for (auto& th : threads) th.join();
    for (const auto& st : statuses) ASSERT_TRUE(st.ok()) << st.message();
  }
}

// ------------------------------------------------ invalidation precision

TEST_F(StreamingServeTest, NodeOnlyDeltaKeepsEveryWarmEntry) {
  Database db = MakeDb();
  auto stream = StreamingDbGraph::Create(&db).value();
  auto engine = MakeEngine(stream->graph(), now_, ServeOptions{});

  const std::vector<int64_t> ids = SomeUsers();
  ASSERT_TRUE(engine->Score(ids).ok());
  auto before = engine->Score(ids);  // fully warm round
  ASSERT_TRUE(before.ok());
  const ServeStats warm = engine->stats();

  // New users only: no existing node's adjacency changes.
  auto result = stream->Apply(UserAppends(db, 4));
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().delta.TotalTouched(), 0);
  ASSERT_TRUE(
      engine->ApplyDelta(result.value().graph, now_, result.value().delta)
          .ok());

  auto after = engine->Score(ids);
  ASSERT_TRUE(after.ok());
  ExpectScoresExactlyEqual(after.value(), before.value());

  // Every entry survived the migration: zero new embedding misses, and no
  // wholesale shard swap happened.
  const ServeStats stats = engine->stats();
  EXPECT_EQ(stats.embedding_misses, warm.embedding_misses);
  EXPECT_GT(stats.embedding_hits, warm.embedding_hits);
  EXPECT_EQ(stats.shard_swaps, warm.shard_swaps);
  EXPECT_EQ(engine->snapshot_version(), 1);
}

TEST_F(StreamingServeTest, DeltaInvalidatesExactlyTheTouchedNeighborhoods) {
  Database db = MakeDb();
  auto stream = StreamingDbGraph::Create(&db).value();
  auto engine = MakeEngine(stream->graph(), now_, ServeOptions{});
  std::shared_ptr<const HeteroGraph> base = stream->graph();

  // Warm every user.
  std::vector<int64_t> all_users;
  for (int64_t u = 0; u < base->num_nodes(users_); ++u) {
    all_users.push_back(u);
  }
  ASSERT_TRUE(engine->Score(all_users).ok());

  // One appended order touches one user and one product.
  auto result = stream->Apply(OrderAppends(db, 1, now_ - 1,
                                           /*first_user=*/5));
  ASSERT_TRUE(result.ok());
  const GraphDelta& delta = result.value().delta;
  ASSERT_GT(delta.TotalTouched(), 0);

  // Predict survival per user with the engine's own sampling stream: an
  // entry survives iff its deepest sampled frontier avoids every touched
  // node (over the OLD epoch — that is what the cache holds).
  NeighborSampler sampler(base.get(), Sampler());
  int64_t expect_invalidated = 0, expect_survived = 0;
  for (int64_t u : all_users) {
    Subgraph sg =
        sampler.SampleForServing(users_, u, now_, engine->serving_salt());
    bool hit = false;
    const auto& deepest = sg.frontiers.back();
    for (size_t t = 0; t < deepest.nodes.size() && !hit; ++t) {
      if (t >= delta.touched.size() || delta.touched[t].empty()) continue;
      std::unordered_set<int64_t> touched(delta.touched[t].begin(),
                                          delta.touched[t].end());
      for (int64_t node : deepest.nodes[t]) {
        if (touched.count(node)) {
          hit = true;
          break;
        }
      }
    }
    (hit ? expect_invalidated : expect_survived) += 1;
  }
  ASSERT_GT(expect_invalidated, 0);  // the touched user itself at least
  ASSERT_GT(expect_survived, 0);     // precision: most of the world is far

  const ServeStats warm = engine->stats();
  ASSERT_TRUE(
      engine->ApplyDelta(result.value().graph, now_, delta).ok());
  auto rescored = engine->Score(all_users);
  ASSERT_TRUE(rescored.ok());

  // Exactly the predicted entries re-missed; everything else stayed warm.
  const ServeStats stats = engine->stats();
  EXPECT_EQ(stats.embedding_misses - warm.embedding_misses,
            expect_invalidated);
  EXPECT_EQ(stats.embedding_hits - warm.embedding_hits, expect_survived);
  EXPECT_EQ(stats.shard_swaps, warm.shard_swaps);

  // And the refreshed world matches the from-scratch oracle exactly.
  auto rebuilt = std::make_shared<DbGraph>(
      BuildDbGraph(db, stream->RebuildOptions()).value());
  auto reference = MakeEngine(SharedGraph(rebuilt), now_, ServeOptions{});
  ExpectScoresExactlyEqual(rescored.value(),
                           reference->Score(all_users).value());
}

TEST_F(StreamingServeTest, EmbeddingsSurviveDeltaWithSubgraphCacheOff) {
  // Embeddings carry their own dependencies, so precise invalidation needs
  // no subgraph cache. Metrics are off, as in an uninstrumented server:
  // invalidation must not hinge on instrumentation.
  const bool metrics_were_on = MetricsEnabled();
  SetMetricsEnabled(false);
  struct RestoreMetrics {
    bool on;
    ~RestoreMetrics() { SetMetricsEnabled(on); }
  } restore{metrics_were_on};

  Database db = MakeDb();
  auto stream = StreamingDbGraph::Create(&db).value();
  std::shared_ptr<const HeteroGraph> base = stream->graph();
  ServeOptions opts;
  opts.enable_subgraph_cache = false;
  auto engine = MakeEngine(base, now_, opts);

  std::vector<int64_t> all_users;
  for (int64_t u = 0; u < base->num_nodes(users_); ++u) {
    all_users.push_back(u);
  }
  ASSERT_TRUE(engine->Score(all_users).ok());

  // One order for user 5: touches that user's neighbourhood only.
  auto result = stream->Apply(OrderAppends(db, 1, now_ - 1,
                                           /*first_user=*/5));
  ASSERT_TRUE(result.ok());
  const GraphDelta& delta = result.value().delta;

  // Which warm entries read a touched node (on the OLD epoch).
  NeighborSampler sampler(base.get(), Sampler());
  std::vector<bool> touched_seed(all_users.size(), false);
  for (int64_t u : all_users) {
    const Subgraph sg =
        sampler.SampleForServing(users_, u, now_, engine->serving_salt());
    const auto& deepest = sg.frontiers.back();
    for (size_t t = 0; t < deepest.nodes.size(); ++t) {
      if (t >= delta.touched.size()) continue;
      for (int64_t node : deepest.nodes[t]) {
        if (std::binary_search(delta.touched[t].begin(),
                               delta.touched[t].end(), node)) {
          touched_seed[static_cast<size_t>(u)] = true;
        }
      }
    }
  }
  ASSERT_TRUE(touched_seed[5]);

  ASSERT_TRUE(engine->ApplyDelta(result.value().graph, now_, delta).ok());
  int64_t survivors = 0;
  for (int64_t u : all_users) {
    const ServeStats before = engine->stats();
    ASSERT_TRUE(engine->Score({u}).ok());
    const bool hit = engine->stats().embedding_hits > before.embedding_hits;
    EXPECT_EQ(hit, !touched_seed[static_cast<size_t>(u)]) << "user " << u;
    survivors += hit ? 1 : 0;
  }
  EXPECT_GT(survivors, 0);

  auto rebuilt = std::make_shared<DbGraph>(
      BuildDbGraph(db, stream->RebuildOptions()).value());
  ServeOptions off;
  off.enable_subgraph_cache = false;
  off.enable_embedding_cache = false;
  auto reference = MakeEngine(SharedGraph(rebuilt), now_, off);
  ExpectScoresExactlyEqual(engine->Score(all_users).value(),
                           reference->Score(all_users).value());
}

/// A real clock that parks one chosen thread on its next reading until the
/// test releases it — a reader stalled right after pinning its snapshot.
class ParkingClock : public Clock {
 public:
  int64_t NowNanos() const override {
    std::unique_lock<std::mutex> lock(mu_);
    if (std::this_thread::get_id() == parked_) {
      parked_ = std::thread::id();
      state_ = State::kParked;
      cv_.notify_all();
      cv_.wait(lock, [this] { return state_ == State::kReleased; });
    }
    return Clock::Real()->NowNanos();
  }

  /// The calling thread parks on its next NowNanos().
  void ParkNextReadOnThisThread() {
    std::lock_guard<std::mutex> lock(mu_);
    parked_ = std::this_thread::get_id();
  }
  void WaitUntilParked() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return state_ == State::kParked; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    state_ = State::kReleased;
    cv_.notify_all();
  }

 private:
  enum class State { kIdle, kParked, kReleased };
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  mutable std::thread::id parked_;
  mutable State state_ = State::kIdle;
};

TEST_F(StreamingServeTest, StragglerPutAfterInvalidationIsNeverServed) {
  // A reader pinned to version 0 computes two seeds after ApplyDelta(1)
  // invalidated both: seed 5 was cached (its entry got invalidated), seed
  // 6 was not (nothing of it was indexed when the delta arrived). Its
  // late Puts must never be served at version 1.
  Database db = MakeDb();
  auto stream = StreamingDbGraph::Create(&db).value();
  std::shared_ptr<const HeteroGraph> base = stream->graph();
  ParkingClock clock;
  ServeOptions opts;
  opts.clock = &clock;
  auto engine = MakeEngine(base, now_, opts);
  const std::vector<int64_t> seeds = {5, 6};

  Result<ScoreResponse> straggler = Status::Internal("not run");
  std::thread reader([&] {
    ScoreRequest request;
    request.entity_ids = seeds;
    clock.ParkNextReadOnThisThread();
    straggler = engine->ScoreWithOptions(request);
  });
  clock.WaitUntilParked();
  ASSERT_TRUE(engine->Score({5}).ok());  // cached at version 0
  auto result = stream->Apply(OrderAppends(db, 2, now_ - 1,
                                           /*first_user=*/5));
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().delta.touched[users_],
            (std::vector<int64_t>{5, 6}));
  ASSERT_TRUE(
      engine->ApplyDelta(result.value().graph, now_, result.value().delta)
          .ok());
  clock.Release();
  reader.join();

  // The straggler answered for the snapshot it pinned.
  ASSERT_TRUE(straggler.ok()) << straggler.status().message();
  EXPECT_EQ(straggler.value().snapshot_version, 0);
  ServeOptions off;
  off.enable_subgraph_cache = false;
  off.enable_embedding_cache = false;
  ExpectScoresExactlyEqual(straggler.value().scores,
                           MakeEngine(base, now_, off)->Score(seeds).value());

  // Version 1 recomputes both seeds rather than serving the late Puts.
  const ServeStats before = engine->stats();
  auto fresh = engine->Score(seeds);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(engine->stats().embedding_hits, before.embedding_hits);
  EXPECT_EQ(engine->stats().subgraph_hits, before.subgraph_hits);
  auto rebuilt = std::make_shared<DbGraph>(
      BuildDbGraph(db, stream->RebuildOptions()).value());
  ExpectScoresExactlyEqual(
      fresh.value(),
      MakeEngine(SharedGraph(rebuilt), now_, off)->Score(seeds).value());
}

TEST_F(StreamingServeTest, CutoffAdvanceSwapsWholesale) {
  Database db = MakeDb();
  auto stream = StreamingDbGraph::Create(&db).value();
  auto engine = MakeEngine(stream->graph(), now_, ServeOptions{});

  const std::vector<int64_t> ids = SomeUsers();
  ASSERT_TRUE(engine->Score(ids).ok());
  const ServeStats warm = engine->stats();

  auto result = stream->Apply(UserAppends(db, 1));
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(engine
                  ->ApplyDelta(result.value().graph, now_ + 1,
                               result.value().delta)
                  .ok());

  // A moved cutoff changes every sampling stream: nothing is reusable.
  auto rescored = engine->Score(ids);
  ASSERT_TRUE(rescored.ok());
  const ServeStats stats = engine->stats();
  EXPECT_EQ(stats.shard_swaps, warm.shard_swaps + 1);
  EXPECT_GT(stats.embedding_misses, warm.embedding_misses);

  auto reference =
      MakeEngine(result.value().graph, now_ + 1, ServeOptions{});
  ExpectScoresExactlyEqual(rescored.value(),
                           reference->Score(ids).value());
}

TEST_F(StreamingServeTest, BrokenDeltaChainFallsBackToWholesaleSwap) {
  // An engine that missed an epoch (e.g. its publish failed) and then
  // applies only the NEWEST delta must not migrate caches — the missed
  // delta's invalidations would be lost. The engine detects the broken
  // chain (delta base counts != current snapshot) and swaps wholesale.
  Database db = MakeDb();
  auto stream = StreamingDbGraph::Create(&db).value();
  auto engine = MakeEngine(stream->graph(), now_, ServeOptions{});

  const std::vector<int64_t> ids = SomeUsers();
  ASSERT_TRUE(engine->Score(ids).ok());
  const ServeStats warm = engine->stats();

  // Epoch 1 is never published to the engine (adds users AND orders, so
  // skipping its invalidations would matter).
  AppendBatch first = OrderAppends(db, 2, now_ - 1, /*first_user=*/0);
  for (auto& row : UserAppends(db, 2).rows) first.rows.push_back(row);
  ASSERT_TRUE(stream->Apply(first).ok());

  // Epoch 2's delta describes the change from epoch 1, not from the
  // engine's current (base) snapshot.
  auto second = stream->Apply(OrderAppends(db, 2, now_ - 1,
                                           /*first_user=*/9));
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(engine
                  ->ApplyDelta(second.value().graph, now_,
                               second.value().delta)
                  .ok());

  // Wholesale, not precise: the embedding cache was epoch-swapped.
  EXPECT_EQ(engine->stats().shard_swaps, warm.shard_swaps + 1);

  auto rebuilt = std::make_shared<DbGraph>(
      BuildDbGraph(db, stream->RebuildOptions()).value());
  auto reference = MakeEngine(SharedGraph(rebuilt), now_, ServeOptions{});
  ExpectScoresExactlyEqual(engine->Score(ids).value(),
                           reference->Score(ids).value());
}

// ------------------------------------------------------------ fault paths

TEST_F(StreamingServeTest, PoisonedDeltaLeavesPreviousSnapshotServable) {
  Database db = MakeDb();
  auto stream = StreamingDbGraph::Create(&db).value();
  auto engine = MakeEngine(stream->graph(), now_, ServeOptions{});

  const std::vector<int64_t> ids = SomeUsers();
  auto before = engine->Score(ids);
  ASSERT_TRUE(before.ok());
  const int64_t version = engine->snapshot_version();

  auto result = stream->Apply(OrderAppends(db, 3, now_ - 1));
  ASSERT_TRUE(result.ok());

  FaultInjector::Global().Arm(FaultSite::kServeSnapshotAdvance);
  Status st =
      engine->ApplyDelta(result.value().graph, now_, result.value().delta);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(FaultInjector::Global().fired(FaultSite::kServeSnapshotAdvance),
            1);

  // The engine still serves the OLD snapshot, bit-identically.
  EXPECT_EQ(engine->snapshot_version(), version);
  EXPECT_EQ(engine->state(), ServeState::kServing);  // breaker not latched
  ExpectScoresExactlyEqual(engine->Score(ids).value(), before.value());

  // The retry (fault cleared) publishes the delta and matches the oracle.
  FaultInjector::Global().Reset();
  ASSERT_TRUE(
      engine->ApplyDelta(result.value().graph, now_, result.value().delta)
          .ok());
  auto rebuilt = std::make_shared<DbGraph>(
      BuildDbGraph(db, stream->RebuildOptions()).value());
  auto reference = MakeEngine(SharedGraph(rebuilt), now_, ServeOptions{});
  ExpectScoresExactlyEqual(engine->Score(ids).value(),
                           reference->Score(ids).value());
}

TEST_F(StreamingServeTest, StreamRecoveryEpochServesBitIdentically) {
  // A mid-apply fault inside the streaming layer forces its rebuild
  // recovery; the recovered epoch must serve exactly like the oracle.
  Database db = MakeDb();
  auto stream = StreamingDbGraph::Create(&db).value();
  auto engine = MakeEngine(stream->graph(), now_, ServeOptions{});
  ASSERT_TRUE(engine->Score(SomeUsers()).ok());

  FaultInjector::Global().Arm(FaultSite::kAppendApply);
  auto result = stream->Apply(OrderAppends(db, 4, now_ - 1));
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result.value().recovered);
  FaultInjector::Global().Reset();

  ASSERT_TRUE(
      engine->ApplyDelta(result.value().graph, now_, result.value().delta)
          .ok());
  auto rebuilt = std::make_shared<DbGraph>(
      BuildDbGraph(db, stream->RebuildOptions()).value());
  auto reference = MakeEngine(SharedGraph(rebuilt), now_, ServeOptions{});
  ExpectScoresExactlyEqual(engine->Score(SomeUsers()).value(),
                           reference->Score(SomeUsers()).value());
}

// ------------------------------------------------- concurrent interleaving

TEST_F(StreamingServeTest, ConcurrentScoresAndDeltasStayConsistent) {
  // Four scorer threads hammer the engine while the writer streams
  // batches and publishes deltas. Every request must succeed (admission
  // is unbounded here) and the final state must match the from-scratch
  // oracle. Run under TSan in the ci.sh tsan lane.
  Database db = MakeDb();
  auto stream = StreamingDbGraph::Create(&db).value();
  auto engine = MakeEngine(stream->graph(), now_, ServeOptions{});

  // Only ids valid in EVERY epoch (scorers race with version bumps).
  const std::vector<int64_t> ids = SomeUsers();
  ASSERT_TRUE(engine->Score(ids).ok());

  std::atomic<bool> done{false};
  std::atomic<int64_t> failures{0};
  std::vector<std::thread> scorers;
  for (int t = 0; t < 4; ++t) {
    scorers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        auto scores = engine->Score(ids);
        if (!scores.ok() || scores.value().size() != ids.size()) {
          failures.fetch_add(1, std::memory_order_relaxed);
          return;
        }
      }
    });
  }

  for (int64_t round = 0; round < 8; ++round) {
    AppendBatch batch = OrderAppends(db, 3, now_ - 1, round * 7);
    for (auto& row : UserAppends(db, 1).rows) batch.rows.push_back(row);
    auto result = stream->Apply(batch);
    ASSERT_TRUE(result.ok());
    ASSERT_TRUE(engine
                    ->ApplyDelta(result.value().graph, now_,
                                 result.value().delta)
                    .ok());
  }
  done.store(true, std::memory_order_release);
  for (auto& th : scorers) th.join();
  EXPECT_EQ(failures.load(), 0);

  auto rebuilt = std::make_shared<DbGraph>(
      BuildDbGraph(db, stream->RebuildOptions()).value());
  auto reference = MakeEngine(SharedGraph(rebuilt), now_, ServeOptions{});
  ExpectScoresExactlyEqual(engine->Score(ids).value(),
                           reference->Score(ids).value());
}

}  // namespace
}  // namespace relgraph
