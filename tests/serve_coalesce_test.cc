// Multi-threaded tests of the coalescing scheduler and the epoch-swapped
// snapshot shards (src/serve/coalescing_scheduler.h, snapshot_shards.h).
//
// The load-bearing claim: coalescing is INVISIBLE in the scores. N threads
// scoring overlapping Zipfian id sets through the scheduler must produce
// bit-identical doubles to serial solo calls — with caches on, off, and
// while ApplyDelta swaps the world mid-flight (the response's
// snapshot_version says which world answered, and the scores must match
// that world's reference exactly). Runs under TSan in scripts/ci.sh
// (serve_mt lane).

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/deadline.h"
#include "core/rng.h"
#include "datagen/ecommerce.h"
#include "db2graph/graph_builder.h"
#include "pq/engine.h"
#include "pq/label_builder.h"
#include "pq/parser.h"
#include "serve/coalescing_scheduler.h"
#include "serve/snapshot_shards.h"
#include "train/trainer.h"

namespace relgraph {
namespace {

constexpr const char* kQuery =
    "PREDICT COUNT(orders) = 0 OVER NEXT 28 DAYS FOR EACH users";
constexpr int64_t kUsers = 80;

// ------------------------------------------------------- ShardedLruCache

TEST(ShardedLruCacheTest, GetReturnsWhatPutStoredPerShard) {
  ShardedLruCache<int64_t, int> cache(/*capacity=*/64, /*num_shards=*/4);
  EXPECT_EQ(cache.num_shards(), 4u);
  const uint32_t s1 = EntityShard(1, cache.num_shards());
  const uint32_t s2 = EntityShard(2, cache.num_shards());
  int v = 0;
  EXPECT_FALSE(cache.Get(s1, 1, &v, 0));
  cache.Put(s1, 1, 10, 0, {});
  cache.Put(s2, 2, 20, 0, {});
  ASSERT_TRUE(cache.Get(s1, 1, &v, 0));
  EXPECT_EQ(v, 10);
  ASSERT_TRUE(cache.Get(s2, 2, &v, 0));
  EXPECT_EQ(v, 20);
  EXPECT_EQ(cache.size(), 2);
  EXPECT_EQ(cache.hits(), 2);
  EXPECT_EQ(cache.misses(), 1);
}

TEST(ShardedLruCacheTest, EntityShardIsPureAndInRange) {
  for (int64_t id = 0; id < 1000; ++id) {
    const uint32_t s = EntityShard(id, 8);
    EXPECT_LT(s, 8u);
    EXPECT_EQ(s, EntityShard(id, 8));
  }
}

TEST(ShardedLruCacheTest, EpochSwapEmptiesButFoldsTallies) {
  ShardedLruCache<int64_t, int> cache(64, 4);
  const uint32_t s = EntityShard(7, cache.num_shards());
  cache.Put(s, 7, 70, 0, {});
  int v = 0;
  ASSERT_TRUE(cache.Get(s, 7, &v, 0));
  cache.EpochSwap(/*version=*/0);
  EXPECT_EQ(cache.size(), 0);
  EXPECT_FALSE(cache.Get(s, 7, &v, 0));  // retired entries are gone
  EXPECT_EQ(cache.hits(), 1);         // tallies survive the swap
  EXPECT_EQ(cache.misses(), 1);
  EXPECT_EQ(cache.swaps(), 1);
}

TEST(ShardedLruCacheTest, ShardCountRoundsUpToPowerOfTwo) {
  ShardedLruCache<int64_t, int> cache(64, 5);
  EXPECT_EQ(cache.num_shards(), 8u);
  ShardedLruCache<int64_t, int> one(64, 1);
  EXPECT_EQ(one.num_shards(), 1u);
}

// --------------------------------------------------------------- fixture

/// One trained checkpoint over database A plus a same-layout database B
/// with DIFFERENT data (so a wrong-snapshot answer is detectable), shared
/// across all tests in the suite.
class CoalesceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ECommerceConfig cfg;
    cfg.num_users = kUsers;
    cfg.num_products = 25;
    cfg.num_categories = 4;
    cfg.horizon_days = 150;
    db_a_ = new Database(MakeECommerceDb(cfg));
    cfg.seed = 43;  // different world, identical layout
    db_b_ = new Database(MakeECommerceDb(cfg));
    dbg_a_ = std::make_shared<DbGraph>(BuildDbGraph(*db_a_).value());
    dbg_b_ = std::make_shared<DbGraph>(BuildDbGraph(*db_b_).value());
    users_ = dbg_a_->graph.FindNodeType("users").value();

    auto rq = AnalyzeQuery(ParseQuery(kQuery).value(), *db_a_).value();
    auto cutoffs = MakeCutoffs(rq, *db_a_).value();
    auto table = BuildTrainingTable(rq, *db_a_, cutoffs).value();
    auto split = MakeSplit(rq, table, cutoffs).value();
    TrainerConfig tc;
    tc.epochs = 2;
    tc.seed = 3;
    GnnNodePredictor trainer(&dbg_a_->graph, users_,
                             TaskKind::kBinaryClassification, 2, Gnn(),
                             Sampler(), tc);
    ASSERT_TRUE(trainer.Fit(table, split).ok());
    ckpt_path_ = ::testing::TempDir() + "/serve_coalesce_test." +
                 std::to_string(getpid()) + ".ckpt";
    ASSERT_TRUE(trainer.SaveWeights(ckpt_path_).ok());

    ref_a_ = ReferenceScores(dbg_a_);
    ref_b_ = ReferenceScores(dbg_b_);
    bool differs = false;
    for (size_t i = 0; i < ref_a_.size(); ++i) {
      if (ref_a_[i] != ref_b_[i]) differs = true;
    }
    ASSERT_TRUE(differs);  // version checks need teeth
  }

  static void TearDownTestSuite() {
    std::remove(ckpt_path_.c_str());
    dbg_b_.reset();
    dbg_a_.reset();
    delete db_b_;
    delete db_a_;
    db_b_ = db_a_ = nullptr;
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

  static Timestamp Now() {
    return std::max(db_a_->TimeRange().second, db_b_->TimeRange().second) + 1;
  }

  static std::unique_ptr<InferenceEngine> MakeEngine(
      const ServeOptions& serve = {},
      const std::shared_ptr<DbGraph>& dbg = dbg_a_) {
    auto engine = std::make_unique<InferenceEngine>(
        SharedGraph(dbg), users_, TaskKind::kBinaryClassification, 2, Gnn(),
        Sampler(), Now(), serve);
    EXPECT_TRUE(engine->LoadCheckpoint(ckpt_path_).ok());
    return engine;
  }

  /// Per-id solo scores over `graph`, computed cacheless: the ground
  /// truth every coalesced answer is compared against bit-for-bit.
  static std::vector<double> ReferenceScores(
      const std::shared_ptr<DbGraph>& dbg) {
    ServeOptions off;
    off.enable_subgraph_cache = false;
    off.enable_embedding_cache = false;
    auto engine = MakeEngine(off, dbg);
    std::vector<int64_t> ids(kUsers);
    for (int64_t i = 0; i < kUsers; ++i) ids[static_cast<size_t>(i)] = i;
    auto scores = engine->Score(ids);
    EXPECT_TRUE(scores.ok());
    return scores.value();
  }

  /// Zipfian request streams: `threads` clients, each issuing `requests`
  /// batches of `batch` skewed ids — heavy overlap across clients is the
  /// point (that is what coalescing dedups).
  static std::vector<std::vector<std::vector<int64_t>>> MakeStreams(
      int threads, int requests, int batch) {
    std::vector<std::vector<std::vector<int64_t>>> streams(
        static_cast<size_t>(threads));
    for (int t = 0; t < threads; ++t) {
      Rng rng(900 + static_cast<uint64_t>(t));
      for (int r = 0; r < requests; ++r) {
        std::vector<int64_t> ids(static_cast<size_t>(batch));
        for (int i = 0; i < batch; ++i) {
          ids[static_cast<size_t>(i)] =
              rng.PowerLawIndex(static_cast<int>(kUsers), 1.1);
        }
        streams[static_cast<size_t>(t)].push_back(std::move(ids));
      }
    }
    return streams;
  }

  /// Runs every stream through `scheduler` on its own thread and checks
  /// each response bit-for-bit against the per-version reference (A for
  /// even snapshot versions, B for odd — the advance tests alternate).
  static void FloodAndVerify(
      CoalescingScheduler* scheduler,
      const std::vector<std::vector<std::vector<int64_t>>>& streams) {
    std::atomic<int> failures{0};
    std::vector<std::thread> workers;
    for (const auto& stream : streams) {
      workers.emplace_back([&, stream_ptr = &stream] {
        for (const auto& ids : *stream_ptr) {
          ScoreRequest req;
          req.entity_ids = ids;
          auto result = scheduler->Score(req);
          if (!result.ok()) {
            ++failures;
            continue;
          }
          const ScoreResponse& resp = result.value();
          const std::vector<double>& ref =
              resp.snapshot_version % 2 == 0 ? ref_a_ : ref_b_;
          if (resp.scores.size() != ids.size()) {
            ++failures;
            continue;
          }
          for (size_t i = 0; i < ids.size(); ++i) {
            if (resp.scores[i] != ref[static_cast<size_t>(ids[i])]) {
              ++failures;
            }
          }
        }
      });
    }
    for (auto& w : workers) w.join();
    EXPECT_EQ(failures.load(), 0);
  }

  static Database* db_a_;
  static Database* db_b_;
  static std::shared_ptr<DbGraph> dbg_a_;
  static std::shared_ptr<DbGraph> dbg_b_;
  static NodeTypeId users_;
  static std::string ckpt_path_;
  static std::vector<double> ref_a_;
  static std::vector<double> ref_b_;
};

Database* CoalesceTest::db_a_ = nullptr;
Database* CoalesceTest::db_b_ = nullptr;
std::shared_ptr<DbGraph> CoalesceTest::dbg_a_;
std::shared_ptr<DbGraph> CoalesceTest::dbg_b_;
NodeTypeId CoalesceTest::users_ = 0;
std::string CoalesceTest::ckpt_path_;
std::vector<double> CoalesceTest::ref_a_;
std::vector<double> CoalesceTest::ref_b_;

// ----------------------------------------------------------- bit-identity

TEST_F(CoalesceTest, SoloAndCoalescedBitIdenticalSerially) {
  auto engine = MakeEngine();
  CoalesceOptions copts;
  copts.wait_window_ms = 0.0;  // serial use: every call its own batch
  CoalescingScheduler scheduler(engine.get(), copts);

  const std::vector<int64_t> ids = {5, 17, 5, 3, 42, 17, 8, 0, 61, 5};
  ScoreRequest req;
  req.entity_ids = ids;
  auto result = scheduler.Score(req);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().scores.size(), ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(result.value().scores[i], ref_a_[static_cast<size_t>(ids[i])]);
    EXPECT_EQ(result.value().row_flags[i], kRowResolved);
  }
  EXPECT_EQ(result.value().rows_resolved, static_cast<int64_t>(ids.size()));

  // Empty requests flow through like solo ones.
  auto empty = scheduler.Score(ScoreRequest{});
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty.value().scores.empty());

  const CoalesceStats s = scheduler.stats();
  EXPECT_EQ(s.requests, 2);
  EXPECT_EQ(s.batches, 2);
  EXPECT_EQ(s.coalesced_requests, 0);
  // In-request duplicates dedup too: 10 submitted, 7 unique executed.
  EXPECT_EQ(s.rows_submitted, 10);
  EXPECT_EQ(s.rows_executed, 7);
  EXPECT_EQ(s.dedup_rows, 3);
}

TEST_F(CoalesceTest, ConcurrentZipfianMatchesSoloExactly) {
  auto engine = MakeEngine();
  CoalesceOptions copts;
  copts.wait_window_ms = 0.5;
  CoalescingScheduler scheduler(engine.get(), copts);
  FloodAndVerify(&scheduler, MakeStreams(4, 25, 12));
  const CoalesceStats s = scheduler.stats();
  EXPECT_EQ(s.requests, 100);
  EXPECT_GT(s.dedup_rows, 0);  // Zipfian overlap must dedup something
  EXPECT_EQ(s.rows_submitted, 100 * 12);
}

TEST_F(CoalesceTest, ConcurrentCachesOffBitIdentical) {
  ServeOptions opts;
  opts.enable_subgraph_cache = false;
  opts.enable_embedding_cache = false;
  auto engine = MakeEngine(opts);
  CoalesceOptions copts;
  copts.wait_window_ms = 0.5;
  CoalescingScheduler scheduler(engine.get(), copts);
  FloodAndVerify(&scheduler, MakeStreams(4, 15, 8));
}

TEST_F(CoalesceTest, CoalesceUnderMidFlightAdvance) {
  auto engine = MakeEngine();
  CoalesceOptions copts;
  copts.wait_window_ms = 0.3;
  CoalescingScheduler scheduler(engine.get(), copts);

  std::atomic<bool> stop{false};
  std::thread advancer([&] {
    // Alternate worlds while scorers run: even versions = A, odd = B.
    int flips = 0;
    while (!stop.load(std::memory_order_relaxed) && flips < 200) {
      const auto& next =
          (engine->snapshot_version() % 2 == 0) ? dbg_b_ : dbg_a_;
      ASSERT_TRUE(engine->ApplyDelta(SharedGraph(next), Now(), {}).ok());
      ++flips;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  FloodAndVerify(&scheduler, MakeStreams(4, 20, 8));
  stop.store(true, std::memory_order_relaxed);
  advancer.join();
  EXPECT_GT(engine->stats().shard_swaps, 0);
}

// -------------------------------------------------- batch formation rules

TEST_F(CoalesceTest, TwoRequestsShareOneBatchAndDedupOverlap) {
  auto engine = MakeEngine();
  CoalesceOptions copts;
  copts.wait_window_ms = 10000.0;  // gather until capacity closes the batch
  copts.max_batch_rows = 4;        // == |{1,2,3} ∪ {2,3,4}|
  CoalescingScheduler scheduler(engine.get(), copts);

  std::vector<double> scores_a, scores_b;
  std::thread ta([&] {
    ScoreRequest req;
    req.entity_ids = {1, 2, 3};
    auto r = scheduler.Score(req);
    ASSERT_TRUE(r.ok());
    scores_a = r.value().scores;
  });
  std::thread tb([&] {
    ScoreRequest req;
    req.entity_ids = {2, 3, 4};
    auto r = scheduler.Score(req);
    ASSERT_TRUE(r.ok());
    scores_b = r.value().scores;
  });
  ta.join();
  tb.join();

  ASSERT_EQ(scores_a.size(), 3u);
  ASSERT_EQ(scores_b.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(scores_a[static_cast<size_t>(i)],
              ref_a_[static_cast<size_t>(i + 1)]);
    EXPECT_EQ(scores_b[static_cast<size_t>(i)],
              ref_a_[static_cast<size_t>(i + 2)]);
  }
  const CoalesceStats s = scheduler.stats();
  EXPECT_EQ(s.requests, 2);
  EXPECT_EQ(s.batches, 1);             // ONE engine execution for both
  EXPECT_EQ(s.coalesced_requests, 2);  // both rode the shared batch
  EXPECT_EQ(s.rows_executed, 4);       // {1,2,3,4}
  EXPECT_EQ(s.dedup_rows, 2);          // {2,3} sampled/forwarded once
  EXPECT_EQ(engine->stats().requests, 1);
  EXPECT_EQ(engine->stats().entities_scored, 4);
}

TEST_F(CoalesceTest, DeadlineMarginFlushesWithoutWaiting) {
  FakeClock clock;
  ServeOptions opts;
  opts.clock = &clock;
  auto engine = MakeEngine(opts);
  CoalesceOptions copts;
  copts.wait_window_ms = 10000.0;  // would hang the test if waited out
  copts.deadline_margin_ms = 1.0;
  CoalescingScheduler scheduler(engine.get(), copts);

  ScoreRequest req;
  req.entity_ids = {5, 6};
  req.deadline = Deadline::AfterMillis(0.5, &clock);  // slack < margin
  const auto start = std::chrono::steady_clock::now();
  auto result = scheduler.Score(req);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().scores[0], ref_a_[5]);
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            5000);
  EXPECT_EQ(scheduler.stats().near_deadline_flushes, 1);
}

TEST_F(CoalesceTest, QueueWaitCoversTheGatherWindow) {
  auto engine = MakeEngine();
  CoalesceOptions copts;
  copts.wait_window_ms = 5.0;
  CoalescingScheduler scheduler(engine.get(), copts);

  // A lone request waits out the whole window before its batch executes,
  // and its response says so (the engine's admission gate is off here).
  ScoreRequest req;
  req.entity_ids = {4, 9};
  auto result = scheduler.Score(req);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result.value().queue_wait_ms, copts.wait_window_ms);
}

TEST_F(CoalesceTest, ExpiredAtEnqueueRefusedBeforeJoining) {
  FakeClock clock;
  ServeOptions opts;
  opts.clock = &clock;
  auto engine = MakeEngine(opts);
  CoalescingScheduler scheduler(engine.get());

  ScoreRequest req;
  req.entity_ids = {1};
  req.deadline = Deadline::AfterMillis(1.0, &clock);
  clock.AdvanceMillis(2.0);
  auto result = scheduler.Score(req);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(scheduler.stats().batches, 0);  // never reached the engine
}

// ------------------------------------------------------ invalid-id policy

TEST_F(CoalesceTest, InvalidIdRejectIsolatesTheOffendingMember) {
  auto engine = MakeEngine();
  CoalesceOptions copts;
  copts.wait_window_ms = 10000.0;
  copts.max_batch_rows = 6;  // all three members' rows close the batch
  CoalescingScheduler scheduler(engine.get(), copts);

  // One batch, three members, each with its own id policy.
  ScoreRequest reject;  // default policy: kReject
  reject.entity_ids = {kUsers + 100, 1};
  ScoreRequest nan_row;
  nan_row.entity_ids = {kUsers + 200, 7};
  nan_row.invalid_id_policy = InvalidIdPolicy::kNanRow;
  ScoreRequest clean;
  clean.entity_ids = {2, 3};
  const ScoreRequest* requests[3] = {&reject, &nan_row, &clean};
  Result<ScoreResponse> results[3] = {Status::Internal("unset"),
                                      Status::Internal("unset"),
                                      Status::Internal("unset")};
  std::vector<std::thread> members;
  for (int m = 0; m < 3; ++m) {
    members.emplace_back(
        [&, m] { results[m] = scheduler.Score(*requests[m]); });
  }
  for (auto& t : members) t.join();
  EXPECT_EQ(scheduler.stats().batches, 1);

  // The kReject offender is rejected; the kNanRow one gets its bad row
  // NaN-flagged; every resolved row equals the solo reference exactly.
  ASSERT_FALSE(results[0].ok());
  EXPECT_EQ(results[0].status().code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(results[1].ok());
  EXPECT_TRUE(std::isnan(results[1].value().scores[0]));
  EXPECT_EQ(results[1].value().row_flags[0], kRowInvalid);
  EXPECT_EQ(results[1].value().rows_invalid, 1);
  EXPECT_EQ(results[1].value().scores[1], ref_a_[7]);
  ASSERT_TRUE(results[2].ok());
  EXPECT_EQ(results[2].value().scores[0], ref_a_[2]);
  EXPECT_EQ(results[2].value().scores[1], ref_a_[3]);
}

TEST_F(CoalesceTest, InvalidIdNanRowPolicyNansOnlyTheBadRow) {
  auto engine = MakeEngine();
  CoalescingScheduler scheduler(engine.get());

  ScoreRequest req;
  req.entity_ids = {kUsers + 5, 7};
  req.invalid_id_policy = InvalidIdPolicy::kNanRow;
  auto result = scheduler.Score(req);
  ASSERT_TRUE(result.ok());
  const ScoreResponse& resp = result.value();
  EXPECT_TRUE(std::isnan(resp.scores[0]));
  EXPECT_EQ(resp.row_flags[0], kRowInvalid);
  EXPECT_EQ(resp.scores[1], ref_a_[7]);
  EXPECT_EQ(resp.row_flags[1], kRowResolved);
  EXPECT_EQ(resp.rows_invalid, 1);
  EXPECT_EQ(resp.rows_resolved, 1);
  EXPECT_FALSE(resp.degraded);  // invalid ids are caller errors, not decay
}

// ------------------------------------------------- shard swaps / metadata

TEST_F(CoalesceTest, ShardSwapKeepsServingUnderDirectConcurrentScores) {
  ServeOptions opts;
  opts.cache_shards = 4;
  auto engine = MakeEngine(opts);

  std::atomic<int> failures{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> scorers;
  for (int t = 0; t < 3; ++t) {
    scorers.emplace_back([&, t] {
      Rng rng(77 + static_cast<uint64_t>(t));
      while (!stop.load(std::memory_order_relaxed)) {
        std::vector<int64_t> ids(6);
        for (auto& id : ids) {
          id = rng.PowerLawIndex(static_cast<int>(kUsers), 1.1);
        }
        ScoreRequest req;
        req.entity_ids = ids;
        auto result = engine->ScoreWithOptions(req);
        if (!result.ok()) {
          ++failures;
          continue;
        }
        const ScoreResponse& resp = result.value();
        const std::vector<double>& ref =
            resp.snapshot_version % 2 == 0 ? ref_a_ : ref_b_;
        for (size_t i = 0; i < ids.size(); ++i) {
          if (resp.scores[i] != ref[static_cast<size_t>(ids[i])]) {
            ++failures;
          }
        }
      }
    });
  }
  for (int i = 0; i < 8; ++i) {
    const auto& next = (engine->snapshot_version() % 2 == 0) ? dbg_b_ : dbg_a_;
    ASSERT_TRUE(engine->ApplyDelta(SharedGraph(next), Now(), {}).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& s : scorers) s.join();

  EXPECT_EQ(failures.load(), 0);
  // 8 advances + 1 from LoadCheckpoint (new weights retire old embeddings).
  EXPECT_EQ(engine->stats().shard_swaps, 9);
  EXPECT_EQ(engine->HealthStatus().cache_shards, 4);
  EXPECT_EQ(engine->snapshot_version(), 8);
}

TEST_F(CoalesceTest, RowFlagsExposedOnDirectEngineResponses) {
  auto engine = MakeEngine();
  ScoreRequest req;
  req.entity_ids = {5, kUsers + 9};
  req.invalid_id_policy = InvalidIdPolicy::kNanRow;
  auto result = engine->ScoreWithOptions(req);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().row_flags.size(), 2u);
  EXPECT_EQ(result.value().row_flags[0], kRowResolved);
  EXPECT_EQ(result.value().row_flags[1], kRowInvalid);
}

TEST_F(CoalesceTest, EachStatisticHasOneSource) {
  auto engine = MakeEngine();
  CoalesceOptions copts;
  copts.wait_window_ms = 0.0;
  CoalescingScheduler scheduler(engine.get(), copts);
  ScoreRequest req;
  req.entity_ids = {1, 2, 3};
  ASSERT_TRUE(scheduler.Score(req).ok());

  // Batching lives in the scheduler, traffic in the engine's stats, and
  // configuration/state in the health probe.
  const CoalesceStats cs = scheduler.stats();
  EXPECT_EQ(cs.batches, 1);
  EXPECT_EQ(cs.rows_executed, 3);
  const ServeStats s = engine->stats();
  EXPECT_EQ(s.requests, 1);
  EXPECT_EQ(s.entities_scored, 3);
  EXPECT_EQ(s.shard_swaps, 1);  // LoadCheckpoint retires the embeddings
  const ServeHealth h = engine->HealthStatus();
  EXPECT_EQ(h.cache_shards, 8);  // default cache_shards
  EXPECT_TRUE(h.loaded);
}

}  // namespace
}  // namespace relgraph
