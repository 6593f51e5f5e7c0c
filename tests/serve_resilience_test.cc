// Tests of the serving resilience layer: request deadlines (real and fake
// clocks), admission control and load shedding, graceful degradation
// (stale-snapshot and cache-only answers), the snapshot-advance circuit
// breaker, the strict Score input contract, failed-advance atomicity under
// concurrent scoring, and cross-version cache behavior.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/deadline.h"
#include "core/fault_injection.h"
#include "datagen/ecommerce.h"
#include "db2graph/graph_builder.h"
#include "pq/engine.h"
#include "pq/label_builder.h"
#include "pq/parser.h"
#include "serve/admission_gate.h"
#include "serve/inference_engine.h"
#include "train/trainer.h"

namespace relgraph {
namespace {

// -------------------------------------------------------------- AdmissionGate

TEST(AdmissionGateTest, AdmitsUpToCapacityThenShedsWithEmptyQueue) {
  AdmissionGate gate(/*max_inflight=*/2, /*max_queue=*/0);
  EXPECT_EQ(gate.Admit(Deadline()), AdmissionGate::Outcome::kAdmitted);
  EXPECT_EQ(gate.Admit(Deadline()), AdmissionGate::Outcome::kAdmitted);
  EXPECT_EQ(gate.inflight(), 2);
  // Inflight full, queue capacity zero: shed immediately, without blocking.
  EXPECT_EQ(gate.Admit(Deadline()),
            AdmissionGate::Outcome::kShedQueueFull);
  gate.Release();
  EXPECT_EQ(gate.Admit(Deadline()), AdmissionGate::Outcome::kAdmitted);
  gate.Release();
  gate.Release();
  EXPECT_EQ(gate.inflight(), 0);
}

TEST(AdmissionGateTest, QueuedWaiterIsAdmittedOnRelease) {
  AdmissionGate gate(/*max_inflight=*/1, /*max_queue=*/1);
  ASSERT_EQ(gate.Admit(Deadline()), AdmissionGate::Outcome::kAdmitted);

  std::atomic<bool> admitted{false};
  std::thread waiter([&] {
    double wait_ms = -1.0;
    EXPECT_EQ(gate.Admit(Deadline(), &wait_ms),
              AdmissionGate::Outcome::kAdmitted);
    admitted.store(true);
    gate.Release();
  });
  // The waiter parks in the queue (it cannot be admitted until Release).
  while (gate.queued() == 0) std::this_thread::yield();
  EXPECT_FALSE(admitted.load());
  gate.Release();
  waiter.join();
  EXPECT_TRUE(admitted.load());
  EXPECT_EQ(gate.inflight(), 0);
  EXPECT_EQ(gate.queued(), 0);
}

TEST(AdmissionGateTest, QueuedWaiterGivesUpWhenDeadlineExpires) {
  FakeClock clock;
  clock.set_auto_advance_nanos(1'000'000);  // 1ms per clock read
  AdmissionGate gate(/*max_inflight=*/1, /*max_queue=*/1, &clock);
  ASSERT_EQ(gate.Admit(Deadline()), AdmissionGate::Outcome::kAdmitted);

  // The waiter's deadline lives on the fake clock; every expiry poll ticks
  // it forward, so it deterministically runs out while queued.
  const Deadline deadline = Deadline::AfterMillis(5.0, &clock);
  double wait_ms = -1.0;
  EXPECT_EQ(gate.Admit(deadline, &wait_ms),
            AdmissionGate::Outcome::kDeadlineExpired);
  EXPECT_GT(wait_ms, 0.0);
  EXPECT_EQ(gate.queued(), 0);  // gave its queue slot back
  gate.Release();
}

TEST(AdmissionGateTest, ExpiredDeadlineIsRefusedBeforeQueueing) {
  FakeClock clock;
  AdmissionGate gate(/*max_inflight=*/1, /*max_queue=*/4, &clock);
  Deadline deadline = Deadline::AfterMillis(1.0, &clock);
  clock.AdvanceMillis(2.0);
  EXPECT_EQ(gate.Admit(deadline), AdmissionGate::Outcome::kDeadlineExpired);
  EXPECT_EQ(gate.inflight(), 0);
}

// ------------------------------------------------------------------- fixture

constexpr const char* kQuery =
    "PREDICT COUNT(orders) = 0 OVER NEXT 28 DAYS FOR EACH users";

/// Trains a small churn model ONCE and shares the checkpoint, database and
/// graph across all resilience tests (training dominates the suite
/// runtime). Mirrors the ServeTest fixture.
class ResilienceTest : public ::testing::Test {
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
    // the identical layout (and, being the same data, identical scores).
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
    ckpt_path_ = ::testing::TempDir() + "/serve_resilience_test." +
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

  void SetUp() override { FaultInjector::Global().Reset(); }
  void TearDown() override { FaultInjector::Global().Reset(); }

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
      const ServeOptions& serve = {}) {
    auto engine = std::make_unique<InferenceEngine>(
        SharedGraph(dbg_), users_, TaskKind::kBinaryClassification, 2, Gnn(),
        Sampler(), Now(), serve);
    EXPECT_TRUE(engine->LoadCheckpoint(ckpt_path_).ok());
    return engine;
  }

  /// Reference scores from a cacheless engine (the ground truth every
  /// degraded answer's resolved rows must still match bit-for-bit).
  static std::vector<double> Reference(const std::vector<int64_t>& ids) {
    ServeOptions off;
    off.enable_subgraph_cache = false;
    off.enable_embedding_cache = false;
    auto engine = MakeEngine(off);
    auto scores = engine->Score(ids);
    EXPECT_TRUE(scores.ok());
    return scores.value();
  }

  static Database* db_;
  static std::shared_ptr<DbGraph> dbg_;
  static std::shared_ptr<DbGraph> dbg2_;
  static NodeTypeId users_;
  static std::string ckpt_path_;
};

Database* ResilienceTest::db_ = nullptr;
std::shared_ptr<DbGraph> ResilienceTest::dbg_;
std::shared_ptr<DbGraph> ResilienceTest::dbg2_;
NodeTypeId ResilienceTest::users_ = 0;
std::string ResilienceTest::ckpt_path_;

std::vector<int64_t> MixedIds() {
  return {5, 17, 5, 3, 42, 17, 8, 0, 3, 61, 42, 79, 1, 5};
}

// ------------------------------------------------------------------ deadlines

TEST_F(ResilienceTest, DefaultRequestIsUndegradedAndMatchesScore) {
  auto engine = MakeEngine();
  ScoreRequest request;
  request.entity_ids = MixedIds();
  auto resp = engine->ScoreWithOptions(request);
  ASSERT_TRUE(resp.ok());
  EXPECT_FALSE(resp.value().degraded);
  EXPECT_EQ(resp.value().reason, DegradeReason::kNone);
  EXPECT_EQ(resp.value().state, ServeState::kServing);
  EXPECT_EQ(resp.value().rows_resolved,
            static_cast<int64_t>(MixedIds().size()));
  EXPECT_EQ(resp.value().rows_degraded, 0);
  EXPECT_EQ(resp.value().scores, Reference(MixedIds()));
}

TEST_F(ResilienceTest, GenerousDeadlineNeverPerturbsScores) {
  FakeClock clock;
  clock.set_auto_advance_nanos(1000);  // 1us per read: time passes, slowly
  ServeOptions serve;
  serve.clock = &clock;
  auto engine = MakeEngine(serve);
  ScoreRequest request;
  request.entity_ids = MixedIds();
  request.deadline = Deadline::AfterMillis(1e6, &clock);
  auto resp = engine->ScoreWithOptions(request);
  ASSERT_TRUE(resp.ok());
  EXPECT_FALSE(resp.value().degraded);
  // Deadline checks run on every stage boundary yet must not change one
  // bit of any score.
  EXPECT_EQ(resp.value().scores, Reference(MixedIds()));
}

TEST_F(ResilienceTest, ExpiredDeadlineFailsFastBeforeAnyWork) {
  FakeClock clock;
  ServeOptions serve;
  serve.clock = &clock;
  auto engine = MakeEngine(serve);
  ScoreRequest request;
  request.entity_ids = MixedIds();
  request.deadline = Deadline::AfterMillis(1.0, &clock);
  clock.AdvanceMillis(5.0);
  auto resp = engine->ScoreWithOptions(request);
  ASSERT_FALSE(resp.ok());
  EXPECT_EQ(resp.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(engine->stats().deadline_exceeded, 1);
  EXPECT_EQ(engine->stats().requests, 0);
}

TEST_F(ResilienceTest, MidRequestExpiryFailsFastUnderFailFast) {
  FakeClock clock;
  clock.set_auto_advance_nanos(1'000'000);  // 1ms per clock read
  ServeOptions serve;
  serve.clock = &clock;
  serve.degrade_mode = DegradeMode::kFailFast;
  auto engine = MakeEngine(serve);
  ScoreRequest request;
  request.entity_ids = MixedIds();
  // Enough budget to start sampling but nowhere near enough to finish: the
  // auto-advancing clock expires it mid-request, deterministically.
  request.deadline = Deadline::AfterMillis(20.0, &clock);
  auto resp = engine->ScoreWithOptions(request);
  ASSERT_FALSE(resp.ok());
  EXPECT_EQ(resp.status().code(), StatusCode::kDeadlineExceeded);
}

TEST_F(ResilienceTest, MidRequestExpiryDegradesToPartialAnswerDeterministically) {
  const std::vector<double> want = Reference(MixedIds());
  // Two fresh engine+clock universes running the identical script must
  // produce bit-identical degraded responses (NaN pattern included).
  std::vector<ScoreResponse> runs;
  for (int run = 0; run < 2; ++run) {
    FakeClock clock;
    clock.set_auto_advance_nanos(1'000'000);  // 1ms per clock read
    ServeOptions serve;
    serve.clock = &clock;
    serve.degrade_mode = DegradeMode::kStaleSnapshot;
    auto engine = MakeEngine(serve);
    ScoreRequest request;
    request.entity_ids = MixedIds();
    request.deadline = Deadline::AfterMillis(20.0, &clock);
    auto resp = engine->ScoreWithOptions(request);
    ASSERT_TRUE(resp.ok());
    runs.push_back(resp.value());
  }
  const ScoreResponse& resp = runs[0];
  EXPECT_TRUE(resp.degraded);
  EXPECT_EQ(resp.reason, DegradeReason::kDeadline);
  EXPECT_GT(resp.rows_resolved, 0);
  EXPECT_GT(resp.rows_degraded, 0);
  ASSERT_EQ(resp.scores.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    if (std::isnan(resp.scores[i])) continue;  // unresolved under deadline
    EXPECT_EQ(resp.scores[i], want[i]) << "row " << i;
  }
  // Run-twice bit-identity: same NaN pattern, same resolved values, same
  // metadata.
  ASSERT_EQ(runs[1].scores.size(), resp.scores.size());
  for (size_t i = 0; i < resp.scores.size(); ++i) {
    EXPECT_EQ(std::isnan(runs[1].scores[i]), std::isnan(resp.scores[i]));
    if (!std::isnan(resp.scores[i])) {
      EXPECT_EQ(runs[1].scores[i], resp.scores[i]);
    }
  }
  EXPECT_EQ(runs[1].rows_resolved, resp.rows_resolved);
  EXPECT_EQ(runs[1].rows_degraded, resp.rows_degraded);
  EXPECT_EQ(runs[1].reason, resp.reason);
}

// ------------------------------------------------------- admission at engine

TEST_F(ResilienceTest, FloodAgainstTinyGateOnlyEverOkOrOverloaded) {
  ServeOptions serve;
  serve.max_inflight = 1;
  serve.max_queue = 0;
  serve.enable_embedding_cache = false;  // keep requests slow enough to pile
  auto engine = MakeEngine(serve);

  const int kThreads = 4;
  const int kIters = 6;
  std::atomic<int> ok_count{0}, shed_count{0}, other_count{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int it = 0; it < kIters; ++it) {
        auto scores =
            engine->Score({static_cast<int64_t>((t * kIters + it) % 80)});
        if (scores.ok()) {
          ++ok_count;
        } else if (scores.status().code() == StatusCode::kOverloaded) {
          ++shed_count;
        } else {
          ++other_count;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  // Every request resolves to exactly one of {ok, Overloaded} and the
  // engine's own accounting agrees with the callers' tallies.
  EXPECT_EQ(other_count.load(), 0);
  EXPECT_EQ(ok_count.load() + shed_count.load(), kThreads * kIters);
  EXPECT_EQ(engine->stats().shed, shed_count.load());
  EXPECT_EQ(engine->stats().requests, ok_count.load());
  const ServeHealth health = engine->HealthStatus();
  EXPECT_EQ(health.inflight, 0);
  EXPECT_EQ(health.queued, 0);
}

// ------------------------------------------------- breaker and degrade modes

TEST_F(ResilienceTest, BreakerLatchesAfterConsecutiveFailuresAndResets) {
  ServeOptions serve;
  serve.breaker_threshold = 2;
  auto engine = MakeEngine(serve);  // degrade_mode = kFailFast
  EXPECT_EQ(engine->HealthStatus().state, ServeState::kServing);

  EXPECT_FALSE(engine->ApplyDelta(nullptr, Now(), {}).ok());
  EXPECT_EQ(engine->HealthStatus().state, ServeState::kServing);
  EXPECT_EQ(engine->HealthStatus().consecutive_advance_failures, 1);
  EXPECT_TRUE(engine->Score({1}).ok());  // one failure: still serving

  EXPECT_FALSE(engine->ApplyDelta(nullptr, Now(), {}).ok());
  const ServeHealth degraded = engine->HealthStatus();
  EXPECT_EQ(degraded.state, ServeState::kDegraded);
  EXPECT_EQ(degraded.consecutive_advance_failures, 2);
  EXPECT_FALSE(degraded.last_error.empty());

  // Fail-fast + open breaker: requests are refused as Overloaded.
  auto refused = engine->Score({1});
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kOverloaded);

  // A successful advance closes the breaker and clears the error.
  ASSERT_TRUE(engine->ApplyDelta(SharedGraph(dbg2_), Now(), {}).ok());
  const ServeHealth healed = engine->HealthStatus();
  EXPECT_EQ(healed.state, ServeState::kServing);
  EXPECT_EQ(healed.consecutive_advance_failures, 0);
  EXPECT_TRUE(healed.last_error.empty());
  EXPECT_TRUE(engine->Score({1}).ok());
}

TEST_F(ResilienceTest, StaleSnapshotModeKeepsAnsweringWhenDegraded) {
  ServeOptions serve;
  serve.degrade_mode = DegradeMode::kStaleSnapshot;
  serve.breaker_threshold = 1;
  auto engine = MakeEngine(serve);
  ASSERT_FALSE(engine->ApplyDelta(nullptr, Now(), {}).ok());
  ASSERT_EQ(engine->HealthStatus().state, ServeState::kDegraded);

  ScoreRequest request;
  request.entity_ids = MixedIds();
  auto resp = engine->ScoreWithOptions(request);
  ASSERT_TRUE(resp.ok());
  // The full answer is served from the last healthy snapshot, flagged.
  EXPECT_TRUE(resp.value().degraded);
  EXPECT_EQ(resp.value().reason, DegradeReason::kBreakerOpen);
  EXPECT_EQ(resp.value().state, ServeState::kDegraded);
  EXPECT_EQ(resp.value().rows_degraded, 0);
  EXPECT_GE(resp.value().staleness_s, 0.0);
  EXPECT_EQ(resp.value().scores, Reference(MixedIds()));
  EXPECT_EQ(engine->stats().degraded_answers, 1);
}

TEST_F(ResilienceTest, CacheOnlyModeServesLiveHitsAndNansMisses) {
  ServeOptions serve;
  serve.degrade_mode = DegradeMode::kCacheOnly;
  serve.breaker_threshold = 1;
  auto engine = MakeEngine(serve);
  const std::vector<int64_t> hot = {2, 4, 6};
  ASSERT_TRUE(engine->WarmUp(hot).ok());
  ASSERT_FALSE(engine->ApplyDelta(nullptr, Now(), {}).ok());
  ASSERT_EQ(engine->HealthStatus().state, ServeState::kDegraded);

  ScoreRequest request;
  request.entity_ids = {2, 4, 6, 8};  // 8 was never warmed
  auto resp = engine->ScoreWithOptions(request);
  ASSERT_TRUE(resp.ok());
  EXPECT_TRUE(resp.value().degraded);
  EXPECT_EQ(resp.value().reason, DegradeReason::kBreakerOpen);
  EXPECT_EQ(resp.value().rows_resolved, 3);
  EXPECT_EQ(resp.value().rows_degraded, 1);
  const std::vector<double> want = Reference(hot);
  for (size_t i = 0; i < hot.size(); ++i) {
    EXPECT_EQ(resp.value().scores[i], want[i]) << "hot id " << hot[i];
  }
  EXPECT_TRUE(std::isnan(resp.value().scores[3]));
}

TEST_F(ResilienceTest, CacheOnlyNeverServesDeadVersionEntries) {
  ServeOptions serve;
  serve.degrade_mode = DegradeMode::kCacheOnly;
  serve.breaker_threshold = 1;
  serve.enable_embedding_cache = false;  // isolate the subgraph cache
  auto engine = MakeEngine(serve);
  // Warm at version 0, then advance: version-0 subgraph entries are dead
  // keys. Latch the breaker before anything is cached at version 1.
  ASSERT_TRUE(engine->WarmUp({2, 4, 6}).ok());
  ASSERT_TRUE(engine->ApplyDelta(SharedGraph(dbg2_), Now(), {}).ok());
  ASSERT_FALSE(engine->ApplyDelta(nullptr, Now(), {}).ok());
  ASSERT_EQ(engine->HealthStatus().state, ServeState::kDegraded);

  ScoreRequest request;
  request.entity_ids = {2, 4, 6};
  auto resp = engine->ScoreWithOptions(request);
  ASSERT_TRUE(resp.ok());
  // Every row NaN: the warmed entries belong to the dead version and a
  // cache-only engine must refuse them rather than serve stale structure.
  EXPECT_EQ(resp.value().rows_resolved, 0);
  EXPECT_EQ(resp.value().rows_degraded, 3);
  for (double s : resp.value().scores) EXPECT_TRUE(std::isnan(s));

  // Entries cached at the live version DO serve: heal, warm, re-latch.
  ASSERT_TRUE(engine->ApplyDelta(SharedGraph(dbg2_), Now(), {}).ok());
  ASSERT_TRUE(engine->WarmUp({2, 4, 6}).ok());
  ASSERT_FALSE(engine->ApplyDelta(nullptr, Now(), {}).ok());
  auto live = engine->ScoreWithOptions(request);
  ASSERT_TRUE(live.ok());
  EXPECT_EQ(live.value().rows_resolved, 3);
  EXPECT_EQ(live.value().scores, Reference({2, 4, 6}));
}

// ---------------------------------------------------------- dependency faults

TEST_F(ResilienceTest, SamplerFaultDegradesTheRowNotTheRequest) {
  ServeOptions serve;
  serve.degrade_mode = DegradeMode::kStaleSnapshot;
  serve.enable_embedding_cache = false;
  serve.enable_subgraph_cache = false;
  auto engine = MakeEngine(serve);
  const std::vector<int64_t> ids = {10, 20, 30};
  const std::vector<double> want = Reference(ids);

  FaultInjector::Global().Arm(FaultSite::kServeSample, /*skip=*/1,
                              /*times=*/1);  // second sample fails
  ScoreRequest request;
  request.entity_ids = ids;
  auto resp = engine->ScoreWithOptions(request);
  ASSERT_TRUE(resp.ok());
  EXPECT_TRUE(resp.value().degraded);
  EXPECT_EQ(resp.value().reason, DegradeReason::kDependencyFault);
  EXPECT_EQ(resp.value().rows_degraded, 1);
  EXPECT_EQ(resp.value().scores[0], want[0]);
  EXPECT_TRUE(std::isnan(resp.value().scores[1]));
  EXPECT_EQ(resp.value().scores[2], want[2]);
}

TEST_F(ResilienceTest, SamplerFaultFailsFastWhenConfigured) {
  ServeOptions serve;  // degrade_mode = kFailFast
  serve.enable_embedding_cache = false;
  serve.enable_subgraph_cache = false;
  auto engine = MakeEngine(serve);
  FaultInjector::Global().Arm(FaultSite::kServeSample);
  auto resp = engine->Score({10, 20});
  ASSERT_FALSE(resp.ok());
  EXPECT_EQ(resp.status().code(), StatusCode::kInternal);
}

TEST_F(ResilienceTest, AllocFaultDegradesTheBatchNotTheRequest) {
  ServeOptions serve;
  serve.degrade_mode = DegradeMode::kStaleSnapshot;
  serve.micro_batch_size = 2;
  serve.enable_embedding_cache = false;
  serve.enable_subgraph_cache = false;
  auto engine = MakeEngine(serve);
  const std::vector<int64_t> ids = {10, 20, 30, 40};
  const std::vector<double> want = Reference(ids);

  FaultInjector::Global().Arm(FaultSite::kServeAlloc, /*skip=*/0,
                              /*times=*/1);  // first micro-batch fails
  ScoreRequest request;
  request.entity_ids = ids;
  auto resp = engine->ScoreWithOptions(request);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.value().rows_degraded, 2);
  EXPECT_TRUE(std::isnan(resp.value().scores[0]));
  EXPECT_TRUE(std::isnan(resp.value().scores[1]));
  EXPECT_EQ(resp.value().scores[2], want[2]);
  EXPECT_EQ(resp.value().scores[3], want[3]);
}

TEST_F(ResilienceTest, CheckpointLoadFaultLeavesEngineUnloaded) {
  InferenceEngine engine(SharedGraph(dbg_), users_,
                         TaskKind::kBinaryClassification, 2, Gnn(), Sampler(),
                         Now());
  FaultInjector::Global().Arm(FaultSite::kServeCheckpointLoad);
  auto st = engine.LoadCheckpoint(ckpt_path_);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  EXPECT_FALSE(engine.loaded());
  EXPECT_FALSE(engine.HealthStatus().last_error.empty());
  FaultInjector::Global().Reset();
  EXPECT_TRUE(engine.LoadCheckpoint(ckpt_path_).ok());
  EXPECT_TRUE(engine.Score({1}).ok());
}

// ------------------------------------------------------ input contract (a)

TEST_F(ResilienceTest, EmptyRequestIsOkEmptyAndUncounted) {
  auto engine = MakeEngine();
  ScoreRequest request;  // no ids
  auto resp = engine->ScoreWithOptions(request);
  ASSERT_TRUE(resp.ok());
  EXPECT_TRUE(resp.value().scores.empty());
  EXPECT_FALSE(resp.value().degraded);
  EXPECT_EQ(engine->stats().requests, 0);
}

TEST_F(ResilienceTest, RejectPolicyRefusesTheWholeRequest) {
  auto engine = MakeEngine();
  ScoreRequest request;  // invalid_id_policy = kReject
  request.entity_ids = {1, -1};
  auto resp = engine->ScoreWithOptions(request);
  ASSERT_FALSE(resp.ok());
  EXPECT_EQ(resp.status().code(), StatusCode::kInvalidArgument);
  request.entity_ids = {1, dbg_->graph.num_nodes(users_)};
  EXPECT_FALSE(engine->ScoreWithOptions(request).ok());
}

TEST_F(ResilienceTest, NanRowPolicyServesValidRowsAndNansInvalid) {
  auto engine = MakeEngine();
  const int64_t out_of_range = dbg_->graph.num_nodes(users_);
  ScoreRequest request;
  request.entity_ids = {5, -1, 17, out_of_range, -1, 5};
  request.invalid_id_policy = InvalidIdPolicy::kNanRow;
  auto resp = engine->ScoreWithOptions(request);
  ASSERT_TRUE(resp.ok());
  // Invalid rows are a documented per-row semantic, not degradation.
  EXPECT_FALSE(resp.value().degraded);
  EXPECT_EQ(resp.value().rows_invalid, 3);
  EXPECT_EQ(resp.value().rows_resolved, 3);
  const std::vector<double> want = Reference({5, 17});
  EXPECT_EQ(resp.value().scores[0], want[0]);
  EXPECT_TRUE(std::isnan(resp.value().scores[1]));
  EXPECT_EQ(resp.value().scores[2], want[1]);
  EXPECT_TRUE(std::isnan(resp.value().scores[3]));
  EXPECT_TRUE(std::isnan(resp.value().scores[4]));
  EXPECT_EQ(resp.value().scores[5], want[0]);  // duplicate of row 0

  // The plain Score wrapper keeps its strict contract.
  EXPECT_FALSE(engine->Score({-1}).ok());
}

// ------------------------------------------- advance atomicity (b), caches (c)

TEST_F(ResilienceTest, PoisonedAdvanceLeavesSnapshotFullyServable) {
  auto engine = MakeEngine();
  const auto before = engine->Score(MixedIds());
  ASSERT_TRUE(before.ok());

  FaultInjector::Global().Arm(FaultSite::kServeSnapshotAdvance);
  auto st = engine->ApplyDelta(SharedGraph(dbg2_), Now(), {});
  ASSERT_FALSE(st.ok());
  FaultInjector::Global().Reset();

  // Nothing mutated: same version, same scores, still healthy enough.
  EXPECT_EQ(engine->snapshot_version(), 0);
  EXPECT_EQ(engine->HealthStatus().consecutive_advance_failures, 1);
  const auto after = engine->Score(MixedIds());
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value(), before.value());

  // And the engine can advance cleanly afterwards.
  ASSERT_TRUE(engine->ApplyDelta(SharedGraph(dbg2_), Now(), {}).ok());
  EXPECT_EQ(engine->snapshot_version(), 1);
  auto advanced = engine->Score(MixedIds());
  ASSERT_TRUE(advanced.ok());
  EXPECT_EQ(advanced.value(), before.value());  // same data, same scores
}

TEST_F(ResilienceTest, ConcurrentScoresSurviveFailingAndHealingAdvances) {
  // Scorer threads hammer the engine while the main thread interleaves
  // poisoned, invalid, and successful snapshot advances. Every score call
  // must come back ok (the breaker threshold is never reached) and
  // bit-identical to the reference — both graphs hold the same data, so
  // any deviation means a request saw a half-advanced snapshot.
  ServeOptions serve;
  serve.degrade_mode = DegradeMode::kStaleSnapshot;
  serve.breaker_threshold = 1000000;
  auto engine = MakeEngine(serve);
  const std::vector<int64_t> ids = {3, 14, 27, 58};
  const std::vector<double> want = Reference(ids);

  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  std::atomic<int> scored{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&] {
      // At least two scores per thread even if the advance loop finishes
      // first (single-core schedulers can starve the scorers entirely).
      for (int it = 0; it < 2 || !stop.load(std::memory_order_relaxed);
           ++it) {
        auto got = engine->Score(ids);
        if (!got.ok() || got.value() != want) ++bad;
        ++scored;
      }
    });
  }
  while (scored.load() == 0) std::this_thread::yield();
  const std::shared_ptr<DbGraph> graphs[2] = {dbg_, dbg2_};
  for (int round = 0; round < 12; ++round) {
    switch (round % 3) {
      case 0:
        FaultInjector::Global().Arm(FaultSite::kServeSnapshotAdvance);
        ASSERT_FALSE(engine->ApplyDelta(SharedGraph(dbg2_), Now(), {}).ok());
        FaultInjector::Global().Reset();
        break;
      case 1:
        ASSERT_FALSE(engine->ApplyDelta(nullptr, Now(), {}).ok());
        break;
      case 2:
        ASSERT_TRUE(
            engine->ApplyDelta(SharedGraph(graphs[(round / 3) % 2]), Now(), {})
                .ok());
        break;
    }
  }
  stop.store(true);
  for (auto& th : threads) th.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(engine->snapshot_version(), 4);  // one success per 3 rounds
}

TEST_F(ResilienceTest, SubgraphCacheChurnsAcrossVersionsWithoutCorruption) {
  // Tiny subgraph cache + embedding cache off: every request races cache
  // fills, hits and evictions across snapshot versions while the main
  // thread keeps advancing. Scores must stay bit-identical throughout —
  // a cross-version cache mixup would surface as a wrong score.
  ServeOptions serve;
  serve.enable_embedding_cache = false;
  serve.subgraph_cache_capacity = 3;
  auto engine = MakeEngine(serve);
  const std::vector<int64_t> ids = {1, 9, 33, 47, 72};
  const std::vector<double> want = Reference(ids);

  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  std::atomic<int> scored{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&] {
      for (int it = 0; it < 2 || !stop.load(std::memory_order_relaxed);
           ++it) {
        auto got = engine->Score(ids);
        if (!got.ok() || got.value() != want) ++bad;
        ++scored;
      }
    });
  }
  while (scored.load() == 0) std::this_thread::yield();
  const std::shared_ptr<DbGraph> graphs[2] = {dbg2_, dbg_};
  for (int round = 0; round < 8; ++round) {
    ASSERT_TRUE(
        engine->ApplyDelta(SharedGraph(graphs[round % 2]), Now(), {}).ok());
  }
  stop.store(true);
  for (auto& th : threads) th.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(engine->snapshot_version(), 8);
  EXPECT_GT(engine->stats().subgraph_misses, 0);
}

}  // namespace
}  // namespace relgraph
