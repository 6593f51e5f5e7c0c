// Chaos harness for the serving stack: seeded probabilistic faults injected
// into the sampler, allocation, checkpoint-load and snapshot-advance sites
// while requests flood the engine past its admission capacity.
//
// Invariants under chaos (the ctest `chaos` label; also run under ASan and
// TSan by scripts/ci.sh):
//   - the engine never crashes or deadlocks;
//   - every request resolves to exactly one of {ok, ok-degraded,
//     Overloaded, DeadlineExceeded};
//   - no answer is ever computed from a snapshot other than the one its
//     response metadata claims (checked against per-version reference
//     scores over two same-layout databases with DIFFERENT data);
//   - with a fake clock and fixed fault seeds, a single-threaded chaos
//     script replays bit-identically: same outcomes, same scores, same
//     NaN pattern, same shed decisions.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/deadline.h"
#include "core/fault_injection.h"
#include "core/parallel.h"
#include "datagen/ecommerce.h"
#include "db2graph/graph_builder.h"
#include "db2graph/streaming.h"
#include "relational/append_log.h"
#include "pq/engine.h"
#include "pq/label_builder.h"
#include "pq/parser.h"
#include "serve/coalescing_scheduler.h"
#include "serve/inference_engine.h"
#include "train/trainer.h"

namespace relgraph {
namespace {

constexpr const char* kQuery =
    "PREDICT COUNT(orders) = 0 OVER NEXT 28 DAYS FOR EACH users";

/// Shared world: one trained checkpoint over database A, plus a second
/// database B generated with a different seed — same schema and layout
/// (ApplyDelta accepts it) but different data, so its scores differ
/// and a wrong-version answer is detectable.
class ChaosTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ECommerceConfig cfg;
    cfg.num_users = 80;
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
    // Pid-unique path: ctest runs each TEST of this binary as its own
    // process, possibly in parallel — a shared path would race.
    ckpt_path_ = ::testing::TempDir() + "/chaos_test." +
                 std::to_string(getpid()) + ".ckpt";
    ASSERT_TRUE(trainer.SaveWeights(ckpt_path_).ok());

    // Per-graph reference scores for every user id, computed cacheless and
    // fault-free: the ground truth each served answer is checked against.
    ref_a_ = ReferenceScores(SharedGraph(dbg_a_));
    ref_b_ = ReferenceScores(SharedGraph(dbg_b_));
    bool differs = false;
    for (size_t i = 0; i < ref_a_.size(); ++i) {
      if (ref_a_[i] != ref_b_[i]) differs = true;
    }
    // The wrong-version check has teeth only if the two snapshots score
    // differently.
    ASSERT_TRUE(differs);
  }

  static void TearDownTestSuite() {
    std::remove(ckpt_path_.c_str());
    dbg_b_.reset();
    dbg_a_.reset();
    delete db_b_;
    delete db_a_;
    db_b_ = db_a_ = nullptr;
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

  static Timestamp Now() {
    // One cutoff covering both worlds keeps advances interchangeable.
    return std::max(db_a_->TimeRange().second, db_b_->TimeRange().second) + 1;
  }

  static std::unique_ptr<InferenceEngine> MakeEngine(
      std::shared_ptr<const HeteroGraph> graph, const ServeOptions& serve) {
    auto engine = std::make_unique<InferenceEngine>(
        std::move(graph), users_, TaskKind::kBinaryClassification, 2, Gnn(),
        Sampler(), Now(), serve);
    EXPECT_TRUE(engine->LoadCheckpoint(ckpt_path_).ok());
    return engine;
  }

  static std::vector<double> ReferenceScores(
      std::shared_ptr<const HeteroGraph> graph) {
    ServeOptions off;
    off.enable_subgraph_cache = false;
    off.enable_embedding_cache = false;
    auto engine = MakeEngine(std::move(graph), off);
    std::vector<int64_t> ids(80);
    for (int64_t i = 0; i < 80; ++i) ids[static_cast<size_t>(i)] = i;
    auto scores = engine->Score(ids);
    EXPECT_TRUE(scores.ok());
    return scores.value();
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

Database* ChaosTest::db_a_ = nullptr;
Database* ChaosTest::db_b_ = nullptr;
std::shared_ptr<DbGraph> ChaosTest::dbg_a_;
std::shared_ptr<DbGraph> ChaosTest::dbg_b_;
NodeTypeId ChaosTest::users_ = 0;
std::string ChaosTest::ckpt_path_;
std::vector<double> ChaosTest::ref_a_;
std::vector<double> ChaosTest::ref_b_;

// ------------------------------------------------------------- determinism

/// One recorded step of the single-threaded chaos script.
struct StepRecord {
  int status_code = 0;  // StatusCode of the result (kOk for answers)
  bool degraded = false;
  int reason = 0;
  int64_t version = -1;
  int64_t rows_degraded = 0;
  std::vector<double> scores;  // empty for non-ok outcomes
};

bool SameScores(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::isnan(a[i]) != std::isnan(b[i])) return false;
    if (!std::isnan(a[i]) && a[i] != b[i]) return false;
  }
  return true;
}

TEST_F(ChaosTest, SeededChaosScriptReplaysBitIdentically) {
  // The whole universe is deterministic: a fake clock that ticks a fixed
  // amount per read stands in for elapsing time, and every fault site
  // draws from its own (seed, hit-index) stream. Re-running the script
  // from scratch must reproduce every outcome bit-for-bit.
  auto run_script = [&]() {
    std::vector<StepRecord> records;
    FaultInjector::Global().Reset();
    FaultInjector::Global().ArmProbability(FaultSite::kServeSample, 0.15, 7);
    FaultInjector::Global().ArmProbability(FaultSite::kServeAlloc, 0.10, 11);
    FaultInjector::Global().ArmProbability(FaultSite::kServeSnapshotAdvance,
                                           0.50, 13);
    FakeClock clock;
    clock.set_auto_advance_nanos(500'000);  // 0.5ms per clock read
    ServeOptions serve;
    serve.clock = &clock;
    serve.degrade_mode = DegradeMode::kStaleSnapshot;
    serve.breaker_threshold = 2;
    auto engine = MakeEngine(SharedGraph(dbg_a_), serve);
    const std::shared_ptr<DbGraph> graphs[2] = {dbg_b_, dbg_a_};

    for (int step = 0; step < 30; ++step) {
      if (step % 5 == 4) {
        // Operator plane: advances are poisoned with p=0.5 and may latch
        // the breaker; record their outcome too.
        StepRecord rec;
        rec.status_code = static_cast<int>(
            engine->ApplyDelta(SharedGraph(graphs[(step / 5) % 2]), Now(), {})
                .code());
        rec.version = engine->snapshot_version();
        records.push_back(std::move(rec));
        continue;
      }
      ScoreRequest request;
      request.entity_ids = {step % 80, (3 * step) % 80, (7 * step + 1) % 80};
      if (step % 3 == 1) {
        // Tight budgets (under one 0.5ms tick) are dead on arrival and
        // must be refused; loose ones survive the whole request.
        request.deadline =
            Deadline::AfterMillis(step % 6 == 1 ? 0.2 : 50.0, &clock);
      }
      auto resp = engine->ScoreWithOptions(request);
      StepRecord rec;
      if (resp.ok()) {
        rec.status_code = static_cast<int>(StatusCode::kOk);
        rec.degraded = resp.value().degraded;
        rec.reason = static_cast<int>(resp.value().reason);
        rec.version = resp.value().snapshot_version;
        rec.rows_degraded = resp.value().rows_degraded;
        rec.scores = resp.value().scores;
      } else {
        rec.status_code = static_cast<int>(resp.status().code());
        // Chaos outcome contract: a refused request is exactly Overloaded
        // or DeadlineExceeded, never anything else.
        EXPECT_TRUE(resp.status().code() == StatusCode::kOverloaded ||
                    resp.status().code() == StatusCode::kDeadlineExceeded)
            << resp.status().ToString();
      }
      records.push_back(std::move(rec));
    }
    FaultInjector::Global().Reset();
    return records;
  };

  const std::vector<StepRecord> first = run_script();
  const std::vector<StepRecord> second = run_script();
  ASSERT_EQ(first.size(), second.size());
  int degraded_steps = 0;
  int refused_steps = 0;
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].status_code, second[i].status_code) << "step " << i;
    EXPECT_EQ(first[i].degraded, second[i].degraded) << "step " << i;
    EXPECT_EQ(first[i].reason, second[i].reason) << "step " << i;
    EXPECT_EQ(first[i].version, second[i].version) << "step " << i;
    EXPECT_EQ(first[i].rows_degraded, second[i].rows_degraded)
        << "step " << i;
    EXPECT_TRUE(SameScores(first[i].scores, second[i].scores))
        << "step " << i;
    if (first[i].degraded) ++degraded_steps;
    if (first[i].status_code != static_cast<int>(StatusCode::kOk)) {
      ++refused_steps;
    }
  }
  // The script must actually exercise chaos, not sail through cleanly.
  EXPECT_GT(degraded_steps, 0);
  EXPECT_GT(refused_steps, 0);
}

TEST_F(ChaosTest, MultiSliceChaosScriptReplaysBitIdentically) {
  // Requests of 32 distinct ids split into several seed slices that run
  // across a 4-thread pool while seeded sampler and allocation faults
  // fire. The faults are drawn in the serial pre-pass, so which rows fail
  // is a function of the request alone and the script replays exactly.
  const int pool_threads = NumThreads();
  ThreadPool::SetNumThreadsForTesting(4);
  auto run_script = [&]() {
    std::vector<StepRecord> records;
    FaultInjector::Global().Reset();
    FaultInjector::Global().ArmProbability(FaultSite::kServeSample, 0.15, 7);
    FaultInjector::Global().ArmProbability(FaultSite::kServeAlloc, 0.25, 11);
    ServeOptions serve;
    serve.degrade_mode = DegradeMode::kStaleSnapshot;
    serve.enable_embedding_cache = false;  // every id stays pending
    auto engine = MakeEngine(SharedGraph(dbg_a_), serve);
    for (int step = 0; step < 12; ++step) {
      ScoreRequest request;
      for (int64_t j = 0; j < 32; ++j) {
        request.entity_ids.push_back((step * 11 + j * 7) % 80);
      }
      auto resp = engine->ScoreWithOptions(request);
      StepRecord rec;
      rec.status_code = static_cast<int>(resp.status().code());
      if (resp.ok()) {
        rec.degraded = resp.value().degraded;
        rec.reason = static_cast<int>(resp.value().reason);
        rec.rows_degraded = resp.value().rows_degraded;
        rec.scores = resp.value().scores;
        // Every resolved row is the fault-free reference score.
        for (size_t i = 0; i < rec.scores.size(); ++i) {
          if (std::isnan(rec.scores[i])) continue;
          EXPECT_EQ(rec.scores[i],
                    ref_a_[static_cast<size_t>(request.entity_ids[i])])
              << "step " << step << " row " << i;
        }
      }
      records.push_back(std::move(rec));
    }
    EXPECT_GT(FaultInjector::Global().fired(FaultSite::kServeSample), 0);
    EXPECT_GT(FaultInjector::Global().fired(FaultSite::kServeAlloc), 0);
    FaultInjector::Global().Reset();
    return records;
  };

  const std::vector<StepRecord> first = run_script();
  const std::vector<StepRecord> second = run_script();
  ThreadPool::SetNumThreadsForTesting(pool_threads);
  ASSERT_EQ(first.size(), second.size());
  int degraded_steps = 0;
  for (size_t i = 0; i < first.size(); ++i) {
    ASSERT_EQ(first[i].status_code, static_cast<int>(StatusCode::kOk))
        << "step " << i;
    EXPECT_EQ(first[i].status_code, second[i].status_code) << "step " << i;
    EXPECT_EQ(first[i].degraded, second[i].degraded) << "step " << i;
    EXPECT_EQ(first[i].reason, second[i].reason) << "step " << i;
    EXPECT_EQ(first[i].rows_degraded, second[i].rows_degraded)
        << "step " << i;
    ASSERT_EQ(first[i].scores.size(), second[i].scores.size());
    for (size_t r = 0; r < first[i].scores.size(); ++r) {
      EXPECT_EQ(std::isnan(first[i].scores[r]),
                std::isnan(second[i].scores[r]))
          << "step " << i << " row " << r;
    }
    EXPECT_TRUE(SameScores(first[i].scores, second[i].scores))
        << "step " << i;
    if (first[i].degraded) ++degraded_steps;
  }
  EXPECT_GT(degraded_steps, 0);
}

// ------------------------------------------------------- multi-thread flood

TEST_F(ChaosTest, FloodWithFaultsUpholdsInvariants) {
  // Real clock, real threads: outcomes are scheduling-dependent, so this
  // test asserts invariants, not exact sequences — the 4-outcome contract,
  // accounting consistency, and version-consistent answers.
  FaultInjector::Global().ArmProbability(FaultSite::kServeSample, 0.05, 1);
  FaultInjector::Global().ArmProbability(FaultSite::kServeAlloc, 0.02, 2);
  FaultInjector::Global().ArmProbability(FaultSite::kServeSnapshotAdvance,
                                         0.50, 3);
  ServeOptions serve;
  serve.degrade_mode = DegradeMode::kStaleSnapshot;
  serve.breaker_threshold = 3;
  serve.max_inflight = 2;
  serve.max_queue = 1;
  auto engine = MakeEngine(SharedGraph(dbg_a_), serve);

  // graph_of_version[v] = which reference table answers from snapshot
  // version v must match. Written only by the advancing (main) thread and
  // read only after join.
  std::vector<const std::vector<double>*> graph_of_version = {&ref_a_};

  struct OkAnswer {
    std::vector<int64_t> ids;
    std::vector<double> scores;
    int64_t version;
  };
  const int kThreads = 4;
  const int kIters = 50;
  std::vector<std::vector<OkAnswer>> answers(kThreads);
  std::atomic<int> ok_count{0}, degraded_count{0}, shed_count{0},
      deadline_count{0}, other_count{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int it = 0; it < kIters; ++it) {
        ScoreRequest request;
        const int64_t base = (t * 31 + it * 7) % 80;
        request.entity_ids = {base, (base + 13) % 80};
        if (it % 4 == 3) {
          // A tight real-time budget: warm answers make it, cold ones
          // run out — either way the outcome must be in-contract.
          request.deadline = Deadline::AfterMillis(0.2);
        }
        auto resp = engine->ScoreWithOptions(request);
        if (resp.ok()) {
          ++ok_count;
          if (resp.value().degraded) ++degraded_count;
          answers[static_cast<size_t>(t)].push_back(
              OkAnswer{request.entity_ids, resp.value().scores,
                       resp.value().snapshot_version});
        } else if (resp.status().code() == StatusCode::kOverloaded) {
          ++shed_count;
        } else if (resp.status().code() == StatusCode::kDeadlineExceeded) {
          ++deadline_count;
        } else {
          ++other_count;
        }
      }
    });
  }

  const std::vector<double>* refs[2] = {&ref_b_, &ref_a_};
  const std::shared_ptr<DbGraph> graphs[2] = {dbg_b_, dbg_a_};
  for (int round = 0; round < 20; ++round) {
    if (engine->ApplyDelta(SharedGraph(graphs[round % 2]), Now(), {}).ok()) {
      graph_of_version.push_back(refs[round % 2]);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (auto& th : threads) th.join();

  // Every request resolved to exactly one of the four allowed outcomes.
  EXPECT_EQ(other_count.load(), 0);
  EXPECT_EQ(ok_count.load() + shed_count.load() + deadline_count.load(),
            kThreads * kIters);
  // The engine's own books agree with the callers' tallies.
  const ServeStats stats = engine->stats();
  EXPECT_EQ(stats.requests, ok_count.load());
  EXPECT_EQ(stats.shed, shed_count.load());
  EXPECT_EQ(stats.deadline_exceeded, deadline_count.load());
  EXPECT_EQ(stats.degraded_answers, degraded_count.load());

  // No answer may deviate from the reference scores of the snapshot
  // version its response claims — a mismatch means a request read one
  // snapshot's graph under another's version (or a torn advance).
  ASSERT_EQ(graph_of_version.size(),
            static_cast<size_t>(engine->snapshot_version()) + 1);
  int checked = 0;
  for (const auto& per_thread : answers) {
    for (const OkAnswer& a : per_thread) {
      ASSERT_GE(a.version, 0);
      ASSERT_LT(static_cast<size_t>(a.version), graph_of_version.size());
      const std::vector<double>& ref = *graph_of_version[a.version];
      for (size_t i = 0; i < a.ids.size(); ++i) {
        if (std::isnan(a.scores[i])) continue;  // degraded row
        EXPECT_EQ(a.scores[i], ref[static_cast<size_t>(a.ids[i])])
            << "id " << a.ids[i] << " at version " << a.version;
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 0);
  // The gate drained completely.
  const ServeHealth health = engine->HealthStatus();
  EXPECT_EQ(health.inflight, 0);
  EXPECT_EQ(health.queued, 0);
}

TEST_F(ChaosTest, CoalescedFloodWithFaultsUpholdsInvariants) {
  // The coalescing scheduler in front of a faulted engine: concurrent
  // clients share micro-batches while the sampler faults probabilistically
  // and the snapshot advances underneath. Scheduling-dependent, so the
  // assertions are invariants — every request lands in-contract, every
  // delivered row is either NaN-and-flagged or bit-equal to the reference
  // of the snapshot version its response claims.
  FaultInjector::Global().ArmProbability(FaultSite::kServeSample, 0.05, 1);
  FaultInjector::Global().ArmProbability(FaultSite::kServeAlloc, 0.02, 2);
  FaultInjector::Global().ArmProbability(FaultSite::kServeSnapshotAdvance,
                                         0.50, 3);
  ServeOptions serve;
  serve.degrade_mode = DegradeMode::kStaleSnapshot;
  serve.breaker_threshold = 3;
  auto engine = MakeEngine(SharedGraph(dbg_a_), serve);
  CoalesceOptions copts;
  copts.wait_window_ms = 0.2;
  CoalescingScheduler scheduler(engine.get(), copts);

  std::vector<const std::vector<double>*> graph_of_version = {&ref_a_};

  struct OkAnswer {
    std::vector<int64_t> ids;
    std::vector<double> scores;
    std::vector<uint8_t> flags;
    int64_t version;
  };
  const int kThreads = 4;
  const int kIters = 50;
  std::vector<std::vector<OkAnswer>> answers(kThreads);
  std::atomic<int> ok_count{0}, degraded_count{0}, deadline_count{0},
      other_count{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int it = 0; it < kIters; ++it) {
        ScoreRequest request;
        const int64_t base = (t * 31 + it * 7) % 80;
        request.entity_ids = {base, (base + 13) % 80};
        if (it % 4 == 3) {
          request.deadline = Deadline::AfterMillis(0.2);
        }
        auto resp = scheduler.Score(request);
        if (resp.ok()) {
          ++ok_count;
          if (resp.value().degraded) ++degraded_count;
          answers[static_cast<size_t>(t)].push_back(
              OkAnswer{request.entity_ids, resp.value().scores,
                       resp.value().row_flags,
                       resp.value().snapshot_version});
        } else if (resp.status().code() == StatusCode::kDeadlineExceeded) {
          ++deadline_count;
        } else {
          ++other_count;
        }
      }
    });
  }

  const std::vector<double>* refs[2] = {&ref_b_, &ref_a_};
  const std::shared_ptr<DbGraph> graphs[2] = {dbg_b_, dbg_a_};
  for (int round = 0; round < 20; ++round) {
    if (engine->ApplyDelta(SharedGraph(graphs[round % 2]), Now(), {}).ok()) {
      graph_of_version.push_back(refs[round % 2]);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (auto& th : threads) th.join();

  // Under kStaleSnapshot the only non-OK outcome a coalesced request may
  // see is DeadlineExceeded (refused at enqueue with an expired budget).
  EXPECT_EQ(other_count.load(), 0);
  EXPECT_EQ(ok_count.load() + deadline_count.load(), kThreads * kIters);

  // Scheduler books: every request accounted, dedup never invents rows.
  const CoalesceStats cs = scheduler.stats();
  EXPECT_EQ(cs.requests, kThreads * kIters);
  EXPECT_GT(cs.batches, 0);
  EXPECT_LE(cs.rows_executed + cs.dedup_rows, cs.rows_submitted);
  // The engine counts batches that executed to an OK response; batches
  // whose merged deadline (all members tight) expired pre-execution are
  // scheduler attempts with no engine-side answer.
  EXPECT_LE(engine->stats().requests, cs.batches);

  // Delivered rows: flags agree with the NaN pattern, and every resolved
  // row matches the claimed version's reference bit-for-bit.
  ASSERT_EQ(graph_of_version.size(),
            static_cast<size_t>(engine->snapshot_version()) + 1);
  int checked = 0;
  for (const auto& per_thread : answers) {
    for (const OkAnswer& a : per_thread) {
      ASSERT_GE(a.version, 0);
      ASSERT_LT(static_cast<size_t>(a.version), graph_of_version.size());
      const std::vector<double>& ref = *graph_of_version[a.version];
      ASSERT_EQ(a.flags.size(), a.ids.size());
      for (size_t i = 0; i < a.ids.size(); ++i) {
        EXPECT_EQ(std::isnan(a.scores[i]), a.flags[i] != kRowResolved);
        if (std::isnan(a.scores[i])) continue;  // degraded row
        EXPECT_EQ(a.scores[i], ref[static_cast<size_t>(a.ids[i])])
            << "id " << a.ids[i] << " at version " << a.version;
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 0);
}

// --------------------------------------------------------------- env config

TEST_F(ChaosTest, EnvVarArmsTheChaosConfiguration) {
  ServeOptions serve;
  serve.degrade_mode = DegradeMode::kStaleSnapshot;
  serve.enable_subgraph_cache = false;
  serve.enable_embedding_cache = false;
  auto engine = MakeEngine(SharedGraph(dbg_a_), serve);

  ::setenv("RELGRAPH_FAULTS", "serve_sample=p1.0@5,serve_snapshot_advance=1",
           /*overwrite=*/1);
  auto armed = FaultInjector::Global().ArmFromEnv();
  ::unsetenv("RELGRAPH_FAULTS");
  ASSERT_TRUE(armed.ok());
  EXPECT_EQ(armed.value(), 2);

  // p=1.0 sampler faults: every fresh sample fails, every row degrades.
  ScoreRequest request;
  request.entity_ids = {1, 2, 3};
  auto resp = engine->ScoreWithOptions(request);
  ASSERT_TRUE(resp.ok());
  EXPECT_TRUE(resp.value().degraded);
  EXPECT_EQ(resp.value().rows_degraded, 3);
  for (double s : resp.value().scores) EXPECT_TRUE(std::isnan(s));

  // The one-shot advance poison fires once, then advances work again.
  EXPECT_FALSE(engine->ApplyDelta(SharedGraph(dbg_b_), Now(), {}).ok());
  EXPECT_TRUE(engine->ApplyDelta(SharedGraph(dbg_b_), Now(), {}).ok());
}

// ---------------------------------------------------------- streaming chaos

TEST_F(ChaosTest, StreamingPipelineSurvivesSeededFaultStorm) {
  // The full streaming pipeline — append validation, incremental graph
  // fold, delta publication — under seeded probabilistic faults at the
  // kAppendApply, kCompact and kServeSnapshotAdvance sites while the
  // engine keeps answering. Invariants:
  //   - Apply never errors for valid batches (faults route to recovery);
  //   - the graph stays bit-identical to a from-scratch rebuild;
  //   - every score served at the end matches a fault-free reference.
  Database db = MakeECommerceDb([] {
    ECommerceConfig cfg;
    cfg.num_users = 80;
    cfg.num_products = 25;
    cfg.num_categories = 4;
    cfg.horizon_days = 150;
    return cfg;
  }());
  StreamingOptions sopts;
  sopts.compact_threshold = 1;  // compact every apply so kCompact gets hit
  auto stream = StreamingDbGraph::Create(&db, sopts).value();
  auto engine = MakeEngine(stream->graph(), ServeOptions{});

  FaultInjector::Global().ArmProbability(FaultSite::kAppendApply, 0.3, 11);
  FaultInjector::Global().ArmProbability(FaultSite::kCompact, 0.5, 12);
  FaultInjector::Global().ArmProbability(FaultSite::kServeSnapshotAdvance,
                                         0.25, 13);

  std::vector<int64_t> ids = {0, 7, 21, 42, 63, 79};
  int64_t recoveries = 0, publish_failures = 0;
  const int64_t next_order = db.table("orders").num_rows() + 1000000;
  for (int64_t round = 0; round < 12; ++round) {
    AppendBatch batch;
    for (int64_t i = 0; i < 3; ++i) {
      batch.Add("orders",
                {Value(next_order + round * 3 + i),
                 Value(round * 5 % 80 + 1), Value(i % 25 + 1),
                 Value::Time(Now() - 1), Value(int64_t{1}), Value(9.5),
                 Value(9.5)});
    }
    auto result = stream->Apply(batch);
    ASSERT_TRUE(result.ok()) << result.status().message();
    ASSERT_EQ(result.value().outcome.rows_applied, 3);
    recoveries += result.value().recovered ? 1 : 0;

    Status published = engine->ApplyDelta(result.value().graph, Now(),
                                          result.value().delta);
    publish_failures += published.ok() ? 0 : 1;

    // The engine must answer every round, whichever snapshot it holds.
    auto scores = engine->Score(ids);
    ASSERT_TRUE(scores.ok()) << scores.status().message();
  }
  EXPECT_GT(recoveries, 0);
  EXPECT_GT(publish_failures, 0);
  EXPECT_GT(FaultInjector::Global().fired(FaultSite::kAppendApply), 0);
  EXPECT_GT(FaultInjector::Global().fired(FaultSite::kCompact), 0);
  FaultInjector::Global().Reset();

  // Storm over: the stream still equals its rebuild oracle...
  auto rebuilt = std::make_shared<DbGraph>(
      BuildDbGraph(db, stream->RebuildOptions()).value());
  // ...and once the newest epoch lands (possibly over a broken delta
  // chain — the engine swaps wholesale then), served scores are exactly
  // the fault-free reference's.
  ASSERT_TRUE(engine
                  ->ApplyDelta(stream->graph(), Now(), GraphDelta{})
                  .ok());
  auto reference = MakeEngine(SharedGraph(rebuilt), ServeOptions{});
  auto got = engine->Score(ids);
  auto want = reference->Score(ids);
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(want.ok());
  EXPECT_TRUE(SameScores(got.value(), want.value()));
}

}  // namespace
}  // namespace relgraph
