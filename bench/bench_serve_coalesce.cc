// Serving coalescing benchmark: contended throughput with and without the
// request-coalescing scheduler.
//
// Trains the same tiny churn model as bench_serve_throughput, computes a
// per-id solo reference score table, then replays identical 4-thread
// Zipfian request streams two ways:
//
//   solo        every thread calls InferenceEngine::ScoreWithOptions
//               directly (the pre-scheduler serving path)
//   coalesced   every thread calls CoalescingScheduler::Score, so
//               concurrent requests gather into shared micro-batches and
//               overlapping ids sample/forward once
//
// Both caches stay off so each executed row is a real sample+forward:
// coalescing's win is then exactly the work it dedups plus the batch
// shapes it restores, not cache luck. Every OK response is checked
// bit-for-bit against the solo reference table — the scheduler's core
// contract is that coalescing is invisible in the scores — and any
// mismatch fails the benchmark with exit 1.
//
// Appends p50/p99/mean latency, throughput, coalesce rate (requests that
// shared a batch / all requests) and dedup rate (rows saved / rows
// submitted) to the BENCH_serve.json written by bench_serve_throughput.
//
// Usage: bench_serve_coalesce [output.json]   (default BENCH_serve.json)

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/rng.h"
#include "core/timer.h"
#include "datagen/ecommerce.h"
#include "db2graph/graph_builder.h"
#include "pq/label_builder.h"
#include "pq/parser.h"
#include "serve/coalescing_scheduler.h"
#include "train/trainer.h"

using namespace relgraph;
using namespace relgraph::bench;

namespace {

constexpr const char* kQuery =
    "PREDICT COUNT(orders) = 0 OVER NEXT 28 DAYS FOR EACH users";
constexpr int kThreads = 4;
constexpr int kRequestsPerThread = 50;
constexpr int64_t kRequestBatch = 16;
constexpr double kZipfAlpha = 1.1;

GnnConfig ModelConfig() {
  GnnConfig gnn;
  gnn.hidden_dim = 32;
  gnn.num_layers = 2;
  return gnn;
}

SamplerOptions SamplerConfig() {
  SamplerOptions sopts;
  sopts.fanouts = {8, 8};
  sopts.policy = SamplePolicy::kMostRecent;
  return sopts;
}

/// Per-thread Zipfian request streams, regenerated from fixed seeds so
/// both configurations replay the identical traffic.
std::vector<std::vector<std::vector<int64_t>>> MakeStreams(
    int64_t num_users) {
  std::vector<std::vector<std::vector<int64_t>>> streams(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    Rng rng(900 + static_cast<uint64_t>(t));
    streams[t].reserve(kRequestsPerThread);
    for (int r = 0; r < kRequestsPerThread; ++r) {
      std::vector<int64_t> ids;
      ids.reserve(kRequestBatch);
      for (int64_t i = 0; i < kRequestBatch; ++i) {
        ids.push_back(
            rng.PowerLawIndex(static_cast<int>(num_users), kZipfAlpha));
      }
      streams[t].push_back(std::move(ids));
    }
  }
  return streams;
}

struct FloodResult {
  int64_t ok = 0;
  int64_t mismatches = 0;  ///< scores deviating from the solo reference
  int64_t failures = 0;    ///< non-OK outcomes (must stay 0: no deadlines)
  double p50_ms = 0;
  double p99_ms = 0;
  double mean_ms = 0;
  double wall_s = 0;
};

double Percentile(std::vector<double>* v, double p) {
  if (v->empty()) return 0.0;
  std::sort(v->begin(), v->end());
  const double pos = p * static_cast<double>(v->size() - 1);
  return (*v)[static_cast<size_t>(pos + 0.5)];
}

/// Replays all streams concurrently through `score`, checking every
/// response against `reference` exactly (bit-identity gate).
FloodResult Flood(
    const std::function<Result<ScoreResponse>(const ScoreRequest&)>& score,
    const std::vector<std::vector<std::vector<int64_t>>>& streams,
    const std::vector<double>& reference) {
  std::vector<std::vector<double>> lat(kThreads);
  std::vector<FloodResult> partial(kThreads);
  Timer wall;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (const auto& ids : streams[t]) {
        ScoreRequest req;
        req.entity_ids = ids;
        Timer timer;
        auto resp = score(req);
        const double ms = timer.Millis();
        if (!resp.ok()) {
          ++partial[t].failures;
          std::fprintf(stderr, "unexpected outcome: %s\n",
                       resp.status().ToString().c_str());
          continue;
        }
        ++partial[t].ok;
        lat[t].push_back(ms);
        const auto& scores = resp.value().scores;
        for (size_t i = 0; i < ids.size(); ++i) {
          if (scores[i] != reference[static_cast<size_t>(ids[i])]) {
            ++partial[t].mismatches;
          }
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  FloodResult total;
  total.wall_s = wall.Seconds();
  std::vector<double> all;
  for (int t = 0; t < kThreads; ++t) {
    total.ok += partial[t].ok;
    total.mismatches += partial[t].mismatches;
    total.failures += partial[t].failures;
    all.insert(all.end(), lat[t].begin(), lat[t].end());
  }
  total.p50_ms = Percentile(&all, 0.50);
  total.p99_ms = Percentile(&all, 0.99);
  if (!all.empty()) {
    double sum = 0.0;
    for (double v : all) sum += v;
    total.mean_ms = sum / static_cast<double>(all.size());
  }
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_serve.json";

  // ---- train once -------------------------------------------------------
  ECommerceConfig cfg;
  cfg.num_users = 300;
  cfg.num_products = 60;
  cfg.num_categories = 6;
  cfg.horizon_days = 150;
  Database db = MakeECommerceDb(cfg);
  auto rq = AnalyzeQuery(ParseQuery(kQuery).value(), db).value();
  auto cutoffs = MakeCutoffs(rq, db).value();
  auto table = BuildTrainingTable(rq, db, cutoffs).value();
  auto split = MakeSplit(rq, table, cutoffs).value();
  auto dbg = std::make_shared<DbGraph>(BuildDbGraph(db).value());
  const NodeTypeId users = dbg->graph.FindNodeType("users").value();

  TrainerConfig tc;
  tc.epochs = 2;
  tc.seed = 3;
  GnnNodePredictor trainer(&dbg->graph, users,
                           TaskKind::kBinaryClassification, 2, ModelConfig(),
                           SamplerConfig(), tc);
  if (!trainer.Fit(table, split).ok()) return 1;
  const std::string ckpt = "/tmp/bench_serve_coalesce.ckpt";
  if (!trainer.SaveWeights(ckpt).ok()) return 1;

  const Timestamp now = db.TimeRange().second + 1;
  // Caches off: every executed row is a real sample+forward, so the only
  // dedup in play is the scheduler's own.
  ServeOptions serve;
  serve.enable_subgraph_cache = false;
  serve.enable_embedding_cache = false;
  auto make_engine = [&] {
    auto engine = std::make_unique<InferenceEngine>(
        SharedGraph(dbg), users, TaskKind::kBinaryClassification, 2,
        ModelConfig(), SamplerConfig(), now, serve);
    if (!engine->LoadCheckpoint(ckpt).ok()) std::exit(1);
    return engine;
  };

  // ---- solo reference table --------------------------------------------
  std::vector<double> reference;
  {
    auto engine = make_engine();
    std::vector<int64_t> ids(cfg.num_users);
    for (int64_t i = 0; i < cfg.num_users; ++i) ids[i] = i;
    auto scores = engine->Score(ids);
    if (!scores.ok()) return 1;
    reference = std::move(scores).value();
  }

  const auto streams = MakeStreams(cfg.num_users);
  const int64_t total_requests = kThreads * kRequestsPerThread;
  const int64_t total_rows = total_requests * kRequestBatch;
  std::printf("flood: %d threads x %d requests, batch %lld, zipf %.1f\n",
              kThreads, kRequestsPerThread,
              static_cast<long long>(kRequestBatch), kZipfAlpha);

  std::vector<BenchRecord> records;
  int64_t bad = 0;
  auto measure = [&](const char* name, const auto& score_fn,
                     CoalescingScheduler* scheduler) {
    const FloodResult r = Flood(score_fn, streams, reference);
    bad += r.failures + r.mismatches;
    if (r.mismatches != 0) {
      std::fprintf(stderr,
                   "%s: %lld scores deviate from the solo reference — "
                   "coalescing must be bit-invisible\n",
                   name, static_cast<long long>(r.mismatches));
    }
    BenchRecord rec;
    rec.name = name;
    rec.threads = kThreads;
    rec.wall_ms = r.mean_ms;
    rec.rate = static_cast<double>(r.ok * kRequestBatch) / r.wall_s;
    rec.extra.emplace_back("p50_ms", r.p50_ms);
    rec.extra.emplace_back("p99_ms", r.p99_ms);
    double coalesce_rate = 0.0, dedup_rate = 0.0;
    if (scheduler != nullptr) {
      const CoalesceStats cs = scheduler->stats();
      coalesce_rate = static_cast<double>(cs.coalesced_requests) /
                      static_cast<double>(cs.requests);
      dedup_rate = static_cast<double>(cs.dedup_rows) /
                   static_cast<double>(cs.rows_submitted);
      rec.extra.emplace_back("batches", static_cast<double>(cs.batches));
      rec.extra.emplace_back("rows_executed",
                             static_cast<double>(cs.rows_executed));
    }
    rec.extra.emplace_back("coalesce_rate", coalesce_rate);
    rec.extra.emplace_back("dedup_rate", dedup_rate);
    records.push_back(rec);
    std::printf(
        "%-16s p50 %7.2f ms  p99 %7.2f ms  %8.0f rows/s  "
        "coalesce %4.0f%%  dedup %4.0f%%\n",
        name, r.p50_ms, r.p99_ms, rec.rate, 100.0 * coalesce_rate,
        100.0 * dedup_rate);
    return r;
  };

  auto solo_engine = make_engine();
  const FloodResult solo = measure(
      "coalesce_solo",
      [&](const ScoreRequest& req) {
        return solo_engine->ScoreWithOptions(req);
      },
      nullptr);
  if (solo.ok != total_requests) return 1;

  auto coalesced_engine = make_engine();
  CoalescingScheduler scheduler(coalesced_engine.get());
  const FloodResult coalesced = measure(
      "coalesce_on",
      [&](const ScoreRequest& req) { return scheduler.Score(req); },
      &scheduler);
  if (coalesced.ok != total_requests) return 1;
  if (bad != 0) return 1;  // bit-identity gate

  const CoalesceStats cs = scheduler.stats();
  std::printf(
      "\ncoalesced p99 %.2f ms vs solo p99 %.2f ms (%.2fx); "
      "%lld of %lld rows deduped\n",
      coalesced.p99_ms, solo.p99_ms, solo.p99_ms / coalesced.p99_ms,
      static_cast<long long>(cs.dedup_rows),
      static_cast<long long>(total_rows));
  if (cs.coalesced_requests == 0) {
    std::fprintf(stderr, "WARNING: no requests ever shared a batch\n");
  }
  if (coalesced.p99_ms > solo.p99_ms) {
    std::fprintf(stderr,
                 "WARNING: coalescing did not improve contended p99\n");
  }
  return AppendBenchJson(out_path, "serve_coalesce", records) ? 0 : 1;
}
