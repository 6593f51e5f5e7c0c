// Online serving throughput benchmark.
//
// Trains a small churn model once, then replays a Zipfian request stream
// (hot entities dominate, as in real serving traffic) against the
// InferenceEngine in three configurations:
//
//   cold            both caches disabled — every request samples and runs
//                   the full GNN forward
//   subgraph_cache  subgraph LRU only — sampling amortized, forwards not
//   warm            both caches, measured at steady state after a priming
//                   pass over the stream
//
// Scores are verified bit-identical across all configurations on a probe
// batch before anything is timed (the engine's core guarantee), and the
// results go to BENCH_serve.json for cross-PR perf tracking. The headline
// number is the warm/cold throughput ratio.
//
// Usage: bench_serve_throughput [output.json]   (default BENCH_serve.json)

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/rng.h"
#include "core/timer.h"
#include "datagen/ecommerce.h"
#include "db2graph/graph_builder.h"
#include "db2graph/streaming.h"
#include "pq/label_builder.h"
#include "pq/parser.h"
#include "serve/inference_engine.h"
#include "train/trainer.h"

using namespace relgraph;
using namespace relgraph::bench;

namespace {

constexpr const char* kQuery =
    "PREDICT COUNT(orders) = 0 OVER NEXT 28 DAYS FOR EACH users";
constexpr int64_t kRequestBatch = 16;
constexpr int64_t kNumRequests = 200;
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

/// The Zipfian id stream every configuration replays (regenerated from the
/// same seed so each engine sees the identical traffic).
std::vector<std::vector<int64_t>> MakeStream(int64_t num_users) {
  Rng rng(777);
  std::vector<std::vector<int64_t>> stream;
  stream.reserve(kNumRequests);
  for (int64_t r = 0; r < kNumRequests; ++r) {
    std::vector<int64_t> ids;
    ids.reserve(kRequestBatch);
    for (int64_t i = 0; i < kRequestBatch; ++i) {
      ids.push_back(rng.PowerLawIndex(static_cast<int>(num_users),
                                      kZipfAlpha));
    }
    stream.push_back(std::move(ids));
  }
  return stream;
}

/// Entities/second over one replay of the stream.
double ReplayStream(InferenceEngine* engine,
                    const std::vector<std::vector<int64_t>>& stream) {
  Timer timer;
  for (const auto& req : stream) {
    auto scores = engine->Score(req);
    if (!scores.ok()) {
      std::fprintf(stderr, "score failed: %s\n",
                   scores.status().ToString().c_str());
      std::exit(1);
    }
  }
  const double seconds = timer.Seconds();
  return static_cast<double>(kNumRequests * kRequestBatch) / seconds;
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
  const std::string ckpt = "/tmp/bench_serve.ckpt";
  if (!trainer.SaveWeights(ckpt).ok()) return 1;
  std::printf("trained and checkpointed (%lld users)\n",
              static_cast<long long>(cfg.num_users));

  const Timestamp now = db.TimeRange().second + 1;
  auto make_engine_on = [&](std::shared_ptr<const HeteroGraph> graph,
                            const ServeOptions& serve) {
    auto engine = std::make_unique<InferenceEngine>(
        std::move(graph), users, TaskKind::kBinaryClassification, 2,
        ModelConfig(), SamplerConfig(), now, serve);
    if (!engine->LoadCheckpoint(ckpt).ok()) std::exit(1);
    return engine;
  };
  auto make_engine = [&](const ServeOptions& serve) {
    return make_engine_on(SharedGraph(dbg), serve);
  };

  ServeOptions cold_opts;
  cold_opts.enable_subgraph_cache = false;
  cold_opts.enable_embedding_cache = false;
  ServeOptions subgraph_opts;
  subgraph_opts.enable_embedding_cache = false;
  ServeOptions warm_opts;  // defaults: both caches on

  // ---- bit-identity gate ------------------------------------------------
  // Nothing is worth timing if caching perturbs the scores.
  std::vector<int64_t> probe;
  for (int64_t i = 0; i < cfg.num_users; i += 7) probe.push_back(i);
  auto cold_engine = make_engine(cold_opts);
  auto subgraph_engine = make_engine(subgraph_opts);
  auto warm_engine = make_engine(warm_opts);
  const auto want = cold_engine->Score(probe).value();
  for (InferenceEngine* engine :
       {subgraph_engine.get(), warm_engine.get()}) {
    for (int pass = 0; pass < 2; ++pass) {  // cold pass, then cached pass
      const auto got = engine->Score(probe).value();
      for (size_t i = 0; i < want.size(); ++i) {
        if (got[i] != want[i]) {
          std::fprintf(stderr,
                       "BIT-IDENTITY VIOLATION at probe %zu: %.17g != %.17g\n",
                       i, got[i], want[i]);
          return 1;
        }
      }
    }
  }
  std::printf("bit-identity gate passed (%zu probes, all configurations)\n",
              probe.size());

  // ---- timed replays ----------------------------------------------------
  const auto stream = MakeStream(cfg.num_users);
  const double total = static_cast<double>(kNumRequests * kRequestBatch);
  std::vector<BenchRecord> records;

  auto measure = [&](const char* name, InferenceEngine* engine) {
    const ServeStats before = engine->stats();
    const double rate = ReplayStream(engine, stream);
    const ServeStats after = engine->stats();
    BenchRecord rec;
    rec.name = name;
    rec.rate = rate;
    rec.wall_ms = total / rate * 1000.0 /
                  static_cast<double>(kNumRequests);  // per request
    rec.threads = 1;
    const double sub_lookups =
        static_cast<double>(after.subgraph_hits - before.subgraph_hits +
                            after.subgraph_misses - before.subgraph_misses);
    const double emb_lookups =
        static_cast<double>(after.embedding_hits - before.embedding_hits +
                            after.embedding_misses - before.embedding_misses);
    rec.extra.emplace_back(
        "subgraph_hit_rate",
        sub_lookups > 0
            ? (after.subgraph_hits - before.subgraph_hits) / sub_lookups
            : 0.0);
    rec.extra.emplace_back(
        "embedding_hit_rate",
        emb_lookups > 0
            ? (after.embedding_hits - before.embedding_hits) / emb_lookups
            : 0.0);
    records.push_back(rec);
    std::printf("%-16s %10.0f entities/s  (subgraph hit %.2f, embedding "
                "hit %.2f)\n",
                name, rate, records.back().extra[0].second,
                records.back().extra[1].second);
    return rate;
  };

  const double cold_rate = measure("cold", cold_engine.get());
  const double subgraph_rate = measure("subgraph_cache", subgraph_engine.get());
  // Steady state: prime the caches with one un-timed replay first.
  ReplayStream(warm_engine.get(), stream);
  const double warm_rate = measure("warm", warm_engine.get());

  const double speedup = warm_rate / cold_rate;
  std::printf("\nwarm/cold speedup: %.2fx (subgraph-only %.2fx)\n", speedup,
              subgraph_rate / cold_rate);
  records[2].extra.emplace_back("speedup_vs_cold", speedup);
  if (speedup < 2.0) {
    std::fprintf(stderr,
                 "WARNING: warm speedup %.2fx below the 2x target\n",
                 speedup);
  }

  // ---- warm-cache invalidation-precision gate ---------------------------
  // A published graph delta must invalidate ONLY the touched
  // neighborhoods. Wholesale invalidation would force every entity back
  // through the cold path after each streamed batch, erasing the warm
  // speedup measured above; this gate fails the bench if a single-order
  // delta evicts more than half the warm set, if a node-only delta evicts
  // anything, or if post-delta scores diverge from a cold engine on the
  // refreshed graph.
  auto dbstream_result = StreamingDbGraph::Create(&db);
  if (!dbstream_result.ok()) {
    std::fprintf(stderr, "stream create failed: %s\n",
                 dbstream_result.status().ToString().c_str());
    return 1;
  }
  auto dbstream = std::move(dbstream_result).value();
  auto delta_engine = make_engine_on(dbstream->graph(), warm_opts);
  std::vector<int64_t> all_users(static_cast<size_t>(cfg.num_users));
  for (int64_t i = 0; i < cfg.num_users; ++i) {
    all_users[static_cast<size_t>(i)] = i;
  }
  // Two passes: fill, then confirm fully warm.
  for (int pass = 0; pass < 2; ++pass) {
    auto warmup = delta_engine->Score(all_users);
    if (!warmup.ok()) {
      std::fprintf(stderr, "warmup score failed: %s\n",
                   warmup.status().ToString().c_str());
      return 1;
    }
  }

  // Node-only delta (a new user, no edges): zero evictions allowed.
  AppendBatch user_batch;
  user_batch.Add("users", {Value(cfg.num_users + 1), Value("zz"),
                           Value(30.0), Value(false)});
  auto user_apply = dbstream->Apply(user_batch);
  if (!user_apply.ok() || !user_apply.value().outcome.clean()) {
    std::fprintf(stderr, "node-only append failed\n");
    return 1;
  }
  const ServeStats before_node = delta_engine->stats();
  Status node_st = delta_engine->ApplyDelta(user_apply.value().graph, now,
                                            user_apply.value().delta);
  if (!node_st.ok()) {
    std::fprintf(stderr, "node-only ApplyDelta failed: %s\n",
                 node_st.ToString().c_str());
    return 1;
  }
  auto rescore_node = delta_engine->Score(all_users);
  if (!rescore_node.ok()) {
    std::fprintf(stderr, "post-node-delta score failed: %s\n",
                 rescore_node.status().ToString().c_str());
    return 1;
  }
  const ServeStats after_node = delta_engine->stats();
  const int64_t node_evictions =
      after_node.embedding_misses - before_node.embedding_misses;
  if (node_evictions != 0) {
    std::fprintf(stderr,
                 "INVALIDATION-PRECISION VIOLATION: node-only delta "
                 "evicted %lld warm entries\n",
                 static_cast<long long>(node_evictions));
    return 1;
  }

  // Single-order delta: only the touched neighborhoods may go cold.
  AppendBatch order_batch;
  order_batch.Add("orders",
                  {Value(int64_t{50000000}), Value(int64_t{1}),
                   Value(int64_t{1}), Value::Time(now - 1),
                   Value(int64_t{1}), Value(9.5), Value(9.5)});
  auto order_apply = dbstream->Apply(order_batch);
  if (!order_apply.ok() || !order_apply.value().outcome.clean()) {
    std::fprintf(stderr, "order append failed\n");
    return 1;
  }
  const ServeStats before_edge = delta_engine->stats();
  if (!delta_engine
           ->ApplyDelta(order_apply.value().graph, now,
                        order_apply.value().delta)
           .ok()) {
    std::fprintf(stderr, "order ApplyDelta failed\n");
    return 1;
  }
  auto rescore_edge = delta_engine->Score(all_users);
  if (!rescore_edge.ok()) {
    std::fprintf(stderr, "post-order-delta score failed: %s\n",
                 rescore_edge.status().ToString().c_str());
    return 1;
  }
  const ServeStats after_edge = delta_engine->stats();
  const int64_t invalidated =
      after_edge.embedding_misses - before_edge.embedding_misses;
  const double survived_frac =
      1.0 - static_cast<double>(invalidated) /
                static_cast<double>(cfg.num_users);
  std::printf("\ndelta invalidation: %lld of %lld warm entries evicted "
              "(%.0f%% survived)\n",
              static_cast<long long>(invalidated),
              static_cast<long long>(cfg.num_users),
              survived_frac * 100.0);
  if (invalidated < 1 || survived_frac < 0.5) {
    std::fprintf(stderr,
                 "INVALIDATION-PRECISION VIOLATION: single-order delta "
                 "evicted %lld/%lld warm entries\n",
                 static_cast<long long>(invalidated),
                 static_cast<long long>(cfg.num_users));
    return 1;
  }

  // Refreshed scores must still be bit-identical to a cold engine built
  // directly on the new epoch — surviving cache entries are only allowed
  // to survive because their inputs did not change.
  auto fresh = make_engine_on(order_apply.value().graph, cold_opts);
  const auto want_fresh = fresh->Score(all_users).value();
  const auto got_fresh = delta_engine->Score(all_users).value();
  for (size_t i = 0; i < want_fresh.size(); ++i) {
    if (got_fresh[i] != want_fresh[i]) {
      std::fprintf(stderr,
                   "BIT-IDENTITY VIOLATION after delta at user %zu: "
                   "%.17g != %.17g\n",
                   i, got_fresh[i], want_fresh[i]);
      return 1;
    }
  }
  std::printf("invalidation-precision gate passed\n");

  BenchRecord delta_rec;
  delta_rec.name = "delta_invalidation";
  delta_rec.rate = survived_frac;
  delta_rec.extra.emplace_back("invalidated",
                               static_cast<double>(invalidated));
  delta_rec.extra.emplace_back("survived_frac", survived_frac);
  records.push_back(delta_rec);

  return WriteBenchJson(out_path, "serve_throughput", records) ? 0 : 1;
}
