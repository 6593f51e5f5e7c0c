// Online serving demo: compile a predictive query for serving, load a
// trained checkpoint into the InferenceEngine, and answer scoring requests
// with subgraph/embedding caching.
//
// 1. train the churn query and checkpoint the weights (as an offline job
//    would);
// 2. CompileForServing the SAME query -> ServePlan (no training);
// 3. build an InferenceEngine from the plan, load the checkpoint, warm the
//    caches for the hottest users;
// 4. serve scoring requests and print cache/latency statistics;
// 5. publish a fresh graph snapshot and keep serving.
//
// Run: ./build/examples/serve_demo [output_dir]

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/deadline.h"
#include "core/rng.h"
#include "core/timer.h"
#include "datagen/ecommerce.h"
#include "pq/engine.h"
#include "pq/label_builder.h"
#include "pq/parser.h"
#include "serve/inference_engine.h"
#include "train/trainer.h"

using namespace relgraph;

namespace {

// The serving WITH options must match the checkpoint's training options —
// the plan carries them to the engine so the architectures line up.
constexpr const char* kQuery =
    "PREDICT COUNT(orders) = 0 OVER NEXT 28 DAYS FOR EACH users "
    "USING GNN WITH hidden=32, layers=2, fanout=8, policy=recent, seed=3";

void PrintStats(const InferenceEngine& engine) {
  const ServeStats s = engine.stats();
  std::printf(
      "  stats: %lld requests / %lld entities | subgraph cache %lld hit "
      "%lld miss | embedding cache %lld hit %lld miss | snapshot v%lld\n",
      static_cast<long long>(s.requests),
      static_cast<long long>(s.entities_scored),
      static_cast<long long>(s.subgraph_hits),
      static_cast<long long>(s.subgraph_misses),
      static_cast<long long>(s.embedding_hits),
      static_cast<long long>(s.embedding_misses),
      static_cast<long long>(engine.snapshot_version()));
}

}  // namespace

int main(int argc, char** argv) {
  const std::string dir = argc > 1 ? argv[1] : "/tmp";
  const std::string ckpt_path = dir + "/relgraph_serve_demo.ckpt";

  // ---- offline: train the query and checkpoint the weights --------------
  ECommerceConfig cfg;
  cfg.num_users = 300;
  cfg.num_products = 60;
  cfg.num_categories = 6;
  cfg.horizon_days = 150;
  Database db = MakeECommerceDb(cfg);

  PredictiveQueryEngine pq(&db);
  auto plan = pq.CompileForServing(kQuery);
  if (!plan.ok()) {
    std::fprintf(stderr, "compile failed: %s\n",
                 plan.status().ToString().c_str());
    return 1;
  }
  std::printf("compiled for serving: entity table '%s', now cutoff %lld\n",
              plan.value().entity_table.c_str(),
              static_cast<long long>(plan.value().now_cutoff));

  {
    auto rq = AnalyzeQuery(ParseQuery(kQuery).value(), db).value();
    auto cutoffs = MakeCutoffs(rq, db).value();
    auto table = BuildTrainingTable(rq, db, cutoffs).value();
    auto split = MakeSplit(rq, table, cutoffs).value();
    TrainerConfig tc;
    tc.epochs = 4;
    tc.seed = plan.value().seed;
    GnnNodePredictor trainer(plan.value().graph.get(),
                             plan.value().entity_type, plan.value().kind,
                             plan.value().num_classes, plan.value().gnn,
                             plan.value().sampler, tc);
    if (!trainer.Fit(table, split).ok()) return 1;
    if (!trainer.SaveWeights(ckpt_path).ok()) return 1;
    std::printf("trained (val %.4f) -> %s\n", trainer.best_val_metric(),
                ckpt_path.c_str());
  }

  // ---- online: engine from the plan + checkpoint ------------------------
  // The plan shares ownership of the query engine's graph, so the engine
  // stays valid even if `pq` goes away first.
  ServeOptions serve;
  serve.micro_batch_size = 16;
  InferenceEngine engine(plan.value(), serve);
  if (Status st = engine.LoadCheckpoint(ckpt_path); !st.ok()) {
    std::fprintf(stderr, "load failed: %s\n", st.ToString().c_str());
    return 1;
  }

  // Warm the caches for the "hottest" users before traffic arrives.
  std::vector<int64_t> hottest;
  for (int64_t u = 0; u < 32; ++u) hottest.push_back(u);
  if (!engine.WarmUp(hottest).ok()) return 1;
  std::printf("warmed %zu hottest users\n", hottest.size());
  PrintStats(engine);

  // Serve a Zipfian request stream (hot users dominate, like production)
  // through the full-policy entry point: each request carries its own
  // deadline and answers an out-of-range id as a NaN row instead of
  // failing the whole request.
  Rng traffic(42);
  Timer timer;
  for (int r = 0; r < 50; ++r) {
    ScoreRequest req;
    for (int i = 0; i < 8; ++i) {
      req.entity_ids.push_back(
          traffic.PowerLawIndex(static_cast<int>(cfg.num_users), 1.1));
    }
    req.deadline = Deadline::AfterMillis(250.0);
    req.invalid_id_policy = InvalidIdPolicy::kNanRow;
    auto resp = engine.ScoreWithOptions(req);
    if (!resp.ok()) {
      std::fprintf(stderr, "score failed: %s\n",
                   resp.status().ToString().c_str());
      return 1;
    }
    if (r == 0) {
      std::printf("first request:");
      for (size_t i = 0; i < req.entity_ids.size(); ++i) {
        std::printf(" u%lld=%.3f", static_cast<long long>(req.entity_ids[i]),
                    resp.value().scores[i]);
      }
      std::printf("\n");
    }
  }
  std::printf("served 50 requests in %.1f ms\n", timer.Millis());
  PrintStats(engine);

  // ---- a new day of data arrives: publish a fresh snapshot --------------
  // (Here the "fresh" snapshot is an independent rebuild of the same
  // database; production would rebuild from the updated DB, or stream
  // appends through StreamingDbGraph and pass each epoch's GraphDelta.)
  // With no delta the engine invalidates its caches wholesale.
  auto fresh = std::make_shared<DbGraph>(BuildDbGraph(db).value());
  if (Status st = engine.ApplyDelta(SharedGraph(fresh),
                                    db.TimeRange().second + 1, {});
      !st.ok()) {
    std::fprintf(stderr, "publish failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("published snapshot; caches invalidated, serving continues\n");
  auto after = engine.Score(hottest);
  if (!after.ok()) return 1;
  std::printf("re-scored %zu warmed users on the new snapshot\n",
              after.value().size());
  PrintStats(engine);
  return 0;
}
