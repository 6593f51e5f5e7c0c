// End-to-end forward-path benchmark with allocation accounting.
//
// Measures (1) a full GnnNodePredictor::Fit run cold (first process run,
// arena empty) and warm (identical rerun, arena seeded), and (2) serving
// Score requests cold (caches off, every request re-samples and re-encodes)
// and warm (embedding cache hot). Each record carries the tensor buffer
// arena's counter deltas, so BENCH_forward.json documents the zero-alloc
// claim next to the wall times: steady-state training batches and serving
// requests perform zero tensor heap allocations (heap_allocs == 0 on the
// warm/steady records; the matching hard assertions live in
// tests/arena_test.cc).
//
// Usage: bench_forward [output.json]   (default BENCH_forward.json)

#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/buffer_pool.h"
#include "core/timer.h"
#include "db2graph/graph_builder.h"
#include "pq/label_builder.h"
#include "pq/parser.h"
#include "serve/inference_engine.h"
#include "tensor/simd_kernels.h"
#include "train/trainer.h"

using namespace relgraph;
using namespace relgraph::bench;

namespace {

struct ArenaDelta {
  FloatBufferPool::Stats start = FloatBufferPool::Global().stats();

  void Attach(BenchRecord* rec) const {
    const auto now = FloatBufferPool::Global().stats();
    rec->extra.emplace_back(
        "heap_allocs", static_cast<double>(now.heap_allocs -
                                           start.heap_allocs));
    rec->extra.emplace_back(
        "pool_hits",
        static_cast<double>(now.pool_hits - start.pool_hits));
  }
};

void Emit(BenchRecord rec, std::vector<BenchRecord>* out) {
  rec.threads = 1;
  rec.extra.emplace_back("simd", kern::SimdEnabled() ? 1.0 : 0.0);
  std::printf("%-28s %10.2f ms %12.1f rows/s", rec.name.c_str(), rec.wall_ms,
              rec.rate);
  for (const auto& [key, value] : rec.extra) {
    std::printf("  %s=%.0f", key.c_str(), value);
  }
  std::printf("\n");
  out->push_back(std::move(rec));
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_forward.json";

  ECommerceConfig cfg;
  cfg.num_users = 200;
  cfg.num_products = 40;
  cfg.num_categories = 6;
  cfg.horizon_days = 150;
  Database db = MakeECommerceDb(cfg);
  auto dbg = std::make_shared<DbGraph>(BuildDbGraph(db).value());
  const NodeTypeId users = dbg->graph.FindNodeType("users").value();

  const char* kQuery =
      "PREDICT COUNT(orders) = 0 OVER NEXT 28 DAYS FOR EACH users";
  auto rq = AnalyzeQuery(ParseQuery(kQuery).value(), db).value();
  auto cutoffs = MakeCutoffs(rq, db).value();
  auto table = BuildTrainingTable(rq, db, cutoffs).value();
  auto split = MakeSplit(rq, table, cutoffs).value();

  GnnConfig gnn;
  gnn.hidden_dim = 32;
  gnn.num_layers = 2;
  SamplerOptions sopts;
  sopts.fanouts = {8, 8};
  sopts.policy = SamplePolicy::kMostRecent;
  TrainerConfig tc;
  tc.epochs = 3;
  tc.seed = 3;

  auto make_trainer = [&] {
    return std::make_unique<GnnNodePredictor>(
        &dbg->graph, users, TaskKind::kBinaryClassification, 2, gnn, sopts,
        tc);
  };
  const double train_rows =
      static_cast<double>(tc.epochs) * static_cast<double>(split.train.size());

  std::vector<BenchRecord> records;
  std::printf("=== forward path (%s build, arena %s) ===\n", kern::SimdName(),
              FloatBufferPool::Global().enabled() ? "on" : "off");

  // ----------------------------------------------------------------- Fit
  const std::string ckpt = "/tmp/bench_forward.ckpt";
  {
    auto trainer = make_trainer();
    ArenaDelta arena;
    Timer t;
    if (!trainer->Fit(table, split).ok()) return 1;
    BenchRecord rec;
    rec.name = "fit_cold/t1";
    rec.wall_ms = t.Millis();
    rec.rate = train_rows / (rec.wall_ms / 1e3);
    arena.Attach(&rec);
    Emit(std::move(rec), &records);
    if (!trainer->SaveWeights(ckpt).ok()) return 1;
  }
  {
    // Identical rerun over the seeded arena: the steady-state number.
    auto trainer = make_trainer();
    ArenaDelta arena;
    Timer t;
    if (!trainer->Fit(table, split).ok()) return 1;
    BenchRecord rec;
    rec.name = "fit_warm/t1";
    rec.wall_ms = t.Millis();
    rec.rate = train_rows / (rec.wall_ms / 1e3);
    arena.Attach(&rec);
    Emit(std::move(rec), &records);
  }

  // --------------------------------------------------------------- Score
  const Timestamp now = db.TimeRange().second + 1;
  std::vector<int64_t> ids;
  for (int64_t i = 0; i < 64; ++i) ids.push_back((i * 3) % cfg.num_users);

  {
    // Cold serving: caches off, so every pass samples + encodes from
    // scratch. One unmeasured pass seeds the arena's size classes.
    ServeOptions off;
    off.enable_subgraph_cache = false;
    off.enable_embedding_cache = false;
    InferenceEngine engine(SharedGraph(dbg), users,
                           TaskKind::kBinaryClassification, 2, gnn, sopts,
                           now, off);
    if (!engine.LoadCheckpoint(ckpt).ok()) return 1;
    if (!engine.Score(ids).ok()) return 1;
    const int kPasses = 20;
    ArenaDelta arena;
    Timer t;
    for (int p = 0; p < kPasses; ++p) {
      if (!engine.Score(ids).ok()) return 1;
    }
    BenchRecord rec;
    rec.name = "score_cold/t1";
    rec.wall_ms = t.Millis() / kPasses;
    rec.rate = static_cast<double>(ids.size()) / (rec.wall_ms / 1e3);
    arena.Attach(&rec);
    Emit(std::move(rec), &records);
  }
  {
    // Warm serving: embedding cache hot, requests reduce to head forwards.
    InferenceEngine engine(SharedGraph(dbg), users,
                           TaskKind::kBinaryClassification, 2, gnn, sopts,
                           now);
    if (!engine.LoadCheckpoint(ckpt).ok()) return 1;
    if (!engine.Score(ids).ok()) return 1;  // fill the caches
    const int kPasses = 50;
    ArenaDelta arena;
    Timer t;
    for (int p = 0; p < kPasses; ++p) {
      if (!engine.Score(ids).ok()) return 1;
    }
    BenchRecord rec;
    rec.name = "score_warm/t1";
    rec.wall_ms = t.Millis() / kPasses;
    rec.rate = static_cast<double>(ids.size()) / (rec.wall_ms / 1e3);
    arena.Attach(&rec);
    Emit(std::move(rec), &records);
  }

  return WriteBenchJson(out_path, "forward_path", records) ? 0 : 1;
}
