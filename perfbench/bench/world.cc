#include "bench/world.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <unordered_set>
#include <utility>

#include "core/timer.h"
#include "core/trace.h"
#include "datagen/ecommerce.h"
#include "db2graph/graph_builder.h"
#include "pq/label_builder.h"
#include "pq/parser.h"
#include "train/metrics.h"

namespace perfbench {

namespace {

/// Event-time room left for appends past the generated history: the
/// serving cutoff sits this far beyond the last generated event, so every
/// appended row lands before it and ApplyDelta keeps the cutoff fixed.
constexpr Timestamp kAppendSpanSeconds = 1'000'000;

/// Seed of the trainer and of the engine's sampling salt. The workload
/// seed varies the data; the model recipe stays fixed.
constexpr uint64_t kTrainSeed = 3;

/// Typical generated orders per user (median over generator seeds at the
/// default horizon), the band DatagenSeed accepts around it, and how many
/// generator seeds it tries before settling for the closest.
constexpr double kOrdersPerUser = 8.6;
constexpr double kOrdersPerUserTolerance = 0.04;
constexpr uint64_t kDatagenSeedAttempts = 32;

}  // namespace

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

uint64_t DatagenSeed(const Sizes& sizes, uint64_t seed) {
  ECommerceConfig cfg;
  cfg.num_users = sizes.users;
  cfg.num_products = sizes.products;
  uint64_t best = seed;
  double best_gap = 1e300;
  for (uint64_t attempt = 0; attempt < kDatagenSeedAttempts; ++attempt) {
    cfg.seed = Rng(seed).Fork(attempt).NextU64();
    const Database db = MakeECommerceDb(cfg);
    const double per_user = static_cast<double>(db.table("orders").num_rows()) /
                            static_cast<double>(sizes.users);
    const double gap = std::abs(per_user / kOrdersPerUser - 1.0);
    if (gap < best_gap) {
      best = cfg.seed;
      best_gap = gap;
    }
    if (gap <= kOrdersPerUserTolerance) break;
  }
  return best;
}

Result<World> MakeWorld(const Sizes& sizes, uint64_t datagen_seed) {
  World w;
  Timer timer;
  ECommerceConfig cfg;
  cfg.num_users = sizes.users;
  cfg.num_products = sizes.products;
  cfg.seed = datagen_seed;
  w.db = std::make_unique<Database>(MakeECommerceDb(cfg));
  w.datagen_ms = timer.Millis();

  timer = Timer();
  RELGRAPH_ASSIGN_OR_RETURN(ParsedQuery parsed, ParseQuery(kChurnQuery));
  RELGRAPH_ASSIGN_OR_RETURN(ResolvedQuery rq, AnalyzeQuery(parsed, *w.db));
  RELGRAPH_ASSIGN_OR_RETURN(std::vector<Timestamp> cutoffs,
                            MakeCutoffs(rq, *w.db));
  w.compile_ms = timer.Millis();
  timer = Timer();
  RELGRAPH_ASSIGN_OR_RETURN(w.table, BuildTrainingTable(rq, *w.db, cutoffs));
  w.label_ms = timer.Millis();
  timer = Timer();
  RELGRAPH_ASSIGN_OR_RETURN(w.split, MakeSplit(rq, w.table, cutoffs));
  w.compile_ms += timer.Millis();

  timer = Timer();
  RELGRAPH_ASSIGN_OR_RETURN(w.stream, StreamingDbGraph::Create(w.db.get()));
  w.build_ms = timer.Millis();
  RELGRAPH_ASSIGN_OR_RETURN(w.users, w.stream->graph()->FindNodeType("users"));
  w.append_start = w.db->TimeRange().second + 1;
  w.now_cutoff = w.append_start + kAppendSpanSeconds;
  w.popularity.resize(static_cast<size_t>(w.db->table("users").num_rows()));
  std::iota(w.popularity.begin(), w.popularity.end(), int64_t{0});
  Rng(datagen_seed ^ 0x9097ULL).Shuffle(&w.popularity);
  return w;
}

std::vector<int64_t> Strided(const std::vector<int64_t>& v, int64_t limit) {
  const int64_t n = static_cast<int64_t>(v.size());
  if (n <= limit) return v;
  std::vector<int64_t> out;
  out.reserve(static_cast<size_t>(limit));
  for (int64_t i = 0; i < limit; ++i) {
    out.push_back(v[static_cast<size_t>(i * n / limit)]);
  }
  return out;
}

Result<Checkpoint> TrainCheckpoint(const World& world,
                                   const std::vector<int64_t>& train,
                                   const std::vector<int64_t>& val,
                                   const std::vector<int64_t>& test,
                                   int64_t epochs, const std::string& path) {
  const std::shared_ptr<const HeteroGraph> graph = world.stream->graph();
  TrainerConfig tc;
  tc.epochs = epochs;
  tc.patience = 0;
  tc.seed = kTrainSeed;
  GnnNodePredictor predictor(graph.get(), world.users,
                             TaskKind::kBinaryClassification, 2,
                             ModelConfig(), SamplerConfig(), tc);
  Split split;
  split.train = train;
  split.val = val;
  Checkpoint ckpt;
  ckpt.epochs = epochs;
  ckpt.train_examples = static_cast<int64_t>(train.size());
  Timer timer;
  RELGRAPH_RETURN_IF_ERROR(predictor.Fit(world.table, split));
  ckpt.fit_s = timer.Seconds();
  ckpt.prefetch_stalls = predictor.prefetch_stalls();
  RELGRAPH_RETURN_IF_ERROR(predictor.SaveWeights(path));
  if (!test.empty()) {
    timer = Timer();
    std::vector<double> truth;
    truth.reserve(test.size());
    for (int64_t i : test) {
      truth.push_back(world.table.labels[static_cast<size_t>(i)]);
    }
    ckpt.test_auc = RocAuc(predictor.PredictScores(world.table, test), truth);
    ckpt.auc_s = timer.Seconds();
  }
  return ckpt;
}

Result<std::unique_ptr<InferenceEngine>> MakeEngine(
    const World& world, const std::string& checkpoint,
    const ServeOptions& options, std::shared_ptr<const HeteroGraph> epoch) {
  auto engine = std::make_unique<InferenceEngine>(
      epoch ? std::move(epoch) : world.stream->graph(), world.users,
      TaskKind::kBinaryClassification, 2, ModelConfig(), SamplerConfig(),
      world.now_cutoff, options);
  RELGRAPH_RETURN_IF_ERROR(engine->LoadCheckpoint(checkpoint));
  return engine;
}

ServeOptions CachesOff() {
  ServeOptions options;
  options.enable_subgraph_cache = false;
  options.enable_embedding_cache = false;
  return options;
}

IdStream::IdStream(Kind kind, const std::vector<int64_t>& ranking,
                   uint64_t seed)
    : kind_(kind), ranking_(ranking), rng_(seed) {}

int64_t IdStream::Next() {
  const int64_t n = static_cast<int64_t>(ranking_.size());
  switch (kind_) {
    case Kind::kUniform:
      return rng_.UniformInt(0, n - 1);
    case Kind::kZipf:
      return ranking_[static_cast<size_t>(
          rng_.PowerLawIndex(static_cast<int>(n), kZipfAlpha))];
    case Kind::kSweep:
      break;
  }
  const int64_t id = next_;
  next_ = (next_ + 1) % n;
  return id;
}

std::vector<int64_t> IdStream::Request(int64_t size) {
  std::vector<int64_t> ids(static_cast<size_t>(size));
  for (int64_t& id : ids) id = Next();
  return ids;
}

std::vector<int64_t> DistinctIds(IdStream::Kind kind,
                                 const std::vector<int64_t>& ranking,
                                 uint64_t seed, int64_t count) {
  IdStream stream(kind, ranking, seed);
  std::unordered_set<int64_t> seen;
  std::vector<int64_t> ids;
  count = std::min(count, static_cast<int64_t>(ranking.size()));
  // Zipf draws repeat the hot ids; cap the attempts so a small world still
  // terminates, then fill from the sweep.
  for (int64_t tries = 0;
       static_cast<int64_t>(ids.size()) < count && tries < 64 * count;
       ++tries) {
    const int64_t id = stream.Next();
    if (seen.insert(id).second) ids.push_back(id);
  }
  for (int64_t id = 0; static_cast<int64_t>(ids.size()) < count; ++id) {
    if (seen.insert(id).second) ids.push_back(id);
  }
  return ids;
}

OrderAppender::OrderAppender(const World& world, uint64_t seed)
    : users_(IdStream::Kind::kZipf, world.popularity, seed),
      rng_(seed ^ 0x5DEECE66DULL),
      num_products_(world.db->table("products").num_rows()),
      next_pk_(world.db->table("orders").num_rows() + 1'000'000),
      next_time_(world.append_start) {}

AppendBatch OrderAppender::Next() {
  AppendBatch batch;
  for (int64_t i = 0; i < kAppendRows; ++i) {
    // Generator primary keys are 1-based row numbers.
    const int64_t user_pk = users_.Next() + 1;
    const int64_t product_pk = rng_.UniformInt(1, num_products_);
    const int64_t quantity = rng_.UniformInt(1, 3);
    const double unit_price = rng_.Uniform(5.0, 50.0);
    batch.Add("orders", {Value(next_pk_++), Value(user_pk), Value(product_pk),
                         Value::Time(next_time_++), Value(quantity),
                         Value(unit_price),
                         Value(unit_price * static_cast<double>(quantity))});
  }
  return batch;
}

AppendTiming ApplyAndPublish(StreamingDbGraph* stream,
                             InferenceEngine* engine, Timestamp now_cutoff,
                             const AppendBatch& batch) {
  AppendTiming t;
  Timer timer;
  Result<StreamingApplyResult> applied = [&] {
    TraceSpan span("bench/db2graph.apply");
    return stream->Apply(batch);
  }();
  t.apply_ms = timer.Millis();
  if (!applied.ok() || !applied.value().outcome.clean()) {
    std::fprintf(stderr, "append failed: %s\n",
                 applied.ok() ? "rows quarantined"
                              : applied.status().ToString().c_str());
    return t;
  }
  timer = Timer();
  Status published = [&] {
    TraceSpan span("bench/serve.apply_delta");
    return engine->ApplyDelta(applied.value().graph, now_cutoff,
                              applied.value().delta);
  }();
  t.delta_ms = timer.Millis();
  if (!published.ok()) {
    std::fprintf(stderr, "ApplyDelta failed: %s\n",
                 published.ToString().c_str());
    return t;
  }
  t.ok = true;
  return t;
}

namespace {

std::vector<std::pair<int64_t, Timestamp>> Neighbors(const HeteroGraph& g,
                                                     EdgeTypeId e,
                                                     int64_t node) {
  std::vector<std::pair<int64_t, Timestamp>> out;
  for (int32_t s = 0; s < g.num_segments(e); ++s) {
    const int64_t* dst = nullptr;
    const Timestamp* times = nullptr;
    int64_t count = 0;
    g.SegmentNeighbors(e, s, node, &dst, &times, &count);
    for (int64_t i = 0; i < count; ++i) out.emplace_back(dst[i], times[i]);
  }
  return out;
}

}  // namespace

bool GraphsIdentical(const HeteroGraph& got, const HeteroGraph& want) {
  if (got.num_node_types() != want.num_node_types() ||
      got.num_edge_types() != want.num_edge_types()) {
    std::fprintf(stderr, "graph check: type counts differ\n");
    return false;
  }
  for (NodeTypeId t = 0; t < got.num_node_types(); ++t) {
    const Tensor& gf = got.node_features(t);
    const Tensor& wf = want.node_features(t);
    if (got.num_nodes(t) != want.num_nodes(t) || gf.rows() != wf.rows() ||
        gf.cols() != wf.cols() ||
        std::memcmp(gf.data(), wf.data(),
                    sizeof(float) * static_cast<size_t>(gf.rows() * gf.cols())) !=
            0) {
      std::fprintf(stderr, "graph check: nodes of %s differ\n",
                   got.node_type_name(t).c_str());
      return false;
    }
    for (int64_t n = 0; n < got.num_nodes(t); ++n) {
      if (got.node_time(t, n) != want.node_time(t, n)) {
        std::fprintf(stderr, "graph check: node times of %s differ\n",
                     got.node_type_name(t).c_str());
        return false;
      }
    }
  }
  for (EdgeTypeId e = 0; e < got.num_edge_types(); ++e) {
    if (got.num_edges(e) != want.num_edges(e)) {
      std::fprintf(stderr, "graph check: edge counts of %s differ\n",
                   got.edge_type_name(e).c_str());
      return false;
    }
    const int64_t num_src = got.num_nodes(got.edge_src_type(e));
    for (int64_t node = 0; node < num_src; ++node) {
      if (Neighbors(got, e, node) != Neighbors(want, e, node)) {
        std::fprintf(stderr, "graph check: neighbors of %s node %lld differ\n",
                     got.edge_type_name(e).c_str(),
                     static_cast<long long>(node));
        return false;
      }
    }
  }
  return true;
}

bool ScoresIdentical(const std::vector<double>& a,
                     const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), sizeof(double) * a.size()) == 0;
}

bool CheckFinalEpoch(const World& world, InferenceEngine* engine,
                     const std::string& checkpoint,
                     const std::vector<int64_t>& probe) {
  auto live = engine->Score(probe);
  auto cold_engine = MakeEngine(world, checkpoint, CachesOff());
  if (!live.ok() || !cold_engine.ok()) {
    std::fprintf(stderr, "final-epoch check: scoring failed\n");
    return false;
  }
  auto cold = cold_engine.value()->Score(probe);
  if (!cold.ok() || !ScoresIdentical(live.value(), cold.value())) {
    std::fprintf(stderr,
                 "final-epoch check: streamed scores differ from a cold "
                 "engine on the last epoch\n");
    return false;
  }
  auto rebuilt = BuildDbGraph(*world.db, world.stream->RebuildOptions());
  if (!rebuilt.ok()) {
    std::fprintf(stderr, "final-epoch check: rebuild failed: %s\n",
                 rebuilt.status().ToString().c_str());
    return false;
  }
  return GraphsIdentical(*world.stream->graph(), rebuilt.value().graph);
}

int64_t MaxSegments(const HeteroGraph& graph) {
  int64_t most = 0;
  for (EdgeTypeId e = 0; e < graph.num_edge_types(); ++e) {
    most = std::max<int64_t>(most, graph.num_segments(e));
  }
  return most;
}

}  // namespace perfbench
