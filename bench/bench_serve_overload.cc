// Serving overload benchmark: what happens past capacity.
//
// Trains the same tiny churn model as bench_serve_throughput, then floods
// the InferenceEngine from several threads at once — far more concurrent
// requests than the engine is provisioned for — in three configurations:
//
//   ungated   admission control off (the pre-resilience engine): every
//             request executes, so tail latency stacks up with the
//             concurrency level
//   gated     bounded admission gate (max_inflight=1, max_queue=1):
//             excess load is shed with Status::Overloaded and the p99 of
//             the requests actually admitted stays near the service time
//   chaos     the gated engine under seeded background faults
//             (RELGRAPH_FAULTS-style probabilistic sampler failures) in
//             kStaleSnapshot mode: shed requests plus degraded answers
//
// Per configuration it reports admitted / shed / degraded counts and the
// p50/p99 latency of admitted requests, and appends the records to the
// BENCH_serve.json written by bench_serve_throughput (run that first).
// The headline claim for perf tracking: gated p99 <= ungated p99 under
// the identical flood.
//
// Usage: bench_serve_overload [output.json]   (default BENCH_serve.json)

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/fault_injection.h"
#include "core/rng.h"
#include "core/timer.h"
#include "datagen/ecommerce.h"
#include "db2graph/graph_builder.h"
#include "pq/label_builder.h"
#include "pq/parser.h"
#include "serve/inference_engine.h"
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
/// every configuration replays the identical traffic.
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
  int64_t admitted = 0;  ///< OK responses (clean or degraded)
  int64_t shed = 0;      ///< Status::Overloaded
  int64_t other = 0;     ///< anything else (must stay 0)
  int64_t degraded = 0;  ///< OK responses flagged degraded
  double p50_ms = 0;     ///< latency percentiles over admitted requests
  double p99_ms = 0;
  double mean_ms = 0;    ///< mean latency over admitted requests
  double wall_s = 0;     ///< whole-flood wall time
};

double Percentile(std::vector<double>* v, double p) {
  if (v->empty()) return 0.0;
  std::sort(v->begin(), v->end());
  const double pos = p * static_cast<double>(v->size() - 1);
  return (*v)[static_cast<size_t>(pos + 0.5)];
}

/// Replays all per-thread streams concurrently against one engine.
FloodResult Flood(InferenceEngine* engine,
                  const std::vector<std::vector<std::vector<int64_t>>>&
                      streams) {
  std::vector<std::vector<double>> lat(kThreads);
  std::vector<FloodResult> partial(kThreads);
  std::atomic<int> failures{0};
  Timer wall;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (const auto& ids : streams[t]) {
        ScoreRequest req;
        req.entity_ids = ids;
        Timer timer;
        auto resp = engine->ScoreWithOptions(req);
        const double ms = timer.Millis();
        if (resp.ok()) {
          ++partial[t].admitted;
          if (resp.value().degraded) ++partial[t].degraded;
          lat[t].push_back(ms);
        } else if (resp.status().code() == StatusCode::kOverloaded) {
          ++partial[t].shed;
        } else {
          ++partial[t].other;
          failures.fetch_add(1);
          std::fprintf(stderr, "unexpected outcome: %s\n",
                       resp.status().ToString().c_str());
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  FloodResult total;
  total.wall_s = wall.Seconds();
  std::vector<double> all;
  for (int t = 0; t < kThreads; ++t) {
    total.admitted += partial[t].admitted;
    total.shed += partial[t].shed;
    total.other += partial[t].other;
    total.degraded += partial[t].degraded;
    all.insert(all.end(), lat[t].begin(), lat[t].end());
  }
  total.p50_ms = Percentile(&all, 0.50);
  total.p99_ms = Percentile(&all, 0.99);
  if (!all.empty()) {
    double sum = 0.0;
    for (double v : all) sum += v;
    total.mean_ms = sum / static_cast<double>(all.size());
  }
  if (failures.load() != 0) std::exit(1);
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
  const std::string ckpt = "/tmp/bench_serve_overload.ckpt";
  if (!trainer.SaveWeights(ckpt).ok()) return 1;

  const Timestamp now = db.TimeRange().second + 1;
  auto make_engine = [&](const ServeOptions& serve) {
    auto engine = std::make_unique<InferenceEngine>(
        SharedGraph(dbg), users, TaskKind::kBinaryClassification, 2,
        ModelConfig(), SamplerConfig(), now, serve);
    if (!engine->LoadCheckpoint(ckpt).ok()) std::exit(1);
    return engine;
  };

  const auto streams = MakeStreams(cfg.num_users);
  const int64_t total_requests = kThreads * kRequestsPerThread;
  std::printf("flood: %d threads x %d requests, batch %lld\n", kThreads,
              kRequestsPerThread, static_cast<long long>(kRequestBatch));

  // The embedding cache stays off in every overload configuration: a warm
  // cache turns requests into sub-microsecond lookups and the flood never
  // reaches capacity. With real per-request forwards the overload is real.
  ServeOptions ungated_opts;  // no gate: every request executes
  ungated_opts.enable_embedding_cache = false;
  ServeOptions gated_opts = ungated_opts;
  gated_opts.max_inflight = 1;
  gated_opts.max_queue = 1;
  ServeOptions chaos_opts = gated_opts;
  chaos_opts.degrade_mode = DegradeMode::kStaleSnapshot;

  std::vector<BenchRecord> records;
  auto measure = [&](const char* name, InferenceEngine* engine) {
    const FloodResult r = Flood(engine, streams);
    BenchRecord rec;
    rec.name = name;
    rec.threads = kThreads;
    // Mean admitted-request latency; the true percentiles ride in extra
    // (wall_ms used to alias p50 exactly, which made the JSON look like a
    // copy-paste bug and lost the distribution's mean).
    rec.wall_ms = r.mean_ms;
    rec.rate = static_cast<double>(r.admitted * kRequestBatch) / r.wall_s;
    rec.extra.emplace_back("p50_ms", r.p50_ms);
    rec.extra.emplace_back("p99_ms", r.p99_ms);
    rec.extra.emplace_back("admitted", static_cast<double>(r.admitted));
    rec.extra.emplace_back("shed", static_cast<double>(r.shed));
    rec.extra.emplace_back("degraded", static_cast<double>(r.degraded));
    records.push_back(rec);
    std::printf(
        "%-16s admitted %3lld  shed %3lld  degraded %3lld  "
        "p50 %7.2f ms  p99 %7.2f ms\n",
        name, static_cast<long long>(r.admitted),
        static_cast<long long>(r.shed), static_cast<long long>(r.degraded),
        r.p50_ms, r.p99_ms);
    return r;
  };

  auto ungated_engine = make_engine(ungated_opts);
  const FloodResult ungated = measure("overload_ungated",
                                      ungated_engine.get());
  if (ungated.admitted != total_requests || ungated.shed != 0) {
    std::fprintf(stderr, "ungated engine shed requests?!\n");
    return 1;
  }

  auto gated_engine = make_engine(gated_opts);
  const FloodResult gated = measure("overload_gated", gated_engine.get());
  if (gated.admitted + gated.shed != total_requests) {
    std::fprintf(stderr, "gated accounting does not add up\n");
    return 1;
  }

  // Background sampler failures at 5%, seeded: the gate still sheds, and
  // the answers that get through may carry NaN rows flagged degraded.
  FaultInjector::Global().Reset();
  FaultInjector::Global().ArmProbability(FaultSite::kServeSample, 0.05, 9);
  auto chaos_engine = make_engine(chaos_opts);
  const FloodResult chaos = measure("overload_chaos", chaos_engine.get());
  FaultInjector::Global().Reset();
  if (chaos.admitted + chaos.shed != total_requests) {
    std::fprintf(stderr, "chaos accounting does not add up\n");
    return 1;
  }

  std::printf("\ngated p99 %.2f ms vs ungated p99 %.2f ms (%.2fx)\n",
              gated.p99_ms, ungated.p99_ms,
              ungated.p99_ms / gated.p99_ms);
  if (gated.p99_ms > ungated.p99_ms) {
    std::fprintf(stderr,
                 "WARNING: admission control did not bound tail latency\n");
  }
  if (gated.shed == 0) {
    std::fprintf(stderr,
                 "WARNING: flood never exceeded the gate's capacity\n");
  }
  return AppendBenchJson(out_path, "serve_overload", records) ? 0 : 1;
}
