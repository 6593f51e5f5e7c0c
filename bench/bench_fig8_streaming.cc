// Streaming ingestion benchmark (figure 8).
//
// Replays a stream of timestamped order appends against an incrementally
// maintained StreamingDbGraph, on an 800-user and a 20,000-user world, and
// measures per world:
//
//   delta_apply    per-batch latency of ApplyAppend + incremental graph
//                  fold + epoch publication (mean, p50 and p99)
//   full_rebuild   from-scratch BuildDbGraph of the same database at
//                  checkpoints along the stream — what a batch pipeline
//                  would pay for the same freshness
//
// The apply cost must follow the batch, not the database: the
// `apply_p50_scaling` record divides the 20,000-user p50 by the 800-user
// one (the gate is 2x, for a world ~25x larger).
//
// The headline numbers are the rebuild/apply cost ratio and the staleness
// story it implies: a consumer that can only afford one full rebuild per
// refresh window gets data that is stale by the whole window, while the
// incremental path delivers every batch at delta-apply latency.
//
// After the replay, the differential gate checks each final
// streamed epoch is bit-identical in content to a from-scratch rebuild
// (the contract tests/incremental_graph_test.cc enforces exhaustively).
//
// Usage: bench_fig8_streaming [output.json]   (default BENCH_streaming.json)

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/timer.h"
#include "datagen/ecommerce.h"
#include "db2graph/graph_builder.h"
#include "db2graph/streaming.h"

using namespace relgraph;
using namespace relgraph::bench;

namespace {

constexpr int64_t kNumBatches = 160;
constexpr int64_t kBatchRows = 8;
constexpr int64_t kRebuildEvery = 40;  // checkpoints for the rebuild cost

/// Timestamped order appends: fresh PKs, FKs into the existing user and
/// product ranges (1-based generator PKs), event times advancing one
/// minute per row past the base horizon.
AppendBatch MakeOrderBatch(const Database& db, int64_t batch_index,
                           int64_t num_users, int64_t num_products,
                           Timestamp start) {
  const int64_t base = db.table("orders").num_rows() + 1000000 +
                       batch_index * kBatchRows;
  AppendBatch batch;
  for (int64_t i = 0; i < kBatchRows; ++i) {
    const int64_t n = batch_index * kBatchRows + i;
    batch.Add("orders",
              {Value(base + i), Value(n % num_users + 1),
               Value((n * 7) % num_products + 1),
               Value::Time(start + n * 60), Value(int64_t{1}), Value(9.5),
               Value(9.5)});
  }
  return batch;
}

/// Full-content equality of the streamed epoch against the rebuild oracle
/// (node counts, features, times, per-node neighbor order with edge
/// times). Returns false after printing the first divergence.
bool GraphsBitIdentical(const HeteroGraph& got, const HeteroGraph& want) {
  if (got.num_node_types() != want.num_node_types() ||
      got.num_edge_types() != want.num_edge_types()) {
    std::fprintf(stderr, "type-count divergence\n");
    return false;
  }
  for (NodeTypeId t = 0; t < got.num_node_types(); ++t) {
    if (got.num_nodes(t) != want.num_nodes(t)) {
      std::fprintf(stderr, "node-count divergence on %s\n",
                   got.node_type_name(t).c_str());
      return false;
    }
    const Tensor& gf = got.node_features(t);
    const Tensor& wf = want.node_features(t);
    if (gf.rows() != wf.rows() || gf.cols() != wf.cols()) {
      std::fprintf(stderr, "feature-shape divergence on %s\n",
                   got.node_type_name(t).c_str());
      return false;
    }
    for (int64_t i = 0; i < gf.rows() * gf.cols(); ++i) {
      if (gf.data()[i] != wf.data()[i]) {
        std::fprintf(stderr, "feature divergence on %s at flat index %lld\n",
                     got.node_type_name(t).c_str(),
                     static_cast<long long>(i));
        return false;
      }
    }
    for (int64_t n = 0; n < got.num_nodes(t); ++n) {
      if (got.node_time(t, n) != want.node_time(t, n)) {
        std::fprintf(stderr, "node-time divergence on %s node %lld\n",
                     got.node_type_name(t).c_str(),
                     static_cast<long long>(n));
        return false;
      }
    }
  }
  for (EdgeTypeId e = 0; e < got.num_edge_types(); ++e) {
    if (got.num_edges(e) != want.num_edges(e)) {
      std::fprintf(stderr, "edge-count divergence on %s\n",
                   got.edge_type_name(e).c_str());
      return false;
    }
    const int64_t num_src = got.num_nodes(got.edge_src_type(e));
    for (int64_t node = 0; node < num_src; ++node) {
      auto full = [](const HeteroGraph& g, EdgeTypeId et, int64_t n) {
        std::vector<std::pair<int64_t, Timestamp>> out;
        for (int32_t s = 0; s < g.num_segments(et); ++s) {
          const int64_t* dst;
          const Timestamp* times;
          int64_t count;
          g.SegmentNeighbors(et, s, n, &dst, &times, &count);
          for (int64_t i = 0; i < count; ++i) {
            out.emplace_back(dst[i], times[i]);
          }
        }
        return out;
      };
      if (full(got, e, node) != full(want, e, node)) {
        std::fprintf(stderr, "neighbor divergence on %s node %lld\n",
                     got.edge_type_name(e).c_str(),
                     static_cast<long long>(node));
        return false;
      }
    }
  }
  return true;
}

/// Latency at quantile `q` of ascending-sorted samples.
double Quantile(const std::vector<double>& sorted, double q) {
  const double rank = q * static_cast<double>(sorted.size() - 1);
  return sorted[static_cast<size_t>(rank)];
}

/// Replays the append stream on one world size; appends its delta_apply
/// and full_rebuild records (names suffixed with `suffix`) and returns the
/// apply p50 in ms, or a negative value on failure.
double RunWorld(const std::string& suffix, int64_t num_users,
                int64_t num_products, std::vector<BenchRecord>* records) {
  ECommerceConfig cfg;
  cfg.num_users = num_users;
  cfg.num_products = num_products;
  cfg.num_categories = 8;
  cfg.horizon_days = 180;
  cfg.seed = 101;
  Database db = MakeECommerceDb(cfg);
  const Timestamp start = db.TimeRange().second + 1;

  auto stream = StreamingDbGraph::Create(&db).value();
  std::printf("[%lld users] base graph built (%lld orders)\n",
              static_cast<long long>(num_users),
              static_cast<long long>(db.table("orders").num_rows()));

  // ---- timed replay -----------------------------------------------------
  std::vector<double> apply_ms;
  std::vector<double> rebuild_ms;
  apply_ms.reserve(kNumBatches);
  int64_t compactions = 0;
  int64_t recoveries = 0;
  for (int64_t b = 0; b < kNumBatches; ++b) {
    AppendBatch batch =
        MakeOrderBatch(db, b, cfg.num_users, cfg.num_products, start);
    Timer timer;
    auto result = stream->Apply(batch);
    const double ms = timer.Seconds() * 1000.0;
    if (!result.ok() || !result.value().outcome.clean()) {
      std::fprintf(stderr, "apply failed at batch %lld\n",
                   static_cast<long long>(b));
      return -1.0;
    }
    apply_ms.push_back(ms);
    compactions += result.value().compacted_edge_types;
    recoveries += result.value().recovered ? 1 : 0;

    if ((b + 1) % kRebuildEvery == 0) {
      Timer rebuild_timer;
      auto rebuilt = BuildDbGraph(db, stream->RebuildOptions());
      if (!rebuilt.ok()) return -1.0;
      rebuild_ms.push_back(rebuild_timer.Seconds() * 1000.0);
    }
  }

  // ---- differential gate ------------------------------------------------
  auto oracle = BuildDbGraph(db, stream->RebuildOptions()).value();
  if (!GraphsBitIdentical(*stream->graph(), oracle.graph)) {
    std::fprintf(stderr, "DIFFERENTIAL GATE FAILED: streamed epoch "
                         "diverged from the from-scratch rebuild\n");
    return -1.0;
  }
  std::printf("[%lld users] differential gate passed (%lld batches, %lld "
              "rows)\n",
              static_cast<long long>(num_users),
              static_cast<long long>(kNumBatches),
              static_cast<long long>(kNumBatches * kBatchRows));

  // ---- report -----------------------------------------------------------
  std::sort(apply_ms.begin(), apply_ms.end());
  double apply_total = 0;
  for (double ms : apply_ms) apply_total += ms;
  const double apply_mean = apply_total / static_cast<double>(kNumBatches);
  const double apply_p50 = Quantile(apply_ms, 0.50);
  const double apply_p99 = Quantile(apply_ms, 0.99);
  double rebuild_total = 0;
  for (double ms : rebuild_ms) rebuild_total += ms;
  const double rebuild_mean =
      rebuild_total / static_cast<double>(rebuild_ms.size());

  // Staleness: a batch pipeline refreshing once per rebuild window serves
  // data that is on average half a window old; the incremental path is
  // never more than one delta-apply behind.
  const double ratio = rebuild_mean / apply_mean;
  std::printf("[%lld users] delta apply  mean %.3f ms  p50 %.3f ms  p99 "
              "%.3f ms  (%lld compactions, %lld recoveries)\n",
              static_cast<long long>(num_users), apply_mean, apply_p50,
              apply_p99, static_cast<long long>(compactions),
              static_cast<long long>(recoveries));
  std::printf("[%lld users] full rebuild mean %.3f ms over %zu "
              "checkpoints\n",
              static_cast<long long>(num_users), rebuild_mean,
              rebuild_ms.size());
  std::printf("[%lld users] rebuild/apply cost ratio: %.1fx — the "
              "incremental path sustains %.0f appends per "
              "rebuild-equivalent\n",
              static_cast<long long>(num_users), ratio, ratio * kBatchRows);

  BenchRecord apply_rec;
  apply_rec.name = "delta_apply" + suffix;
  apply_rec.wall_ms = apply_mean;
  apply_rec.rate = static_cast<double>(kBatchRows) / (apply_mean / 1000.0);
  apply_rec.extra.emplace_back("users", static_cast<double>(num_users));
  apply_rec.extra.emplace_back("p50_ms", apply_p50);
  apply_rec.extra.emplace_back("p99_ms", apply_p99);
  apply_rec.extra.emplace_back("compactions",
                               static_cast<double>(compactions));
  apply_rec.extra.emplace_back("recoveries",
                               static_cast<double>(recoveries));
  records->push_back(apply_rec);

  BenchRecord rebuild_rec;
  rebuild_rec.name = "full_rebuild" + suffix;
  rebuild_rec.wall_ms = rebuild_mean;
  rebuild_rec.rate = static_cast<double>(kBatchRows) / (rebuild_mean / 1000.0);
  rebuild_rec.extra.emplace_back("users", static_cast<double>(num_users));
  rebuild_rec.extra.emplace_back("rebuild_over_apply", ratio);
  rebuild_rec.extra.emplace_back(
      "appends_per_rebuild_cost", ratio * static_cast<double>(kBatchRows));
  records->push_back(rebuild_rec);
  return apply_p50;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_streaming.json";
  std::vector<BenchRecord> records;
  const double small_p50 = RunWorld("", 800, 120, &records);
  if (small_p50 < 0) return 1;
  const double large_p50 = RunWorld("_20k", 20000, 2000, &records);
  if (large_p50 < 0) return 1;

  BenchRecord scaling;
  scaling.name = "apply_p50_scaling";
  scaling.wall_ms = large_p50;
  scaling.extra.emplace_back("p50_20k_over_800", large_p50 / small_p50);
  records.push_back(scaling);
  std::printf("apply p50 at 20,000 users / at 800 users: %.2fx\n",
              large_p50 / small_p50);
  return WriteBenchJson(out_path, "fig8_streaming", records) ? 0 : 1;
}
