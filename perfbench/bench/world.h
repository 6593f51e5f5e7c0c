#ifndef PERFBENCH_BENCH_WORLD_H_
#define PERFBENCH_BENCH_WORLD_H_

// The pieces every workload shares: the seeded e-commerce world, its
// serving checkpoint and engine, the generated request and append streams,
// and the output checks. Everything random here is derived from the
// workload seed, so one seed always gives the same inputs.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/rng.h"
#include "db2graph/streaming.h"
#include "gnn/hetero_sage.h"
#include "pq/engine.h"
#include "sampler/neighbor_sampler.h"
#include "serve/coalescing_scheduler.h"
#include "serve/inference_engine.h"
#include "train/trainer.h"

namespace perfbench {

using namespace relgraph;

/// The churn query every workload answers.
inline constexpr const char* kChurnQuery =
    "PREDICT COUNT(orders) = 0 OVER NEXT 28 DAYS FOR EACH users";

/// Entity ids per Score request.
inline constexpr int64_t kRequestIds = 16;

/// Rows per streamed `orders` append batch.
inline constexpr int64_t kAppendRows = 8;

/// Zipf exponent of hot reads and of the users that place appended orders.
inline constexpr double kZipfAlpha = 1.1;

/// Model of every workload: hidden 32, 2 layers, fanouts {8, 8},
/// most-recent sampling.
GnnConfig ModelConfig();
SamplerOptions SamplerConfig();

/// Sizes of one workload's world and phases. Tests shrink them.
struct Sizes {
  int64_t users = 20000;
  int64_t products = 2000;
  int setups = 7;               ///< set-ups per run; setup_s is their median
  int64_t fit_train_rows = 4096;  ///< checkpoint training examples (serve)
  int64_t fit_eval_rows = 4096;   ///< val/test rows scored for AUC (serve)
  int64_t prime_ids = 8192;     ///< ids warmed during set-up
  int64_t probe_ids = 256;      ///< ids compared by the final-epoch check
  int64_t replay_ids = 512;     ///< ids of the serving stage replay
  int64_t train_steps = 20;     ///< steps of the training-step replay
};

/// Seeded world of one set-up: database, streamed graph, labelled churn
/// task, and the timings of each set-up stage.
struct World {
  std::unique_ptr<Database> db;
  std::unique_ptr<StreamingDbGraph> stream;
  NodeTypeId users = 0;
  TrainingTable table;
  Split split;
  Timestamp append_start = 0;  ///< event time of the first appended row
  Timestamp now_cutoff = 0;    ///< serving cutoff, past every append
  /// Users in popularity order: Zipf rank r draws `popularity[r]`. One
  /// seeded ranking serves every Zipf stream of a run, so readers, cache
  /// priming, the writer and the probes share one hot set.
  std::vector<int64_t> popularity;

  double datagen_ms = 0.0;
  double compile_ms = 0.0;  ///< parse + analyze + cutoffs + split
  double label_ms = 0.0;    ///< BuildTrainingTable
  double build_ms = 0.0;    ///< StreamingDbGraph::Create
};

/// The generator's order volume swings up to 1.6x between seeds (a few
/// power-law categories set every user's order rate), which would make
/// each seed a different-sized workload. This picks, deterministically
/// from `seed`, the first generator seed whose orders per user lie within
/// 4% of the typical rate, so seeds vary the draws but not the size class.
uint64_t DatagenSeed(const Sizes& sizes, uint64_t seed);

/// Generates the world for generator seed `datagen_seed` (see DatagenSeed)
/// and builds its graph and labels.
Result<World> MakeWorld(const Sizes& sizes, uint64_t datagen_seed);

/// A trained serving checkpoint and what training it cost.
struct Checkpoint {
  double fit_s = 0.0;
  double auc_s = 0.0;  ///< time spent scoring `test` (not training)
  int64_t epochs = 0;
  int64_t prefetch_stalls = 0;
  int64_t train_examples = 0;
  double test_auc = 0.0;
};

/// Fits the churn model with a direct GnnNodePredictor::Fit on `train`
/// (validated on `val`), saves the weights to `path`, and scores `test`
/// for its AUC when `test` is non-empty.
Result<Checkpoint> TrainCheckpoint(const World& world,
                                   const std::vector<int64_t>& train,
                                   const std::vector<int64_t>& val,
                                   const std::vector<int64_t>& test,
                                   int64_t epochs, const std::string& path);

/// At most `limit` entries of `v`, evenly spaced, in order.
std::vector<int64_t> Strided(const std::vector<int64_t>& v, int64_t limit);

/// An engine on `epoch` (default: the world's current epoch) with
/// `checkpoint` loaded.
Result<std::unique_ptr<InferenceEngine>> MakeEngine(
    const World& world, const std::string& checkpoint,
    const ServeOptions& options = {},
    std::shared_ptr<const HeteroGraph> epoch = nullptr);

/// Engine options with both caches off: the cold reference path.
ServeOptions CachesOff();

/// Seeded draws of the ids in `ranking` (a permutation of [0, n) that
/// outlives the stream): uniform, Zipf over the ranking (rank 0 hottest,
/// so the hot set moves with the ranking's seed, not the stream's), or a
/// sweep over every id in order.
class IdStream {
 public:
  enum class Kind { kUniform, kZipf, kSweep };
  IdStream(Kind kind, const std::vector<int64_t>& ranking, uint64_t seed);
  int64_t Next();
  std::vector<int64_t> Request(int64_t size = kRequestIds);

 private:
  Kind kind_;
  const std::vector<int64_t>& ranking_;
  Rng rng_;
  int64_t next_ = 0;
};

/// Distinct ids drawn from `kind` over `ranking`, in draw order.
std::vector<int64_t> DistinctIds(IdStream::Kind kind,
                                 const std::vector<int64_t>& ranking,
                                 uint64_t seed, int64_t count);

/// Seeded `orders` append batches for Zipf-drawn users, with fresh primary
/// keys and event times that advance one second per row from
/// `World::append_start`.
class OrderAppender {
 public:
  OrderAppender(const World& world, uint64_t seed);
  AppendBatch Next();

 private:
  IdStream users_;
  Rng rng_;
  int64_t num_products_;
  int64_t next_pk_;
  Timestamp next_time_;
};

/// Timings of one append made servable.
struct AppendTiming {
  bool ok = false;
  double apply_ms = 0.0;  ///< StreamingDbGraph::Apply
  double delta_ms = 0.0;  ///< InferenceEngine::ApplyDelta
};

/// Applies `batch` to the stream and publishes the new epoch to `engine`
/// through the precise-invalidation path.
AppendTiming ApplyAndPublish(StreamingDbGraph* stream,
                             InferenceEngine* engine, Timestamp now_cutoff,
                             const AppendBatch& batch);

/// Full-content equality of two graph epochs: node counts, features and
/// times, and every node's neighbor list with edge times. Prints the first
/// divergence to stderr.
bool GraphsIdentical(const HeteroGraph& got, const HeteroGraph& want);

/// Bitwise equality of two score vectors (NaN equals NaN).
bool ScoresIdentical(const std::vector<double>& a,
                     const std::vector<double>& b);

/// The end-of-run check shared by every workload: `engine` (warm, streamed)
/// must score `probe` bit-identically to a cold caches-off engine built on
/// the last streamed epoch, and that epoch must equal a from-scratch
/// BuildDbGraph of the database. Returns false after printing why.
bool CheckFinalEpoch(const World& world, InferenceEngine* engine,
                     const std::string& checkpoint,
                     const std::vector<int64_t>& probe);

/// Largest CSR segment count over the edge types of `graph`.
int64_t MaxSegments(const HeteroGraph& graph);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_WORLD_H_
