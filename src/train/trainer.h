#ifndef RELGRAPH_TRAIN_TRAINER_H_
#define RELGRAPH_TRAIN_TRAINER_H_

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "core/status.h"
#include "gnn/heads.h"
#include "gnn/hetero_sage.h"
#include "sampler/neighbor_sampler.h"
#include "tensor/optim.h"
#include "train/task.h"

namespace relgraph {

/// Optimization settings shared by the GNN trainers.
struct TrainerConfig {
  int64_t epochs = 10;
  int64_t batch_size = 128;
  float lr = 0.01f;
  float weight_decay = 1e-5f;
  float clip_norm = 5.0f;

  /// Early stopping: stop after this many epochs without val improvement
  /// (0 disables). The best-val parameters are always restored.
  int64_t patience = 3;

  uint64_t seed = 1;
  bool verbose = false;

  /// Crash-safe checkpointing: when non-empty, Fit atomically writes a
  /// resumable checkpoint (parameters, best-val weights, optimizer slots,
  /// RNG state, epoch counters) here every `checkpoint_every` epochs.
  std::string checkpoint_path;
  int64_t checkpoint_every = 1;

  /// Resume a killed run: when true and `checkpoint_path` exists, Fit
  /// continues from the saved epoch and reaches the same result as an
  /// uninterrupted run under the same seed (a missing file means a fresh
  /// run, not an error).
  bool resume = false;

  /// Divergence recovery: a non-finite loss or gradient norm rolls the
  /// epoch back to the last good state and multiplies the LR by
  /// `divergence_lr_decay`. After `max_divergence_retries` such episodes
  /// Fit returns a descriptive error instead of poisoning the weights.
  int64_t max_divergence_retries = 3;
  float divergence_lr_decay = 0.5f;

  /// Where Fit writes its per-run report (seed, per-epoch loss/val,
  /// counters). Empty derives `<checkpoint_path>.run_report.json` when a
  /// checkpoint path is set; with both empty no report is written. The
  /// write is best-effort: a failure logs a warning, never fails Fit.
  std::string run_report_path;
};

/// Seeds per training group for mini-batches of `batch_size`. Fit cuts
/// each mini-batch into groups of this many seeds (the last may be short)
/// that sample, forward and backward concurrently, each into its own
/// gradient sink; the sinks are summed in group order. The size depends on
/// the batch size alone, never on the thread count, so the loss curve is
/// bit-identical at any thread count.
int64_t TrainGroupSize(int64_t batch_size);

/// End-to-end trainer for node-level predictive queries: heterogeneous
/// GraphSAGE encoder + task head, mini-batched over temporally sampled
/// subgraphs, optimized with AdamW and early stopping on the validation
/// metric (ROC-AUC for binary, accuracy for multiclass, negative MAE for
/// regression).
///
/// Training parallelism: each mini-batch step runs its seed groups (see
/// TrainGroupSize) in one thread-pool region, then sums their gradients
/// and takes one clipped AdamW step on the calling thread. Validation and
/// prediction score slices of the same size across the pool.
class GnnNodePredictor {
 public:
  GnnNodePredictor(const HeteroGraph* graph, NodeTypeId entity_type,
                   TaskKind kind, int64_t num_classes,
                   const GnnConfig& gnn_config,
                   const SamplerOptions& sampler_options,
                   const TrainerConfig& trainer_config);

  /// Trains on `table` rows indexed by `split.train`, early-stopping on
  /// `split.val` (or on train when val is empty).
  Status Fit(const TrainingTable& table, const Split& split);

  /// Scores the given examples: probability for binary, predicted value
  /// for regression. For multiclass use PredictClasses.
  ///
  /// Runs the serving path: each example is sampled on its own with
  /// NeighborSampler::SampleForServing at its row cutoff, salted with
  /// `seed ^ OptionsFingerprint(sampler options)`, so a score equals what
  /// an InferenceEngine with the same seed serves for that entity at that
  /// cutoff, bit for bit, and never depends on the other examples. Slices
  /// of TrainGroupSize(batch_size) examples run across the thread pool.
  std::vector<double> PredictScores(const TrainingTable& table,
                                    const std::vector<int64_t>& indices);

  /// Argmax class predictions (multiclass tasks).
  std::vector<int64_t> PredictClasses(const TrainingTable& table,
                                      const std::vector<int64_t>& indices);

  /// Task metric on the given examples (higher is better; regression
  /// returns negative MAE).
  double Evaluate(const TrainingTable& table,
                  const std::vector<int64_t>& indices);

  /// Validation metric of the restored best epoch.
  double best_val_metric() const { return best_val_metric_; }

  /// Divergence-rollback episodes consumed by the last Fit call.
  int64_t divergence_episodes() const { return divergence_episodes_; }

  /// Mean training loss of each completed epoch of the last Fit call (in
  /// run order; rolled-back epochs are not recorded). Bit-identical across
  /// thread counts — the determinism regression tests compare it directly.
  const std::vector<double>& epoch_losses() const { return epoch_losses_; }

  /// Epoch the last Fit resumed from (-1 for a fresh run).
  int64_t resumed_from_epoch() const { return resumed_from_epoch_; }

  /// Validation metric of each completed epoch of the last Fit call
  /// (parallel to epoch_losses()).
  const std::vector<double>& epoch_val_metrics() const {
    return epoch_val_metrics_;
  }

  /// Always 0: Fit samples each seed group inside its parallel region, so
  /// there is no prefetch left to wait for. Kept for existing callers.
  int64_t prefetch_stalls() const { return 0; }

  /// Checkpoints the last Fit call wrote.
  int64_t checkpoint_writes() const { return checkpoint_writes_; }

  int64_t NumParameters() const;

  /// Switches temporal sampling on/off for subsequent predictions — lets
  /// the leakage ablation score a leak-trained model under the honest
  /// (deployable) sampler.
  void SetTemporalSampling(bool temporal) { sampler_.set_temporal(temporal); }

  /// Persists all trained weights (and label statistics) to `path`.
  /// Loading requires a predictor constructed with the identical graph
  /// layout and configuration.
  Status SaveWeights(const std::string& path) const;

  /// Restores weights saved by SaveWeights; shape mismatches error.
  Status LoadWeights(const std::string& path);

 private:
  /// Head + encoder forward over an already-sampled subgraph.
  VarPtr ForwardSampled(const Subgraph& sg, Rng* rng, bool training);
  /// The task loss of `out` against the labels of table rows `rows`
  /// (the group's mean).
  VarPtr TrainLoss(const VarPtr& out, const TrainingTable& table,
                   const std::vector<int64_t>& rows) const;
  std::vector<Tensor> SnapshotParams() const;
  void RestoreParams(const std::vector<Tensor>& snapshot);

  /// Epoch-boundary training state captured for checkpoints and for
  /// in-memory divergence rollback.
  struct TrainState {
    int64_t next_epoch = 0;
    int64_t stale = 0;
    int64_t retries = 0;
    std::vector<Tensor> best;
    AdamState opt;
    std::array<uint64_t, 4> rng{};
    double best_val = -1e30;
    float lr = 0.0f;
    std::vector<Tensor> params;  // in-memory rollback only, not persisted
  };
  Status SaveTrainCheckpoint(const std::string& path,
                             const TrainState& state) const;
  Status LoadTrainCheckpoint(const std::string& path, Adam* opt,
                             TrainState* state);

  /// Serializes the per-run report (see TrainerConfig::run_report_path).
  /// The "epochs" array is byte-stable for a fixed seed: %.17g-formatted
  /// losses/val metrics that are bit-identical across thread counts.
  std::string RunReportJson(double fit_seconds) const;

  const HeteroGraph* graph_;
  NodeTypeId entity_type_;
  TaskKind kind_;
  int64_t num_classes_;
  TrainerConfig trainer_config_;
  NeighborSampler sampler_;
  std::unique_ptr<HeteroSageModel> model_;
  std::unique_ptr<ClassificationHead> cls_head_;
  std::unique_ptr<ScalarHead> scalar_head_;
  Rng rng_;
  double best_val_metric_ = -1e30;
  int64_t divergence_episodes_ = 0;
  int64_t resumed_from_epoch_ = -1;
  std::vector<double> epoch_losses_;
  std::vector<double> epoch_val_metrics_;
  int64_t checkpoint_writes_ = 0;
  // Regression label standardization (fit on train split).
  double label_mean_ = 0.0;
  double label_std_ = 1.0;
};

}  // namespace relgraph

#endif  // RELGRAPH_TRAIN_TRAINER_H_
