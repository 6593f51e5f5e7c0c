#include "train/trainer.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "core/atomic_io.h"
#include "core/fault_injection.h"
#include "core/logging.h"
#include "core/metrics.h"
#include "core/parallel.h"
#include "core/string_util.h"
#include "core/timer.h"
#include "core/trace.h"
#include "tensor/serialize.h"
#include "train/metrics.h"

namespace relgraph {

namespace {

/// Mini-batches are cut into this many seed groups (at full size).
constexpr int64_t kGroupsPerBatch = 4;

/// One seed group's share of a training step.
struct GroupStep {
  double loss = 0.0;  // the group's mean loss
  GradSink grads;
  /// The group's tape, held until every group of the step is done: the
  /// step then keeps all its tapes alive at once at any overlap of the
  /// groups, so its peak buffer demand (and the buffer pool's steady
  /// state) does not depend on scheduling.
  VarPtr tape;
};

}  // namespace

int64_t TrainGroupSize(int64_t batch_size) {
  return std::max<int64_t>(1, (batch_size + kGroupsPerBatch - 1) /
                                  kGroupsPerBatch);
}

GnnNodePredictor::GnnNodePredictor(const HeteroGraph* graph,
                                   NodeTypeId entity_type, TaskKind kind,
                                   int64_t num_classes,
                                   const GnnConfig& gnn_config,
                                   const SamplerOptions& sampler_options,
                                   const TrainerConfig& trainer_config)
    : graph_(graph),
      entity_type_(entity_type),
      kind_(kind),
      num_classes_(num_classes),
      trainer_config_(trainer_config),
      sampler_(graph, sampler_options),
      rng_(trainer_config.seed) {
  RELGRAPH_CHECK(kind_ != TaskKind::kRanking)
      << "use GnnRecommender for ranking tasks";
  RELGRAPH_CHECK(static_cast<int64_t>(sampler_options.fanouts.size()) ==
                 gnn_config.num_layers)
      << "sampler depth must match GNN layers";
  model_ = std::make_unique<HeteroSageModel>(graph, gnn_config, &rng_);
  if (kind_ == TaskKind::kMulticlassClassification) {
    cls_head_ = std::make_unique<ClassificationHead>(gnn_config.hidden_dim,
                                                     num_classes_, &rng_);
  } else {
    scalar_head_ = std::make_unique<ScalarHead>(gnn_config.hidden_dim, &rng_);
  }
}

VarPtr GnnNodePredictor::ForwardSampled(const Subgraph& sg, Rng* rng,
                                        bool training) {
  VarPtr emb = model_->Forward(sg, entity_type_, rng, training);
  if (cls_head_) return cls_head_->Forward(emb);
  return scalar_head_->Forward(emb);
}

VarPtr GnnNodePredictor::TrainLoss(const VarPtr& out,
                                   const TrainingTable& table,
                                   const std::vector<int64_t>& rows) const {
  const int64_t n = static_cast<int64_t>(rows.size());
  switch (kind_) {
    case TaskKind::kBinaryClassification: {
      Tensor targets(n, 1);
      for (int64_t i = 0; i < n; ++i) {
        targets.at(i, 0) = static_cast<float>(
            table.labels[static_cast<size_t>(rows[static_cast<size_t>(i)])]);
      }
      return ag::BinaryCrossEntropyWithLogits(out, targets);
    }
    case TaskKind::kMulticlassClassification: {
      std::vector<int64_t> labels;
      labels.reserve(rows.size());
      for (int64_t r : rows) {
        labels.push_back(
            static_cast<int64_t>(table.labels[static_cast<size_t>(r)]));
      }
      return ag::SoftmaxCrossEntropy(out, labels);
    }
    case TaskKind::kRegression: {
      Tensor targets(n, 1);
      for (int64_t i = 0; i < n; ++i) {
        targets.at(i, 0) = static_cast<float>(
            (table.labels[static_cast<size_t>(rows[static_cast<size_t>(i)])] -
             label_mean_) /
            label_std_);
      }
      return ag::MseLoss(out, targets);
    }
    case TaskKind::kRanking:
      break;
  }
  RELGRAPH_CHECK(false) << "ranking tasks train in GnnRecommender";
  return nullptr;
}

std::vector<Tensor> GnnNodePredictor::SnapshotParams() const {
  const Module* head =
      cls_head_ ? static_cast<const Module*>(cls_head_.get())
                : static_cast<const Module*>(scalar_head_.get());
  return ParameterValues({model_.get(), head});
}

void GnnNodePredictor::RestoreParams(const std::vector<Tensor>& snapshot) {
  const Module* head =
      cls_head_ ? static_cast<const Module*>(cls_head_.get())
                : static_cast<const Module*>(scalar_head_.get());
  AssignParameterValues({model_.get(), head}, snapshot);
}

Status GnnNodePredictor::Fit(const TrainingTable& table, const Split& split) {
  RELGRAPH_TRACE_SPAN("train/fit");
  Timer fit_timer;
  epoch_val_metrics_.clear();
  checkpoint_writes_ = 0;
  if (split.train.empty()) {
    return Status::InvalidArgument("empty training split");
  }
  if (kind_ == TaskKind::kRegression) {
    double sum = 0, sum_sq = 0;
    for (int64_t i : split.train) {
      sum += table.labels[static_cast<size_t>(i)];
      sum_sq += table.labels[static_cast<size_t>(i)] *
                table.labels[static_cast<size_t>(i)];
    }
    const double n = static_cast<double>(split.train.size());
    label_mean_ = sum / n;
    const double var = sum_sq / n - label_mean_ * label_mean_;
    label_std_ = var > 1e-12 ? std::sqrt(var) : 1.0;
  }

  std::vector<VarPtr> params = model_->Parameters();
  {
    const Module* head =
        cls_head_ ? static_cast<const Module*>(cls_head_.get())
                  : static_cast<const Module*>(scalar_head_.get());
    for (const auto& p : head->Parameters()) params.push_back(p);
  }
  Adam opt(params, trainer_config_.lr, 0.9f, 0.999f, 1e-8f,
           trainer_config_.weight_decay);

  const std::vector<int64_t>& val_idx =
      split.val.empty() ? split.train : split.val;
  std::vector<Tensor> best = SnapshotParams();
  best_val_metric_ = -1e30;
  int64_t stale = 0;
  int64_t start_epoch = 0;
  int64_t retries = 0;
  divergence_episodes_ = 0;
  resumed_from_epoch_ = -1;

  const std::string& ckpt = trainer_config_.checkpoint_path;
  if (!ckpt.empty() && trainer_config_.resume && FileExists(ckpt)) {
    TrainState ts;
    RELGRAPH_RETURN_IF_ERROR(LoadTrainCheckpoint(ckpt, &opt, &ts));
    best = std::move(ts.best);
    best_val_metric_ = ts.best_val;
    stale = ts.stale;
    retries = ts.retries;
    start_epoch = ts.next_epoch;
    resumed_from_epoch_ = start_epoch;
    rng_.SetState(ts.rng);
    opt.set_lr(ts.lr);
    RELGRAPH_COUNTER_INC("fit_resumes_total");
    if (trainer_config_.verbose) {
      RELGRAPH_LOG(Info) << "resumed from checkpoint " << ckpt
                         << " at epoch " << start_epoch << " (best val "
                         << best_val_metric_ << ")";
    }
  }

  // Last finite epoch boundary, for divergence rollback.
  TrainState good;
  good.params = SnapshotParams();
  good.best = best;
  good.opt = opt.GetState();
  good.rng = rng_.GetState();
  good.best_val = best_val_metric_;
  good.stale = stale;
  good.lr = opt.lr();

  FaultInjector& faults = FaultInjector::Global();
  epoch_losses_.clear();
#ifndef RELGRAPH_NO_METRICS
  // Resolved once per Fit: the per-batch path below must stay at one
  // pointer check, and the observability switch must not flip mid-run.
  Histogram* batch_ms_hist =
      MetricsEnabled() ? MetricsRegistry::Global().GetHistogram(
                             "fit_batch_ms", LatencyBucketsMs())
                       : nullptr;
#endif
  const int64_t group_size = TrainGroupSize(trainer_config_.batch_size);
  for (int64_t epoch = start_epoch; epoch < trainer_config_.epochs; ++epoch) {
    RELGRAPH_TRACE_SPAN("train/epoch");
    // Shuffled mini-batches over the training split.
    auto batches = MakeBatches(static_cast<int64_t>(split.train.size()),
                               trainer_config_.batch_size, &rng_);
    // Every group of every batch samples (and drops out) from its own
    // stream, Fork(batch).Fork(group) of one epoch stream, so the groups
    // can run in any order on any thread with the same result. rng_
    // advances by exactly one draw here, keeping checkpoint/resume
    // semantics intact.
    Rng epoch_sample_rng = rng_.Split();
    double epoch_loss = 0.0;
    bool diverged = false;
    for (size_t bk = 0; bk < batches.size(); ++bk) {
      Timer batch_timer;
      const std::vector<int64_t>& batch_pos = batches[bk];
      const int64_t n = static_cast<int64_t>(batch_pos.size());
      const int64_t num_groups = (n + group_size - 1) / group_size;
      const Rng batch_rng = epoch_sample_rng.Fork(static_cast<uint64_t>(bk));
      std::vector<GroupStep> groups(static_cast<size_t>(num_groups));
      {
        RELGRAPH_TRACE_SPAN("train/groups");
        ThreadPool::Global().ParallelChunks(num_groups, [&](int64_t g) {
          const int64_t lo = g * group_size;
          const int64_t hi = std::min(n, lo + group_size);
          std::vector<int64_t> rows;
          std::vector<int64_t> seeds;
          std::vector<Timestamp> cutoffs;
          rows.reserve(static_cast<size_t>(hi - lo));
          seeds.reserve(static_cast<size_t>(hi - lo));
          cutoffs.reserve(static_cast<size_t>(hi - lo));
          for (int64_t i = lo; i < hi; ++i) {
            const int64_t row = split.train[static_cast<size_t>(
                batch_pos[static_cast<size_t>(i)])];
            rows.push_back(row);
            seeds.push_back(table.entity_rows[static_cast<size_t>(row)]);
            cutoffs.push_back(table.cutoffs[static_cast<size_t>(row)]);
          }
          Rng rng = batch_rng.Fork(static_cast<uint64_t>(g));
          const Subgraph sg =
              sampler_.Sample(entity_type_, seeds, cutoffs, &rng);
          const VarPtr loss = TrainLoss(
              ForwardSampled(sg, &rng, /*training=*/true), table, rows);
          GroupStep& step = groups[static_cast<size_t>(g)];
          step.loss = loss->value().item();
          // Weighted by its share of the batch, the group's gradient sums
          // with the others' to the batch-mean gradient.
          step.tape = ag::Scale(
              loss, static_cast<float>(hi - lo) / static_cast<float>(n));
          Backward(step.tape, &step.grads);
        });
      }
      double batch_loss = 0.0;
      for (int64_t g = 0; g < num_groups; ++g) {
        const int64_t group_rows = std::min(group_size, n - g * group_size);
        batch_loss += groups[static_cast<size_t>(g)].loss *
                      static_cast<double>(group_rows);
      }
      batch_loss /= static_cast<double>(n);
      if (faults.ShouldFire(FaultSite::kNanLoss)) {
        batch_loss = std::numeric_limits<double>::quiet_NaN();
      }
      {
        RELGRAPH_TRACE_SPAN("train/reduce");
        opt.ZeroGrad();
        for (const GroupStep& step : groups) step.grads.AddTo(params);
        // The tapes and sinks go back to the buffer pool from the pool's
        // threads, which spreads their buffers over its shards for the
        // next step's groups.
        ThreadPool::Global().ParallelChunks(num_groups, [&](int64_t g) {
          groups[static_cast<size_t>(g)] = GroupStep();
        });
      }
      if (faults.ShouldFire(FaultSite::kNanGradient)) {
        params.front()->grad().data()[0] =
            std::numeric_limits<float>::quiet_NaN();
      }
      {
        RELGRAPH_TRACE_SPAN("train/optim");
        const float grad_norm = opt.ClipGradNorm(trainer_config_.clip_norm);
        // Divergence gate: never step through a non-finite loss or
        // gradient, so the weights stay at their last finite values.
        diverged = !std::isfinite(batch_loss) || !std::isfinite(grad_norm);
        if (!diverged) opt.Step();
      }
      if (diverged) break;
      epoch_loss += batch_loss * static_cast<double>(n);
      RELGRAPH_COUNTER_INC("fit_batches_total");
#ifndef RELGRAPH_NO_METRICS
      if (batch_ms_hist != nullptr) {
        batch_ms_hist->Observe(batch_timer.Millis());
      }
#endif
    }
    if (diverged) {
      ++divergence_episodes_;
      RELGRAPH_COUNTER_INC("fit_divergence_rollbacks_total");
      if (++retries > trainer_config_.max_divergence_retries) {
        return Status::FailedPrecondition(StrFormat(
            "training diverged: non-finite loss or gradient norm persisted "
            "through %lld rollback + LR-halving attempts (epoch %lld, lr "
            "%.3g); weights left at the last finite state",
            static_cast<long long>(trainer_config_.max_divergence_retries),
            static_cast<long long>(epoch), static_cast<double>(opt.lr())));
      }
      // Roll back to the last good epoch boundary and retry at a lower LR.
      RestoreParams(good.params);
      best = good.best;
      RELGRAPH_RETURN_IF_ERROR(opt.SetState(good.opt));
      rng_.SetState(good.rng);
      best_val_metric_ = good.best_val;
      stale = good.stale;
      const float new_lr = good.lr * trainer_config_.divergence_lr_decay;
      opt.set_lr(new_lr);
      good.lr = new_lr;
      RELGRAPH_LOG(Warning)
          << "non-finite loss/gradient at epoch " << epoch
          << "; rolled back and halved lr to " << new_lr << " (attempt "
          << retries << "/" << trainer_config_.max_divergence_retries << ")";
      --epoch;
      continue;
    }
    epoch_loss /= static_cast<double>(split.train.size());
    epoch_losses_.push_back(epoch_loss);
    RELGRAPH_COUNTER_INC("fit_epochs_total");
    double val_metric = 0.0;
    {
      RELGRAPH_TRACE_SPAN("train/eval");
      val_metric = Evaluate(table, val_idx);
    }
    epoch_val_metrics_.push_back(val_metric);
    if (trainer_config_.verbose) {
      RELGRAPH_LOG(Info) << "epoch " << epoch << " loss " << epoch_loss
                         << " val " << val_metric;
    }
    bool stop = false;
    if (val_metric > best_val_metric_ + 1e-6) {
      best_val_metric_ = val_metric;
      best = SnapshotParams();
      stale = 0;
    } else if (trainer_config_.patience > 0 &&
               ++stale >= trainer_config_.patience) {
      stop = true;
    }
    good.params = SnapshotParams();
    good.best = best;
    good.opt = opt.GetState();
    good.rng = rng_.GetState();
    good.best_val = best_val_metric_;
    good.stale = stale;
    good.lr = opt.lr();
    const int64_t every = std::max<int64_t>(1, trainer_config_.checkpoint_every);
    if (!ckpt.empty() &&
        (stop || (epoch + 1) % every == 0 ||
         epoch + 1 == trainer_config_.epochs)) {
      TrainState ts = good;
      ts.next_epoch = stop ? trainer_config_.epochs : epoch + 1;
      ts.retries = retries;
      RELGRAPH_RETURN_IF_ERROR(SaveTrainCheckpoint(ckpt, ts));
      ++checkpoint_writes_;
      RELGRAPH_COUNTER_INC("fit_checkpoint_writes_total");
    }
    if (stop) break;
  }
  RestoreParams(best);
  // Per-run report, written after every checkpoint so a fault-injected
  // checkpoint failure surfaces first. Best-effort: training succeeded,
  // so a report-write failure only warns.
  std::string report_path = trainer_config_.run_report_path;
  if (report_path.empty() && !ckpt.empty()) {
    report_path = ckpt + ".run_report.json";
  }
  if (!report_path.empty()) {
    const Status report_status =
        AtomicWriteFile(report_path, RunReportJson(fit_timer.Seconds()));
    if (!report_status.ok()) {
      RELGRAPH_LOG(Warning) << "run report write failed ("
                            << report_path
                            << "): " << report_status.message();
    }
  }
  return Status::OK();
}

std::string GnnNodePredictor::RunReportJson(double fit_seconds) const {
  std::string out = "{\n";
  out += StrFormat("  \"seed\": %llu,\n",
                   static_cast<unsigned long long>(trainer_config_.seed));
  out += StrFormat("  \"task\": \"%s\",\n", TaskKindName(kind_));
  out += StrFormat("  \"epochs_configured\": %lld,\n",
                   static_cast<long long>(trainer_config_.epochs));
  out += StrFormat("  \"epochs_completed\": %zu,\n", epoch_losses_.size());
  out += StrFormat("  \"resumed_from_epoch\": %lld,\n",
                   static_cast<long long>(resumed_from_epoch_));
  out += StrFormat("  \"divergence_episodes\": %lld,\n",
                   static_cast<long long>(divergence_episodes_));
  out += StrFormat("  \"checkpoint_writes\": %lld,\n",
                   static_cast<long long>(checkpoint_writes_));
  out += StrFormat("  \"best_val_metric\": %.17g,\n", best_val_metric_);
  // The epochs array is the deterministic heart of the report: %.17g
  // round-trips doubles exactly, and the recorded losses/metrics are
  // bit-identical across thread counts. Golden tests compare it verbatim.
  const int64_t first_epoch = resumed_from_epoch_ >= 0
                                  ? resumed_from_epoch_
                                  : 0;
  out += "  \"epochs\": [";
  for (size_t i = 0; i < epoch_losses_.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    const double val = i < epoch_val_metrics_.size()
                           ? epoch_val_metrics_[i]
                           : 0.0;
    out += StrFormat(
        "    {\"epoch\": %lld, \"loss\": %.17g, \"val\": %.17g}",
        static_cast<long long>(first_epoch + static_cast<int64_t>(i)),
        epoch_losses_[i], val);
  }
  out += epoch_losses_.empty() ? "],\n" : "\n  ],\n";
  out += StrFormat("  \"fit_seconds\": %.6f\n", fit_seconds);
  out += "}\n";
  return out;
}

namespace {

constexpr double kCheckpointVersion = 1.0;

}  // namespace

Status GnnNodePredictor::SaveTrainCheckpoint(const std::string& path,
                                             const TrainState& state) const {
  const size_t num_params = state.params.size();
  std::vector<Tensor> tensors;
  tensors.reserve(4 * num_params);
  for (const Tensor& t : state.params) tensors.push_back(t);
  for (const Tensor& t : state.best) tensors.push_back(t);
  for (const Tensor& t : state.opt.m) tensors.push_back(t);
  for (const Tensor& t : state.opt.v) tensors.push_back(t);
  std::vector<double> scalars = {
      kCheckpointVersion,
      static_cast<double>(state.next_epoch),
      static_cast<double>(state.opt.t),
      static_cast<double>(state.lr),
      state.best_val,
      static_cast<double>(state.stale),
      static_cast<double>(state.retries),
      label_mean_,
      label_std_,
      std::bit_cast<double>(state.rng[0]),
      std::bit_cast<double>(state.rng[1]),
      std::bit_cast<double>(state.rng[2]),
      std::bit_cast<double>(state.rng[3]),
      static_cast<double>(num_params),
  };
  return SaveTensorBundle(path, tensors, scalars);
}

Status GnnNodePredictor::LoadTrainCheckpoint(const std::string& path,
                                             Adam* opt, TrainState* state) {
  RELGRAPH_ASSIGN_OR_RETURN(TensorBundle bundle, LoadTensorBundle(path));
  if (bundle.scalars.size() != 14 ||
      bundle.scalars[0] != kCheckpointVersion) {
    return Status::ParseError("unrecognized training-checkpoint layout: " +
                              path);
  }
  const size_t num_params = static_cast<size_t>(bundle.scalars[13]);
  const std::vector<Tensor> current = SnapshotParams();
  if (num_params != current.size() ||
      bundle.tensors.size() != 4 * num_params) {
    return Status::InvalidArgument(StrFormat(
        "checkpoint has %zu parameter tensors, model has %zu (architecture "
        "mismatch?)",
        num_params, current.size()));
  }
  for (size_t i = 0; i < num_params; ++i) {
    for (size_t block = 0; block < 4; ++block) {
      if (!bundle.tensors[block * num_params + i].SameShape(current[i])) {
        return Status::InvalidArgument(StrFormat(
            "checkpoint tensor %zu (block %zu) shape mismatch", i, block));
      }
    }
  }
  state->next_epoch = static_cast<int64_t>(bundle.scalars[1]);
  state->opt.t = static_cast<int64_t>(bundle.scalars[2]);
  state->lr = static_cast<float>(bundle.scalars[3]);
  state->best_val = bundle.scalars[4];
  state->stale = static_cast<int64_t>(bundle.scalars[5]);
  state->retries = static_cast<int64_t>(bundle.scalars[6]);
  label_mean_ = bundle.scalars[7];
  label_std_ = bundle.scalars[8];
  for (size_t i = 0; i < 4; ++i) {
    state->rng[i] = std::bit_cast<uint64_t>(bundle.scalars[9 + i]);
  }
  auto block = [&](size_t b) {
    return std::vector<Tensor>(
        bundle.tensors.begin() + static_cast<int64_t>(b * num_params),
        bundle.tensors.begin() + static_cast<int64_t>((b + 1) * num_params));
  };
  RestoreParams(block(0));
  state->best = block(1);
  state->opt.m = block(2);
  state->opt.v = block(3);
  return opt->SetState(state->opt);
}

std::vector<double> GnnNodePredictor::PredictScores(
    const TrainingTable& table, const std::vector<int64_t>& indices) {
  RELGRAPH_TRACE_SPAN("train/predict");
  const int64_t n = static_cast<int64_t>(indices.size());
  RELGRAPH_COUNTER_ADD("predict_examples_total", n);
  std::vector<double> scores(static_cast<size_t>(n));
  // The serving path: every row samples its own subgraph with
  // SampleForServing under the salt a default InferenceEngine with this
  // seed uses, the slice's subgraphs concatenate block-diagonally, and the
  // forward has no dropout. A row's score is therefore a pure function of
  // (weights, entity, cutoff): it equals what the engine serves for that
  // entity at that cutoff and never depends on the other rows. Slices of
  // TrainGroupSize seeds (never a function of the thread count) run across
  // the pool, each writing only its own rows.
  const uint64_t salt =
      trainer_config_.seed ^ OptionsFingerprint(sampler_.options());
  const int64_t slice = TrainGroupSize(trainer_config_.batch_size);
  const int64_t num_slices = (n + slice - 1) / slice;
  ThreadPool::Global().ParallelChunks(num_slices, [&](int64_t s) {
    const int64_t lo = s * slice;
    const int64_t hi = std::min(n, lo + slice);
    std::vector<Subgraph> parts;
    parts.reserve(static_cast<size_t>(hi - lo));
    for (int64_t i = lo; i < hi; ++i) {
      const size_t row = static_cast<size_t>(indices[static_cast<size_t>(i)]);
      parts.push_back(sampler_.SampleForServing(
          entity_type_, table.entity_rows[row], table.cutoffs[row], salt));
    }
    const VarPtr out = ForwardSampled(ConcatSubgraphs(graph_, parts),
                                      /*rng=*/nullptr, /*training=*/false);
    const Tensor& v = out->value();
    for (int64_t r = 0; r < hi - lo; ++r) {
      double& score = scores[static_cast<size_t>(lo + r)];
      switch (kind_) {
        case TaskKind::kBinaryClassification:
          score = 1.0 / (1.0 + std::exp(-v.at(r, 0)));
          break;
        case TaskKind::kRegression:
          score = v.at(r, 0) * label_std_ + label_mean_;
          break;
        case TaskKind::kMulticlassClassification: {
          // The max-class index as a double (see PredictClasses).
          int64_t arg = 0;
          for (int64_t c = 1; c < v.cols(); ++c) {
            if (v.at(r, c) > v.at(r, arg)) arg = c;
          }
          score = static_cast<double>(arg);
          break;
        }
        case TaskKind::kRanking:
          break;
      }
    }
  });
  return scores;
}

std::vector<int64_t> GnnNodePredictor::PredictClasses(
    const TrainingTable& table, const std::vector<int64_t>& indices) {
  std::vector<double> scores = PredictScores(table, indices);
  std::vector<int64_t> classes;
  classes.reserve(scores.size());
  for (double s : scores) {
    if (kind_ == TaskKind::kBinaryClassification) {
      classes.push_back(s >= 0.5 ? 1 : 0);
    } else {
      classes.push_back(static_cast<int64_t>(s));
    }
  }
  return classes;
}

double GnnNodePredictor::Evaluate(const TrainingTable& table,
                                  const std::vector<int64_t>& indices) {
  if (indices.empty()) return 0.0;
  std::vector<double> truth;
  truth.reserve(indices.size());
  for (int64_t i : indices) {
    truth.push_back(table.labels[static_cast<size_t>(i)]);
  }
  switch (kind_) {
    case TaskKind::kBinaryClassification:
      return RocAuc(PredictScores(table, indices), truth);
    case TaskKind::kMulticlassClassification:
      return MulticlassAccuracy(PredictClasses(table, indices), truth);
    case TaskKind::kRegression:
      return -MeanAbsoluteError(PredictScores(table, indices), truth);
    case TaskKind::kRanking:
      break;
  }
  return 0.0;
}

Status GnnNodePredictor::SaveWeights(const std::string& path) const {
  return SaveTensorBundle(path, SnapshotParams(),
                          {label_mean_, label_std_, best_val_metric_});
}

Status GnnNodePredictor::LoadWeights(const std::string& path) {
  RELGRAPH_ASSIGN_OR_RETURN(TensorBundle bundle, LoadTensorBundle(path));
  std::vector<Tensor> current = SnapshotParams();
  if (bundle.tensors.size() != current.size()) {
    return Status::InvalidArgument(StrFormat(
        "checkpoint has %zu tensors, model has %zu (architecture "
        "mismatch?)",
        bundle.tensors.size(), current.size()));
  }
  for (size_t i = 0; i < current.size(); ++i) {
    if (!bundle.tensors[i].SameShape(current[i])) {
      return Status::InvalidArgument(StrFormat(
          "checkpoint tensor %zu shape mismatch (%lld x %lld vs "
          "%lld x %lld)",
          i, static_cast<long long>(bundle.tensors[i].rows()),
          static_cast<long long>(bundle.tensors[i].cols()),
          static_cast<long long>(current[i].rows()),
          static_cast<long long>(current[i].cols())));
    }
  }
  if (bundle.scalars.size() != 3) {
    return Status::InvalidArgument("checkpoint scalar block malformed");
  }
  RestoreParams(bundle.tensors);
  label_mean_ = bundle.scalars[0];
  label_std_ = bundle.scalars[1];
  best_val_metric_ = bundle.scalars[2];
  return Status::OK();
}

int64_t GnnNodePredictor::NumParameters() const {
  int64_t n = model_->NumParameters();
  n += cls_head_ ? cls_head_->NumParameters()
                 : scalar_head_->NumParameters();
  return n;
}

}  // namespace relgraph
