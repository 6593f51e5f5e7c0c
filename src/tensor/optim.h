#ifndef RELGRAPH_TENSOR_OPTIM_H_
#define RELGRAPH_TENSOR_OPTIM_H_

#include <vector>

#include "core/status.h"
#include "tensor/autograd.h"

namespace relgraph {

/// Base interface for gradient-descent optimizers over a fixed parameter
/// list.
///
/// The parameters' elements form one flat index space (parameter order,
/// then row-major), which the element-wise loops split into chunks of a
/// fixed grain on the thread pool. Chunk boundaries depend only on the
/// parameter shapes, so results are bit-identical at any thread count.
class Optimizer {
 public:
  explicit Optimizer(std::vector<VarPtr> params);
  virtual ~Optimizer() = default;

  /// Applies one update from the currently accumulated gradients.
  virtual void Step() = 0;

  /// Clears gradients of all managed parameters.
  void ZeroGrad();

  /// Clips gradients to a maximum global L2 norm; returns the pre-clip
  /// norm. The squared norm sums per-chunk partials in chunk order.
  float ClipGradNorm(float max_norm);

  const std::vector<VarPtr>& params() const { return params_; }

 protected:
  /// Runs fn(param_index, elem_begin, elem_end) over every parameter span
  /// of the flat range [lo, hi), in parameter order.
  template <typename Fn>
  void ForEachSpan(int64_t lo, int64_t hi, const Fn& fn) const;

  /// Elements per chunk of the flat index space.
  static constexpr int64_t kFlatGrain = 8192;

  std::vector<VarPtr> params_;
  /// offsets_[i] is the flat index of parameter i's first element;
  /// offsets_.back() is the total element count.
  std::vector<int64_t> offsets_;
};

/// Plain SGD with optional momentum and decoupled weight decay.
class Sgd : public Optimizer {
 public:
  Sgd(std::vector<VarPtr> params, float lr, float momentum = 0.0f,
      float weight_decay = 0.0f);

  void Step() override;

  float lr() const { return lr_; }
  void set_lr(float lr) { lr_ = lr; }

 private:
  float lr_;
  float momentum_;
  float weight_decay_;
  std::vector<Tensor> velocity_;
};

/// Adam moment slots + step counter, exportable for checkpointing.
struct AdamState {
  int64_t t = 0;
  std::vector<Tensor> m;
  std::vector<Tensor> v;
};

/// Adam (Kingma & Ba) with optional decoupled weight decay (AdamW).
class Adam : public Optimizer {
 public:
  Adam(std::vector<VarPtr> params, float lr, float beta1 = 0.9f,
       float beta2 = 0.999f, float eps = 1e-8f, float weight_decay = 0.0f);

  void Step() override;

  float lr() const { return lr_; }
  void set_lr(float lr) { lr_ = lr; }

  /// Copies out the moment slots and step counter (for checkpoints and
  /// divergence rollback).
  AdamState GetState() const;

  /// Restores state captured by GetState; slot shapes must match the
  /// managed parameters.
  Status SetState(const AdamState& state);

 private:
  float lr_;
  float beta1_;
  float beta2_;
  float eps_;
  float weight_decay_;
  int64_t t_ = 0;
  std::vector<Tensor> m_;
  std::vector<Tensor> v_;
};

}  // namespace relgraph

#endif  // RELGRAPH_TENSOR_OPTIM_H_
