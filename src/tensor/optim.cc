#include "tensor/optim.h"

#include <algorithm>
#include <cmath>

#include "core/parallel.h"
#include "tensor/simd_kernels.h"

namespace relgraph {

Optimizer::Optimizer(std::vector<VarPtr> params)
    : params_(std::move(params)) {
  offsets_.reserve(params_.size() + 1);
  offsets_.push_back(0);
  for (const VarPtr& p : params_) {
    offsets_.push_back(offsets_.back() + p->value().numel());
  }
}

template <typename Fn>
void Optimizer::ForEachSpan(int64_t lo, int64_t hi, const Fn& fn) const {
  // The last parameter starting at or before `lo`.
  size_t i = static_cast<size_t>(
      std::upper_bound(offsets_.begin(), offsets_.end(), lo) -
      offsets_.begin() - 1);
  for (; i < params_.size() && offsets_[i] < hi; ++i) {
    const int64_t b = std::max(lo, offsets_[i]) - offsets_[i];
    const int64_t e = std::min(hi, offsets_[i + 1]) - offsets_[i];
    if (b < e) fn(i, b, e);
  }
}

void Optimizer::ZeroGrad() {
  for (auto& p : params_) p->ZeroGrad();
}

float Optimizer::ClipGradNorm(float max_norm) {
  // grad() allocates lazily: resolve every buffer on this thread first.
  std::vector<float*> grads;
  grads.reserve(params_.size());
  for (auto& p : params_) grads.push_back(p->grad().data());
  const double total = ParallelReduce(
      0, offsets_.back(), kFlatGrain, 0.0,
      [&](int64_t lo, int64_t hi) {
        double partial = 0.0;
        ForEachSpan(lo, hi, [&](size_t i, int64_t b, int64_t e) {
          const float* g = grads[i];
          for (int64_t j = b; j < e; ++j) {
            partial += static_cast<double>(g[j]) * g[j];
          }
        });
        return partial;
      },
      [](double acc, double partial) { return acc + partial; });
  const float norm = static_cast<float>(std::sqrt(total));
  if (norm > max_norm && norm > 0.0f) {
    const float scale = max_norm / norm;
    ParallelFor(0, offsets_.back(), kFlatGrain, [&](int64_t lo, int64_t hi) {
      ForEachSpan(lo, hi, [&](size_t i, int64_t b, int64_t e) {
        kern::ScaleInPlace(grads[i] + b, scale, e - b);
      });
    });
  }
  return norm;
}

Sgd::Sgd(std::vector<VarPtr> params, float lr, float momentum,
         float weight_decay)
    : Optimizer(std::move(params)),
      lr_(lr),
      momentum_(momentum),
      weight_decay_(weight_decay) {
  if (momentum_ > 0.0f) {
    velocity_.reserve(params_.size());
    for (auto& p : params_) {
      velocity_.emplace_back(p->value().rows(), p->value().cols());
    }
  }
}

void Sgd::Step() {
  for (size_t i = 0; i < params_.size(); ++i) {
    Var& p = *params_[i];
    Tensor& g = p.grad();
    Tensor& w = p.mutable_value();
    for (int64_t j = 0; j < w.numel(); ++j) {
      float grad = g.data()[j] + weight_decay_ * w.data()[j];
      if (momentum_ > 0.0f) {
        float& v = velocity_[i].data()[j];
        v = momentum_ * v + grad;
        grad = v;
      }
      w.data()[j] -= lr_ * grad;
    }
  }
}

Adam::Adam(std::vector<VarPtr> params, float lr, float beta1, float beta2,
           float eps, float weight_decay)
    : Optimizer(std::move(params)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps),
      weight_decay_(weight_decay) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (auto& p : params_) {
    m_.emplace_back(p->value().rows(), p->value().cols());
    v_.emplace_back(p->value().rows(), p->value().cols());
  }
}

AdamState Adam::GetState() const { return AdamState{t_, m_, v_}; }

Status Adam::SetState(const AdamState& state) {
  if (state.m.size() != params_.size() || state.v.size() != params_.size()) {
    return Status::InvalidArgument("Adam state has wrong slot count");
  }
  for (size_t i = 0; i < params_.size(); ++i) {
    if (!state.m[i].SameShape(params_[i]->value()) ||
        !state.v[i].SameShape(params_[i]->value())) {
      return Status::InvalidArgument("Adam state slot shape mismatch");
    }
  }
  t_ = state.t;
  m_ = state.m;
  v_ = state.v;
  return Status::OK();
}

void Adam::Step() {
  ++t_;
  const double bias1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bias2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  // mutable_value() bumps the version (invalidating packed weights) and
  // grad() allocates lazily, so both are resolved here, on this thread;
  // the chunks below only touch raw element spans.
  std::vector<const float*> grads;
  std::vector<float*> weights;
  grads.reserve(params_.size());
  weights.reserve(params_.size());
  for (auto& p : params_) {
    grads.push_back(p->grad().data());
    weights.push_back(p->mutable_value().data());
  }
  ParallelFor(0, offsets_.back(), kFlatGrain, [&](int64_t lo, int64_t hi) {
    ForEachSpan(lo, hi, [&](size_t i, int64_t b, int64_t e) {
      const float* g = grads[i];
      float* w = weights[i];
      float* m = m_[i].data();
      float* v = v_[i].data();
      for (int64_t j = b; j < e; ++j) {
        const float grad = g[j];
        m[j] = beta1_ * m[j] + (1.0f - beta1_) * grad;
        v[j] = beta2_ * v[j] + (1.0f - beta2_) * grad * grad;
        const double mhat = m[j] / bias1;
        const double vhat = v[j] / bias2;
        // Decoupled weight decay (AdamW).
        w[j] -= static_cast<float>(
            lr_ * (mhat / (std::sqrt(vhat) + eps_) + weight_decay_ * w[j]));
      }
    });
  });
}

}  // namespace relgraph
