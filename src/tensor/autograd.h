#ifndef RELGRAPH_TENSOR_AUTOGRAD_H_
#define RELGRAPH_TENSOR_AUTOGRAD_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/rng.h"
#include "tensor/tensor.h"

namespace relgraph {

class GradSink;

/// A node in the dynamic reverse-mode autograd tape.
///
/// Each `Var` owns its value, a lazily-allocated gradient of the same shape,
/// the parent nodes it was computed from, and a closure that scatters the
/// node's gradient into its parents' gradients. Graphs are rebuilt every
/// forward pass (define-by-run), which is what mini-batched GNN training
/// over freshly sampled subgraphs needs.
class Var {
 public:
  Var(Tensor value, bool requires_grad)
      : value_(std::move(value)), requires_grad_(requires_grad) {}

  const Tensor& value() const { return value_; }

  /// Mutable access bumps value_version() so caches derived from the
  /// value (e.g. Linear's packed weights) can detect staleness.
  Tensor& mutable_value() {
    ++value_version_;
    return value_;
  }

  /// Monotonic counter incremented by every mutable_value() call.
  int64_t value_version() const { return value_version_; }

  bool requires_grad() const { return requires_grad_; }

  /// Gradient tensor; allocated (zero) on first access.
  Tensor& grad();

  /// Where a backward pass into `sink` accumulates this node's gradient:
  /// the sink's buffer for a leaf parameter, grad() for a tape node (and
  /// for every node when `sink` is null).
  Tensor& grad(GradSink* sink);
  bool has_grad() const { return !grad_.empty() || grad_init_; }

  /// Zeroes (and keeps) the gradient buffer.
  void ZeroGrad();

  int64_t rows() const { return value_.rows(); }
  int64_t cols() const { return value_.cols(); }

  /// Wires this node into the tape (op constructors only). The closure
  /// scatters this node's gradient into its parents' grad(sink).
  void SetEdge(std::vector<std::shared_ptr<Var>> parents,
               std::function<void(GradSink*)> backward_fn) {
    parents_ = std::move(parents);
    backward_fn_ = std::move(backward_fn);
  }

 private:
  friend void Backward(const std::shared_ptr<Var>& root, GradSink* sink);

  Tensor value_;
  Tensor grad_;
  int64_t value_version_ = 0;
  bool grad_init_ = false;
  bool requires_grad_;
  std::vector<std::shared_ptr<Var>> parents_;
  std::function<void(GradSink*)> backward_fn_;
};

using VarPtr = std::shared_ptr<Var>;

/// Per-parameter gradient buffers that one backward pass accumulates into
/// in place of the parameters' own grad(). Tape nodes belong to a single
/// forward, but parameters are shared; with one sink per tape, several
/// tapes over the same parameters can run backward at once, and the
/// caller sums the sinks into grad() in an order of its choosing.
class GradSink {
 public:
  /// The buffer for `param`, zero-filled on first access.
  Tensor& For(const Var* param);

  /// Adds each of `params`' buffers (if this sink has one) into its
  /// grad().
  void AddTo(const std::vector<VarPtr>& params) const;

 private:
  std::unordered_map<const Var*, Tensor> grads_;
};

namespace ag {

/// Wraps a tensor as a non-trainable graph input.
VarPtr Constant(Tensor value);

/// Wraps a tensor as a trainable parameter (participates in backward).
VarPtr Param(Tensor value);

// ------------------------------------------------------------- arithmetic

/// a @ b.
VarPtr MatMul(const VarPtr& a, const VarPtr& b);

/// a @ w through pre-packed panels: `packed` must be
/// PackForMatMul(w->value()) for the current value of `w`, which supplies
/// the backward path. Bit-identical to MatMul(a, w).
VarPtr MatMulPacked(const VarPtr& a,
                    std::shared_ptr<const PackedMatrix> packed,
                    const VarPtr& w);

/// Elementwise a + b (same shape).
VarPtr Add(const VarPtr& a, const VarPtr& b);

/// Elementwise a - b.
VarPtr Sub(const VarPtr& a, const VarPtr& b);

/// Elementwise a * b.
VarPtr Mul(const VarPtr& a, const VarPtr& b);

/// a + row-broadcast bias (bias is 1×c).
VarPtr AddBias(const VarPtr& a, const VarPtr& bias);

/// Scalar scale.
VarPtr Scale(const VarPtr& a, float s);

/// Elementwise exp.
VarPtr Exp(const VarPtr& a);

/// Elementwise a / b (same shape; b must be nonzero).
VarPtr Div(const VarPtr& a, const VarPtr& b);

/// Scales row i of `a` (n×d) by `w` row i (n×1).
VarPtr MulColBroadcast(const VarPtr& a, const VarPtr& w);

// ----------------------------------------------------------- activations

VarPtr Relu(const VarPtr& a);
VarPtr LeakyRelu(const VarPtr& a, float slope = 0.01f);
VarPtr Tanh(const VarPtr& a);
VarPtr Sigmoid(const VarPtr& a);

/// Inverted dropout; identity when `training` is false or p == 0.
VarPtr Dropout(const VarPtr& a, float p, Rng* rng, bool training);

// -------------------------------------------------------------- reshaping

/// Horizontal concatenation: all inputs share the row count.
VarPtr ConcatCols(const std::vector<VarPtr>& parts);

/// out[i] = a[indices[i]]; gradient scatters (accumulating duplicates).
VarPtr GatherRows(const VarPtr& a, std::vector<int64_t> indices);

/// Zero-copy view of rows [row_begin, row_begin + num_rows) of `a`. The
/// result's value aliases a's storage (no per-batch copy; the node's
/// parent edge keeps `a` alive even in no-grad mode), and backward adds
/// the slice gradient into the matching rows of a. Slicing the full range
/// returns `a` itself.
VarPtr SliceRows(const VarPtr& a, int64_t row_begin, int64_t num_rows);

// ------------------------------------------------------------ aggregation

/// Segment sum: out[s] = sum over i with segment_ids[i]==s of a[i].
/// `segment_ids` values must lie in [0, num_segments).
VarPtr SegmentSum(const VarPtr& a, std::vector<int64_t> segment_ids,
                  int64_t num_segments);

/// Segment mean; empty segments produce zero rows.
VarPtr SegmentMean(const VarPtr& a, std::vector<int64_t> segment_ids,
                   int64_t num_segments);

/// Segment max; empty segments produce zero rows (gradient flows to the
/// arg-max element of each segment/column).
VarPtr SegmentMax(const VarPtr& a, std::vector<int64_t> segment_ids,
                  int64_t num_segments);

/// Per-segment softmax of n×1 scores: within each segment the outputs are
/// positive and sum to 1 (numerically stabilized by the segment max).
/// Empty segments contribute nothing. Used for graph attention.
VarPtr SegmentSoftmax(const VarPtr& scores,
                      std::vector<int64_t> segment_ids,
                      int64_t num_segments);

/// Row-wise dot product of two n×d vars producing n×1.
VarPtr RowwiseDot(const VarPtr& a, const VarPtr& b);

/// Row-wise layer normalization with learnable gain/bias (both 1×d):
/// y = gain * (x - mean_row) / sqrt(var_row + eps) + bias.
VarPtr LayerNorm(const VarPtr& x, const VarPtr& gain, const VarPtr& bias,
                 float eps = 1e-5f);

/// Sum of all entries (1×1).
VarPtr Sum(const VarPtr& a);

/// Mean of all entries (1×1).
VarPtr Mean(const VarPtr& a);

// ------------------------------------------------------------------ losses

/// Mean softmax cross-entropy over rows of `logits` against integer class
/// labels; returns a 1×1 loss.
VarPtr SoftmaxCrossEntropy(const VarPtr& logits,
                           const std::vector<int64_t>& labels);

/// Mean binary cross-entropy with logits (n×1 logits vs n×1 {0,1} targets).
VarPtr BinaryCrossEntropyWithLogits(const VarPtr& logits,
                                    const Tensor& targets);

/// Mean squared error between n×1 predictions and targets.
VarPtr MseLoss(const VarPtr& pred, const Tensor& targets);

/// Mean absolute (L1 / Huber-free) error.
VarPtr L1Loss(const VarPtr& pred, const Tensor& targets);

}  // namespace ag

/// Runs reverse-mode accumulation from `root` (which must be 1×1) through
/// the tape, filling `grad()` of every reachable Var that requires grad.
/// With a `sink`, leaf parameters' gradients go to the sink instead and
/// their grad() is left untouched (tape nodes still use their own).
void Backward(const VarPtr& root, GradSink* sink = nullptr);

}  // namespace relgraph

#endif  // RELGRAPH_TENSOR_AUTOGRAD_H_
