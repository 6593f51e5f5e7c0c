#include "tensor/autograd.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "core/logging.h"
#include "tensor/simd_kernels.h"

namespace relgraph {

Tensor& Var::grad() {
  if (!grad_init_) {
    grad_ = Tensor::Zeros(value_.rows(), value_.cols());
    grad_init_ = true;
  }
  return grad_;
}

Tensor& Var::grad(GradSink* sink) {
  if (sink != nullptr && !backward_fn_) return sink->For(this);
  return grad();
}

void Var::ZeroGrad() {
  if (grad_init_) grad_.Fill(0.0f);
}

Tensor& GradSink::For(const Var* param) {
  auto [it, inserted] = grads_.try_emplace(param);
  if (inserted) it->second = Tensor::Zeros(param->rows(), param->cols());
  return it->second;
}

void GradSink::AddTo(const std::vector<VarPtr>& params) const {
  for (const VarPtr& p : params) {
    auto it = grads_.find(p.get());
    if (it != grads_.end()) p->grad().Add(it->second);
  }
}

namespace ag {

namespace {

/// Creates a result node whose parents/backward are wired only when at
/// least one parent participates in gradient computation.
VarPtr MakeNode(Tensor value, std::vector<VarPtr> parents,
                std::function<void(Var*, GradSink*)> backward) {
  bool needs = false;
  for (const auto& p : parents) needs = needs || p->requires_grad();
  auto out = std::make_shared<Var>(std::move(value), needs);
  if (needs) {
    // The closure captures the raw result pointer: the closure is owned by
    // the result node, so the pointer cannot dangle while it is callable.
    Var* raw = out.get();
    out->SetEdge(std::move(parents),
                 [raw, backward = std::move(backward)](GradSink* sink) {
                   backward(raw, sink);
                 });
  }
  return out;
}

/// The gradient a closure accumulates into for `v`, or null when `v` takes
/// none. Resolved once per closure: a sink lookup is a hash probe, so it
/// must stay out of per-element loops.
Tensor* GradOrNull(const VarPtr& v, GradSink* sink) {
  return v->requires_grad() ? &v->grad(sink) : nullptr;
}

}  // namespace

VarPtr Constant(Tensor value) {
  return std::make_shared<Var>(std::move(value), false);
}

VarPtr Param(Tensor value) {
  return std::make_shared<Var>(std::move(value), true);
}

VarPtr MatMul(const VarPtr& a, const VarPtr& b) {
  Tensor out = relgraph::MatMul(a->value(), b->value());
  return MakeNode(std::move(out), {a, b}, [a, b](Var* node, GradSink* sink) {
    const Tensor& g = node->grad();
    if (a->requires_grad()) a->grad(sink).Add(MatMulBT(g, b->value()));
    if (b->requires_grad()) b->grad(sink).Add(MatMulAT(a->value(), g));
  });
}

VarPtr MatMulPacked(const VarPtr& a,
                    std::shared_ptr<const PackedMatrix> packed,
                    const VarPtr& w) {
  RELGRAPH_CHECK(packed != nullptr);
  RELGRAPH_CHECK(packed->rows == w->rows() && packed->cols == w->cols())
      << "packed panels are for a " << packed->rows << "x" << packed->cols
      << " matrix, not " << w->rows() << "x" << w->cols();
  Tensor out = relgraph::MatMulPacked(a->value(), *packed);
  // Backward reads the unpacked weight; the panels are a forward-only
  // artifact (the node keeps them alive via the closure for nothing more
  // than symmetry — gradients never touch them).
  return MakeNode(std::move(out), {a, w}, [a, w](Var* node, GradSink* sink) {
    const Tensor& g = node->grad();
    if (a->requires_grad()) a->grad(sink).Add(MatMulBT(g, w->value()));
    if (w->requires_grad()) w->grad(sink).Add(MatMulAT(a->value(), g));
  });
}

VarPtr Add(const VarPtr& a, const VarPtr& b) {
  Tensor out = relgraph::Add(a->value(), b->value());
  return MakeNode(std::move(out), {a, b}, [a, b](Var* node, GradSink* sink) {
    const Tensor& g = node->grad();
    if (a->requires_grad()) a->grad(sink).Add(g);
    if (b->requires_grad()) b->grad(sink).Add(g);
  });
}

VarPtr Sub(const VarPtr& a, const VarPtr& b) {
  Tensor out = relgraph::Sub(a->value(), b->value());
  return MakeNode(std::move(out), {a, b}, [a, b](Var* node, GradSink* sink) {
    const Tensor& g = node->grad();
    if (a->requires_grad()) a->grad(sink).Add(g);
    if (b->requires_grad()) {
      kern::AxpyInto(b->grad(sink).data(), g.data(), -1.0f, g.numel());
    }
  });
}

VarPtr Mul(const VarPtr& a, const VarPtr& b) {
  Tensor out = relgraph::Mul(a->value(), b->value());
  return MakeNode(std::move(out), {a, b}, [a, b](Var* node, GradSink* sink) {
    const Tensor& g = node->grad();
    if (a->requires_grad()) {
      a->grad(sink).Add(relgraph::Mul(g, b->value()));
    }
    if (b->requires_grad()) {
      b->grad(sink).Add(relgraph::Mul(g, a->value()));
    }
  });
}

VarPtr AddBias(const VarPtr& a, const VarPtr& bias) {
  Tensor out = AddRowBroadcast(a->value(), bias->value());
  return MakeNode(std::move(out), {a, bias}, [a, bias](Var* node,
                                                       GradSink* sink) {
    const Tensor& g = node->grad();
    if (a->requires_grad()) a->grad(sink).Add(g);
    if (bias->requires_grad()) bias->grad(sink).Add(SumRows(g));
  });
}

VarPtr Scale(const VarPtr& a, float s) {
  Tensor out = a->value();
  out.Scale(s);
  return MakeNode(std::move(out), {a}, [a, s](Var* node, GradSink* sink) {
    if (!a->requires_grad()) return;
    const Tensor& g = node->grad();
    kern::AxpyInto(a->grad(sink).data(), g.data(), s, g.numel());
  });
}

VarPtr Exp(const VarPtr& a) {
  Tensor out = a->value();
  for (int64_t i = 0; i < out.numel(); ++i) {
    out.data()[i] = std::exp(out.data()[i]);
  }
  return MakeNode(std::move(out), {a}, [a](Var* node, GradSink* sink) {
    if (!a->requires_grad()) return;
    const Tensor& g = node->grad();
    const Tensor& y = node->value();
    Tensor& ag = a->grad(sink);
    for (int64_t i = 0; i < g.numel(); ++i) {
      ag.data()[i] += g.data()[i] * y.data()[i];
    }
  });
}

VarPtr Div(const VarPtr& a, const VarPtr& b) {
  RELGRAPH_CHECK(a->value().SameShape(b->value()));
  Tensor out(a->rows(), a->cols());
  for (int64_t i = 0; i < out.numel(); ++i) {
    out.data()[i] = a->value().data()[i] / b->value().data()[i];
  }
  return MakeNode(std::move(out), {a, b}, [a, b](Var* node, GradSink* sink) {
    const Tensor& g = node->grad();
    Tensor* ag = GradOrNull(a, sink);
    Tensor* bg = GradOrNull(b, sink);
    for (int64_t i = 0; i < g.numel(); ++i) {
      const float bv = b->value().data()[i];
      if (ag != nullptr) ag->data()[i] += g.data()[i] / bv;
      if (bg != nullptr) {
        bg->data()[i] -= g.data()[i] * a->value().data()[i] / (bv * bv);
      }
    }
  });
}

VarPtr MulColBroadcast(const VarPtr& a, const VarPtr& w) {
  RELGRAPH_CHECK(w->cols() == 1 && w->rows() == a->rows());
  Tensor out(a->rows(), a->cols());
  for (int64_t r = 0; r < a->rows(); ++r) {
    const float wv = w->value().at(r, 0);
    for (int64_t c = 0; c < a->cols(); ++c) {
      out.at(r, c) = a->value().at(r, c) * wv;
    }
  }
  return MakeNode(std::move(out), {a, w}, [a, w](Var* node, GradSink* sink) {
    const Tensor& g = node->grad();
    Tensor* ag = GradOrNull(a, sink);
    Tensor* wg = GradOrNull(w, sink);
    for (int64_t r = 0; r < g.rows(); ++r) {
      const float wv = w->value().at(r, 0);
      double acc = 0.0;
      for (int64_t c = 0; c < g.cols(); ++c) {
        if (ag != nullptr) ag->at(r, c) += g.at(r, c) * wv;
        acc += static_cast<double>(g.at(r, c)) * a->value().at(r, c);
      }
      if (wg != nullptr) wg->at(r, 0) += static_cast<float>(acc);
    }
  });
}

VarPtr SegmentSoftmax(const VarPtr& scores,
                      std::vector<int64_t> segment_ids,
                      int64_t num_segments) {
  RELGRAPH_CHECK(scores->cols() == 1);
  RELGRAPH_CHECK(static_cast<int64_t>(segment_ids.size()) == scores->rows());
  const int64_t n = scores->rows();
  std::vector<double> seg_max(static_cast<size_t>(num_segments), -1e30);
  for (int64_t i = 0; i < n; ++i) {
    const int64_t s = segment_ids[static_cast<size_t>(i)];
    RELGRAPH_CHECK(s >= 0 && s < num_segments);
    seg_max[static_cast<size_t>(s)] =
        std::max(seg_max[static_cast<size_t>(s)],
                 static_cast<double>(scores->value().at(i, 0)));
  }
  std::vector<double> seg_sum(static_cast<size_t>(num_segments), 0.0);
  Tensor out(n, 1);
  for (int64_t i = 0; i < n; ++i) {
    const int64_t s = segment_ids[static_cast<size_t>(i)];
    const double e = std::exp(scores->value().at(i, 0) -
                              seg_max[static_cast<size_t>(s)]);
    out.at(i, 0) = static_cast<float>(e);
    seg_sum[static_cast<size_t>(s)] += e;
  }
  for (int64_t i = 0; i < n; ++i) {
    const int64_t s = segment_ids[static_cast<size_t>(i)];
    out.at(i, 0) = static_cast<float>(out.at(i, 0) /
                                      seg_sum[static_cast<size_t>(s)]);
  }
  auto ids = std::make_shared<std::vector<int64_t>>(std::move(segment_ids));
  return MakeNode(std::move(out), {scores}, [scores, ids,
                                             num_segments](
                                                Var* node, GradSink* sink) {
    if (!scores->requires_grad()) return;
    const Tensor& g = node->grad();
    const Tensor& w = node->value();
    // d s_i = w_i * (g_i - sum_j in segment w_j g_j).
    std::vector<double> seg_dot(static_cast<size_t>(num_segments), 0.0);
    for (size_t i = 0; i < ids->size(); ++i) {
      seg_dot[static_cast<size_t>((*ids)[i])] +=
          static_cast<double>(w.at(static_cast<int64_t>(i), 0)) *
          g.at(static_cast<int64_t>(i), 0);
    }
    Tensor& sg = scores->grad(sink);
    for (size_t i = 0; i < ids->size(); ++i) {
      const int64_t r = static_cast<int64_t>(i);
      sg.at(r, 0) += static_cast<float>(
          w.at(r, 0) * (g.at(r, 0) -
                        seg_dot[static_cast<size_t>((*ids)[i])]));
    }
  });
}

VarPtr Relu(const VarPtr& a) {
  Tensor out(a->rows(), a->cols());
  kern::ReluOut(out.data(), a->value().data(), out.numel());
  return MakeNode(std::move(out), {a}, [a](Var* node, GradSink* sink) {
    if (!a->requires_grad()) return;
    const Tensor& g = node->grad();
    kern::ReluGradAccum(a->grad(sink).data(), g.data(), a->value().data(),
                        g.numel());
  });
}

VarPtr LeakyRelu(const VarPtr& a, float slope) {
  Tensor out = a->value();
  for (int64_t i = 0; i < out.numel(); ++i) {
    float v = out.data()[i];
    out.data()[i] = v > 0.0f ? v : slope * v;
  }
  return MakeNode(std::move(out), {a}, [a, slope](Var* node, GradSink* sink) {
    if (!a->requires_grad()) return;
    const Tensor& g = node->grad();
    Tensor& ag = a->grad(sink);
    const Tensor& x = a->value();
    for (int64_t i = 0; i < g.numel(); ++i) {
      ag.data()[i] += g.data()[i] * (x.data()[i] > 0.0f ? 1.0f : slope);
    }
  });
}

VarPtr Tanh(const VarPtr& a) {
  Tensor out = a->value();
  for (int64_t i = 0; i < out.numel(); ++i) {
    out.data()[i] = std::tanh(out.data()[i]);
  }
  return MakeNode(std::move(out), {a}, [a](Var* node, GradSink* sink) {
    if (!a->requires_grad()) return;
    const Tensor& g = node->grad();
    const Tensor& y = node->value();
    Tensor& ag = a->grad(sink);
    for (int64_t i = 0; i < g.numel(); ++i) {
      ag.data()[i] += g.data()[i] * (1.0f - y.data()[i] * y.data()[i]);
    }
  });
}

VarPtr Sigmoid(const VarPtr& a) {
  Tensor out = a->value();
  for (int64_t i = 0; i < out.numel(); ++i) {
    out.data()[i] = 1.0f / (1.0f + std::exp(-out.data()[i]));
  }
  return MakeNode(std::move(out), {a}, [a](Var* node, GradSink* sink) {
    if (!a->requires_grad()) return;
    const Tensor& g = node->grad();
    const Tensor& y = node->value();
    Tensor& ag = a->grad(sink);
    for (int64_t i = 0; i < g.numel(); ++i) {
      ag.data()[i] += g.data()[i] * y.data()[i] * (1.0f - y.data()[i]);
    }
  });
}

VarPtr Dropout(const VarPtr& a, float p, Rng* rng, bool training) {
  if (!training || p <= 0.0f) return a;
  RELGRAPH_CHECK(p < 1.0f) << "dropout probability must be < 1";
  RELGRAPH_CHECK(rng != nullptr);
  auto mask = std::make_shared<Tensor>(a->rows(), a->cols());
  const float keep = 1.0f - p;
  const float inv_keep = 1.0f / keep;
  Tensor out = a->value();
  for (int64_t i = 0; i < out.numel(); ++i) {
    if (rng->Uniform() < keep) {
      mask->data()[i] = inv_keep;
      out.data()[i] *= inv_keep;
    } else {
      mask->data()[i] = 0.0f;
      out.data()[i] = 0.0f;
    }
  }
  return MakeNode(std::move(out), {a}, [a, mask](Var* node, GradSink* sink) {
    if (!a->requires_grad()) return;
    a->grad(sink).Add(relgraph::Mul(node->grad(), *mask));
  });
}

VarPtr ConcatCols(const std::vector<VarPtr>& parts) {
  RELGRAPH_CHECK(!parts.empty());
  int64_t rows = parts[0]->rows();
  int64_t cols = 0;
  for (const auto& p : parts) {
    RELGRAPH_CHECK(p->rows() == rows) << "concat row mismatch";
    cols += p->cols();
  }
  Tensor out(rows, cols);
  int64_t offset = 0;
  for (const auto& p : parts) {
    for (int64_t r = 0; r < rows; ++r) {
      std::copy(p->value().data() + r * p->cols(),
                p->value().data() + (r + 1) * p->cols(),
                out.data() + r * cols + offset);
    }
    offset += p->cols();
  }
  return MakeNode(std::move(out), parts, [parts, cols](Var* node,
                                                       GradSink* sink) {
    const Tensor& g = node->grad();
    int64_t off = 0;
    for (const auto& p : parts) {
      if (p->requires_grad()) {
        Tensor& pg = p->grad(sink);
        const int64_t pcols = p->cols();
        for (int64_t r = 0; r < p->rows(); ++r) {
          kern::AddInto(pg.data() + r * pcols, g.data() + r * cols + off,
                        pcols);
        }
      }
      off += p->cols();
    }
  });
}

VarPtr SliceRows(const VarPtr& a, int64_t row_begin, int64_t num_rows) {
  if (row_begin == 0 && num_rows == a->rows()) return a;
  Tensor view = Tensor::RowView(a->value(), row_begin, num_rows);
  const bool needs = a->requires_grad();
  auto out = std::make_shared<Var>(std::move(view), needs);
  Var* raw = out.get();
  std::function<void(GradSink*)> backward;
  if (needs) {
    backward = [a, raw, row_begin](GradSink* sink) {
      const Tensor& g = raw->grad();
      kern::AddInto(a->grad(sink).data() + row_begin * g.cols(), g.data(),
                    g.numel());
    };
  }
  // The parent edge is wired even when no gradient flows: the node's value
  // aliases a's storage, so the edge is what keeps `a` alive.
  out->SetEdge({a}, std::move(backward));
  return out;
}

VarPtr GatherRows(const VarPtr& a, std::vector<int64_t> indices) {
  Tensor out = a->value().GatherRows(indices);
  auto idx = std::make_shared<std::vector<int64_t>>(std::move(indices));
  return MakeNode(std::move(out), {a}, [a, idx](Var* node, GradSink* sink) {
    if (!a->requires_grad()) return;
    const Tensor& g = node->grad();
    Tensor& ag = a->grad(sink);
    const int64_t cols = g.cols();
    for (size_t i = 0; i < idx->size(); ++i) {
      const int64_t r = (*idx)[i];
      kern::AddInto(ag.data() + r * cols,
                    g.data() + static_cast<int64_t>(i) * cols, cols);
    }
  });
}

VarPtr SegmentSum(const VarPtr& a, std::vector<int64_t> segment_ids,
                  int64_t num_segments) {
  RELGRAPH_CHECK(static_cast<int64_t>(segment_ids.size()) == a->rows());
  const int64_t cols = a->cols();
  Tensor out(num_segments, cols);
  const float* src = a->value().data();
  float* dst = out.data();
  for (size_t i = 0; i < segment_ids.size(); ++i) {
    const int64_t s = segment_ids[i];
    RELGRAPH_CHECK(s >= 0 && s < num_segments) << "segment id " << s;
    kern::AddInto(dst + s * cols, src + static_cast<int64_t>(i) * cols,
                  cols);
  }
  auto ids = std::make_shared<std::vector<int64_t>>(std::move(segment_ids));
  return MakeNode(std::move(out), {a}, [a, ids, cols](Var* node,
                                                      GradSink* sink) {
    if (!a->requires_grad()) return;
    const Tensor& g = node->grad();
    Tensor& ag = a->grad(sink);
    for (size_t i = 0; i < ids->size(); ++i) {
      const int64_t s = (*ids)[i];
      kern::AddInto(ag.data() + static_cast<int64_t>(i) * cols,
                    g.data() + s * cols, cols);
    }
  });
}

VarPtr SegmentMean(const VarPtr& a, std::vector<int64_t> segment_ids,
                   int64_t num_segments) {
  RELGRAPH_CHECK(static_cast<int64_t>(segment_ids.size()) == a->rows());
  auto counts = std::make_shared<std::vector<float>>(
      static_cast<size_t>(num_segments), 0.0f);
  for (int64_t s : segment_ids) {
    RELGRAPH_CHECK(s >= 0 && s < num_segments) << "segment id " << s;
    (*counts)[static_cast<size_t>(s)] += 1.0f;
  }
  const int64_t cols = a->cols();
  Tensor out(num_segments, cols);
  const float* src = a->value().data();
  float* dst = out.data();
  for (size_t i = 0; i < segment_ids.size(); ++i) {
    const int64_t s = segment_ids[i];
    const float inv = 1.0f / (*counts)[static_cast<size_t>(s)];
    kern::AxpyInto(dst + s * cols, src + static_cast<int64_t>(i) * cols,
                   inv, cols);
  }
  auto ids = std::make_shared<std::vector<int64_t>>(std::move(segment_ids));
  return MakeNode(std::move(out), {a}, [a, ids, counts, cols](
                                           Var* node, GradSink* sink) {
    if (!a->requires_grad()) return;
    const Tensor& g = node->grad();
    Tensor& ag = a->grad(sink);
    for (size_t i = 0; i < ids->size(); ++i) {
      const int64_t s = (*ids)[i];
      const float inv = 1.0f / (*counts)[static_cast<size_t>(s)];
      kern::AxpyInto(ag.data() + static_cast<int64_t>(i) * cols,
                     g.data() + s * cols, inv, cols);
    }
  });
}

VarPtr SegmentMax(const VarPtr& a, std::vector<int64_t> segment_ids,
                  int64_t num_segments) {
  RELGRAPH_CHECK(static_cast<int64_t>(segment_ids.size()) == a->rows());
  const int64_t cols = a->cols();
  Tensor out(num_segments, cols);
  // argmax[s*cols + c] = input row index achieving the max, or -1 if empty.
  auto argmax = std::make_shared<std::vector<int64_t>>(
      static_cast<size_t>(num_segments * cols), -1);
  for (size_t i = 0; i < segment_ids.size(); ++i) {
    const int64_t s = segment_ids[i];
    RELGRAPH_CHECK(s >= 0 && s < num_segments) << "segment id " << s;
    for (int64_t c = 0; c < cols; ++c) {
      const float v = a->value().at(static_cast<int64_t>(i), c);
      int64_t& am = (*argmax)[static_cast<size_t>(s * cols + c)];
      if (am < 0 || v > out.at(s, c)) {
        out.at(s, c) = v;
        am = static_cast<int64_t>(i);
      }
    }
  }
  // Empty segments stay at zero (argmax -1).
  return MakeNode(std::move(out), {a}, [a, argmax, cols,
                                        num_segments](Var* node,
                                                      GradSink* sink) {
    if (!a->requires_grad()) return;
    const Tensor& g = node->grad();
    Tensor& ag = a->grad(sink);
    for (int64_t s = 0; s < num_segments; ++s) {
      for (int64_t c = 0; c < cols; ++c) {
        const int64_t i = (*argmax)[static_cast<size_t>(s * cols + c)];
        if (i >= 0) ag.at(i, c) += g.at(s, c);
      }
    }
  });
}

VarPtr LayerNorm(const VarPtr& x, const VarPtr& gain, const VarPtr& bias,
                 float eps) {
  const int64_t n = x->rows(), d = x->cols();
  RELGRAPH_CHECK(gain->rows() == 1 && gain->cols() == d);
  RELGRAPH_CHECK(bias->rows() == 1 && bias->cols() == d);
  RELGRAPH_CHECK(d > 0);
  auto xhat = std::make_shared<Tensor>(n, d);
  auto inv_sigma = std::make_shared<std::vector<float>>(
      static_cast<size_t>(n));
  Tensor out(n, d);
  for (int64_t r = 0; r < n; ++r) {
    double mean = 0.0;
    for (int64_t c = 0; c < d; ++c) mean += x->value().at(r, c);
    mean /= static_cast<double>(d);
    double var = 0.0;
    for (int64_t c = 0; c < d; ++c) {
      const double dv = x->value().at(r, c) - mean;
      var += dv * dv;
    }
    var /= static_cast<double>(d);
    const float inv = static_cast<float>(1.0 / std::sqrt(var + eps));
    (*inv_sigma)[static_cast<size_t>(r)] = inv;
    for (int64_t c = 0; c < d; ++c) {
      const float xh =
          (x->value().at(r, c) - static_cast<float>(mean)) * inv;
      xhat->at(r, c) = xh;
      out.at(r, c) = gain->value().at(0, c) * xh + bias->value().at(0, c);
    }
  }
  return MakeNode(std::move(out), {x, gain, bias}, [x, gain, bias, xhat,
                                                    inv_sigma, n, d](
                                                       Var* node,
                                                       GradSink* sink) {
    const Tensor& g = node->grad();
    Tensor* xg = GradOrNull(x, sink);
    Tensor* gain_g = GradOrNull(gain, sink);
    Tensor* bias_g = GradOrNull(bias, sink);
    for (int64_t r = 0; r < n; ++r) {
      // Per-row reductions for the x gradient.
      double sum_gy = 0.0, sum_gy_xhat = 0.0;
      for (int64_t c = 0; c < d; ++c) {
        const double gy = g.at(r, c) * gain->value().at(0, c);
        sum_gy += gy;
        sum_gy_xhat += gy * xhat->at(r, c);
      }
      const double mean_gy = sum_gy / static_cast<double>(d);
      const double mean_gy_xhat = sum_gy_xhat / static_cast<double>(d);
      for (int64_t c = 0; c < d; ++c) {
        const double gy = g.at(r, c) * gain->value().at(0, c);
        if (xg != nullptr) {
          xg->at(r, c) += static_cast<float>(
              (gy - mean_gy - xhat->at(r, c) * mean_gy_xhat) *
              (*inv_sigma)[static_cast<size_t>(r)]);
        }
        if (gain_g != nullptr) gain_g->at(0, c) += g.at(r, c) * xhat->at(r, c);
        if (bias_g != nullptr) bias_g->at(0, c) += g.at(r, c);
      }
    }
  });
}

VarPtr RowwiseDot(const VarPtr& a, const VarPtr& b) {
  RELGRAPH_CHECK(a->value().SameShape(b->value()));
  Tensor out(a->rows(), 1);
  for (int64_t r = 0; r < a->rows(); ++r) {
    double acc = 0.0;
    for (int64_t c = 0; c < a->cols(); ++c) {
      acc += static_cast<double>(a->value().at(r, c)) * b->value().at(r, c);
    }
    out.at(r, 0) = static_cast<float>(acc);
  }
  return MakeNode(std::move(out), {a, b}, [a, b](Var* node, GradSink* sink) {
    const Tensor& g = node->grad();
    Tensor* ag = GradOrNull(a, sink);
    Tensor* bg = GradOrNull(b, sink);
    for (int64_t r = 0; r < a->rows(); ++r) {
      const float gr = g.at(r, 0);
      if (ag != nullptr) {
        for (int64_t c = 0; c < a->cols(); ++c) {
          ag->at(r, c) += gr * b->value().at(r, c);
        }
      }
      if (bg != nullptr) {
        for (int64_t c = 0; c < b->cols(); ++c) {
          bg->at(r, c) += gr * a->value().at(r, c);
        }
      }
    }
  });
}

VarPtr Sum(const VarPtr& a) {
  Tensor out(1, 1);
  out.at(0, 0) = a->value().Sum();
  return MakeNode(std::move(out), {a}, [a](Var* node, GradSink* sink) {
    if (!a->requires_grad()) return;
    const float g = node->grad().at(0, 0);
    Tensor& ag = a->grad(sink);
    for (int64_t i = 0; i < ag.numel(); ++i) ag.data()[i] += g;
  });
}

VarPtr Mean(const VarPtr& a) {
  RELGRAPH_CHECK(a->value().numel() > 0);
  return Scale(Sum(a), 1.0f / static_cast<float>(a->value().numel()));
}

VarPtr SoftmaxCrossEntropy(const VarPtr& logits,
                           const std::vector<int64_t>& labels) {
  const int64_t n = logits->rows();
  const int64_t k = logits->cols();
  RELGRAPH_CHECK(static_cast<int64_t>(labels.size()) == n);
  auto probs = std::make_shared<Tensor>(SoftmaxRows(logits->value()));
  double loss = 0.0;
  for (int64_t r = 0; r < n; ++r) {
    RELGRAPH_CHECK(labels[r] >= 0 && labels[r] < k)
        << "label " << labels[r] << " out of range for " << k << " classes";
    loss -= std::log(std::max(1e-12, static_cast<double>(
                                          probs->at(r, labels[r]))));
  }
  Tensor out(1, 1);
  out.at(0, 0) = static_cast<float>(loss / std::max<int64_t>(n, 1));
  auto lab = std::make_shared<std::vector<int64_t>>(labels);
  return MakeNode(std::move(out), {logits}, [logits, probs, lab, n,
                                             k](Var* node, GradSink* sink) {
    if (!logits->requires_grad()) return;
    const float g = node->grad().at(0, 0) / static_cast<float>(n);
    Tensor& lg = logits->grad(sink);
    for (int64_t r = 0; r < n; ++r) {
      for (int64_t c = 0; c < k; ++c) {
        float p = probs->at(r, c);
        lg.at(r, c) += g * (p - (c == (*lab)[r] ? 1.0f : 0.0f));
      }
    }
  });
}

VarPtr BinaryCrossEntropyWithLogits(const VarPtr& logits,
                                    const Tensor& targets) {
  RELGRAPH_CHECK(logits->cols() == 1 && targets.cols() == 1);
  RELGRAPH_CHECK(logits->rows() == targets.rows());
  const int64_t n = logits->rows();
  auto sig = std::make_shared<Tensor>(n, 1);
  double loss = 0.0;
  for (int64_t r = 0; r < n; ++r) {
    const double z = logits->value().at(r, 0);
    const double t = targets.at(r, 0);
    // Numerically stable: max(z,0) - z*t + log(1 + exp(-|z|)).
    loss += std::max(z, 0.0) - z * t + std::log1p(std::exp(-std::fabs(z)));
    sig->at(r, 0) = static_cast<float>(1.0 / (1.0 + std::exp(-z)));
  }
  Tensor out(1, 1);
  out.at(0, 0) = static_cast<float>(loss / std::max<int64_t>(n, 1));
  auto tgt = std::make_shared<Tensor>(targets);
  return MakeNode(std::move(out), {logits}, [logits, sig, tgt, n](
                                                 Var* node, GradSink* sink) {
    if (!logits->requires_grad()) return;
    const float g = node->grad().at(0, 0) / static_cast<float>(n);
    Tensor& lg = logits->grad(sink);
    for (int64_t r = 0; r < n; ++r) {
      lg.at(r, 0) += g * (sig->at(r, 0) - tgt->at(r, 0));
    }
  });
}

VarPtr MseLoss(const VarPtr& pred, const Tensor& targets) {
  RELGRAPH_CHECK(pred->value().SameShape(targets));
  const int64_t n = pred->value().numel();
  double loss = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    const double d = pred->value().data()[i] - targets.data()[i];
    loss += d * d;
  }
  Tensor out(1, 1);
  out.at(0, 0) = static_cast<float>(loss / std::max<int64_t>(n, 1));
  auto tgt = std::make_shared<Tensor>(targets);
  return MakeNode(std::move(out), {pred}, [pred, tgt, n](Var* node,
                                                         GradSink* sink) {
    if (!pred->requires_grad()) return;
    const float g = 2.0f * node->grad().at(0, 0) / static_cast<float>(n);
    float* pg = pred->grad(sink).data();
    for (int64_t i = 0; i < n; ++i) {
      pg[i] += g * (pred->value().data()[i] - tgt->data()[i]);
    }
  });
}

VarPtr L1Loss(const VarPtr& pred, const Tensor& targets) {
  RELGRAPH_CHECK(pred->value().SameShape(targets));
  const int64_t n = pred->value().numel();
  double loss = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    loss += std::fabs(pred->value().data()[i] - targets.data()[i]);
  }
  Tensor out(1, 1);
  out.at(0, 0) = static_cast<float>(loss / std::max<int64_t>(n, 1));
  auto tgt = std::make_shared<Tensor>(targets);
  return MakeNode(std::move(out), {pred}, [pred, tgt, n](Var* node,
                                                         GradSink* sink) {
    if (!pred->requires_grad()) return;
    const float g = node->grad().at(0, 0) / static_cast<float>(n);
    float* pg = pred->grad(sink).data();
    for (int64_t i = 0; i < n; ++i) {
      const float d = pred->value().data()[i] - tgt->data()[i];
      pg[i] += g * (d > 0.0f ? 1.0f : (d < 0.0f ? -1.0f : 0.0f));
    }
  });
}

}  // namespace ag

void Backward(const VarPtr& root, GradSink* sink) {
  RELGRAPH_CHECK(root->value().numel() == 1)
      << "Backward root must be scalar";
  // Topological order via iterative post-order DFS.
  std::vector<Var*> order;
  std::unordered_set<Var*> visited;
  std::vector<std::pair<Var*, size_t>> stack;
  stack.emplace_back(root.get(), 0);
  visited.insert(root.get());
  while (!stack.empty()) {
    auto& [node, child] = stack.back();
    if (child < node->parents_.size()) {
      Var* next = node->parents_[child].get();
      ++child;
      if (next->requires_grad() && !visited.count(next)) {
        visited.insert(next);
        stack.emplace_back(next, 0);
      }
    } else {
      order.push_back(node);
      stack.pop_back();
    }
  }
  root->grad().Fill(1.0f);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    if ((*it)->backward_fn_) (*it)->backward_fn_(sink);
  }
}

}  // namespace relgraph
