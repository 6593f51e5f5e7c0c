#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>

#include "core/parallel.h"
#include "core/rng.h"
#include "tensor/autograd.h"
#include "tensor/init.h"
#include "tensor/nn.h"
#include "tensor/optim.h"
#include "tensor/simd_kernels.h"
#include "tensor/tensor.h"

namespace relgraph {
namespace {

// ---------------------------------------------------------------- Tensor

TEST(TensorTest, ConstructionAndAccess) {
  Tensor t(2, 3);
  EXPECT_EQ(t.rows(), 2);
  EXPECT_EQ(t.cols(), 3);
  EXPECT_EQ(t.numel(), 6);
  t.at(1, 2) = 5.0f;
  EXPECT_FLOAT_EQ(t.at(1, 2), 5.0f);
  EXPECT_FLOAT_EQ(t.at(0, 0), 0.0f);
}

TEST(TensorTest, Factories) {
  EXPECT_FLOAT_EQ(Tensor::Ones(2, 2).Sum(), 4.0f);
  EXPECT_FLOAT_EQ(Tensor::Full(3, 1, 2.5f).Sum(), 7.5f);
  Tensor id = Tensor::Identity(3);
  EXPECT_FLOAT_EQ(id.Sum(), 3.0f);
  EXPECT_FLOAT_EQ(id.at(1, 1), 1.0f);
  EXPECT_FLOAT_EQ(id.at(0, 1), 0.0f);
  Tensor r = Tensor::Row({1, 2, 3});
  EXPECT_EQ(r.rows(), 1);
  EXPECT_EQ(r.cols(), 3);
  Tensor c = Tensor::Col({1, 2});
  EXPECT_EQ(c.rows(), 2);
  EXPECT_EQ(c.cols(), 1);
}

TEST(TensorTest, Reductions) {
  Tensor t(2, 2, {1, -2, 3, -4});
  EXPECT_FLOAT_EQ(t.Sum(), -2.0f);
  EXPECT_FLOAT_EQ(t.Mean(), -0.5f);
  EXPECT_FLOAT_EQ(t.AbsMax(), 4.0f);
  EXPECT_NEAR(t.Norm(), std::sqrt(30.0f), 1e-5);
}

TEST(TensorTest, MatMulCorrect) {
  Tensor a(2, 3, {1, 2, 3, 4, 5, 6});
  Tensor b(3, 2, {7, 8, 9, 10, 11, 12});
  Tensor c = MatMul(a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 58);
  EXPECT_FLOAT_EQ(c.at(0, 1), 64);
  EXPECT_FLOAT_EQ(c.at(1, 0), 139);
  EXPECT_FLOAT_EQ(c.at(1, 1), 154);
}

TEST(TensorTest, MatMulTransposedVariantsAgree) {
  Rng rng(5);
  Tensor a = NormalInit(4, 3, 1.0f, &rng);
  Tensor b = NormalInit(5, 3, 1.0f, &rng);
  Tensor ref = MatMul(a, b.Transposed());
  Tensor fast = MatMulBT(a, b);
  ASSERT_TRUE(ref.SameShape(fast));
  for (int64_t i = 0; i < ref.numel(); ++i) {
    EXPECT_NEAR(ref.data()[i], fast.data()[i], 1e-4);
  }
  Tensor c = NormalInit(3, 6, 1.0f, &rng);
  Tensor d = NormalInit(3, 2, 1.0f, &rng);
  Tensor ref2 = MatMul(c.Transposed(), d);
  Tensor fast2 = MatMulAT(c, d);
  for (int64_t i = 0; i < ref2.numel(); ++i) {
    EXPECT_NEAR(ref2.data()[i], fast2.data()[i], 1e-4);
  }
}

TEST(TensorTest, GatherRows) {
  Tensor t(3, 2, {1, 2, 3, 4, 5, 6});
  Tensor g = t.GatherRows({2, 0, 2});
  EXPECT_EQ(g.rows(), 3);
  EXPECT_FLOAT_EQ(g.at(0, 0), 5);
  EXPECT_FLOAT_EQ(g.at(1, 1), 2);
  EXPECT_FLOAT_EQ(g.at(2, 1), 6);
}

TEST(TensorTest, ElementwiseOps) {
  Tensor a(1, 3, {1, 2, 3});
  Tensor b(1, 3, {4, 5, 6});
  EXPECT_FLOAT_EQ(Add(a, b).at(0, 2), 9);
  EXPECT_FLOAT_EQ(Sub(a, b).at(0, 0), -3);
  EXPECT_FLOAT_EQ(Mul(a, b).at(0, 1), 10);
}

TEST(TensorTest, AddRowBroadcastAndSumRows) {
  Tensor m(2, 2, {1, 2, 3, 4});
  Tensor row(1, 2, {10, 20});
  Tensor out = AddRowBroadcast(m, row);
  EXPECT_FLOAT_EQ(out.at(1, 1), 24);
  Tensor s = SumRows(m);
  EXPECT_FLOAT_EQ(s.at(0, 0), 4);
  EXPECT_FLOAT_EQ(s.at(0, 1), 6);
}

TEST(TensorTest, SoftmaxRowsSumToOne) {
  Tensor logits(2, 3, {1, 2, 3, -1, 0, 100});
  Tensor p = SoftmaxRows(logits);
  for (int64_t r = 0; r < 2; ++r) {
    float s = 0;
    for (int64_t c = 0; c < 3; ++c) {
      s += p.at(r, c);
      EXPECT_GE(p.at(r, c), 0.0f);
    }
    EXPECT_NEAR(s, 1.0f, 1e-5);
  }
  // Large logit saturates without NaN.
  EXPECT_NEAR(p.at(1, 2), 1.0f, 1e-5);
}

// --------------------------------------------------- numerical grad check

/// Checks analytic gradients of `loss_fn(inputs)` against central finite
/// differences over every entry of every input.
void CheckGradients(
    std::vector<VarPtr> inputs,
    const std::function<VarPtr(const std::vector<VarPtr>&)>& loss_fn,
    float eps = 1e-2f, float tol = 2e-2f) {
  VarPtr loss = loss_fn(inputs);
  for (auto& in : inputs) in->ZeroGrad();
  Backward(loss);
  for (size_t vi = 0; vi < inputs.size(); ++vi) {
    VarPtr in = inputs[vi];
    for (int64_t i = 0; i < in->value().numel(); ++i) {
      const float orig = in->value().data()[i];
      in->mutable_value().data()[i] = orig + eps;
      const float up = loss_fn(inputs)->value().item();
      in->mutable_value().data()[i] = orig - eps;
      const float down = loss_fn(inputs)->value().item();
      in->mutable_value().data()[i] = orig;
      const float numeric = (up - down) / (2.0f * eps);
      const float analytic = in->grad().data()[i];
      EXPECT_NEAR(analytic, numeric,
                  tol * std::max(1.0f, std::fabs(numeric)))
          << "input " << vi << " element " << i;
    }
  }
}

Tensor RandT(int64_t r, int64_t c, uint64_t seed) {
  Rng rng(seed);
  return NormalInit(r, c, 1.0f, &rng);
}

TEST(AutogradTest, MatMulGradient) {
  auto a = ag::Param(RandT(3, 4, 1));
  auto b = ag::Param(RandT(4, 2, 2));
  CheckGradients({a, b}, [](const std::vector<VarPtr>& in) {
    return ag::Sum(ag::MatMul(in[0], in[1]));
  });
}

TEST(AutogradTest, AddSubMulGradient) {
  auto a = ag::Param(RandT(2, 3, 3));
  auto b = ag::Param(RandT(2, 3, 4));
  CheckGradients({a, b}, [](const std::vector<VarPtr>& in) {
    return ag::Sum(ag::Mul(ag::Add(in[0], in[1]), ag::Sub(in[0], in[1])));
  });
}

TEST(AutogradTest, BiasGradient) {
  auto x = ag::Param(RandT(4, 3, 5));
  auto b = ag::Param(RandT(1, 3, 6));
  CheckGradients({x, b}, [](const std::vector<VarPtr>& in) {
    return ag::Sum(ag::AddBias(in[0], in[1]));
  });
}

TEST(AutogradTest, ActivationGradients) {
  auto x = ag::Param(RandT(3, 3, 7));
  CheckGradients({x}, [](const std::vector<VarPtr>& in) {
    return ag::Sum(ag::Tanh(in[0]));
  });
  auto y = ag::Param(RandT(3, 3, 8));
  CheckGradients({y}, [](const std::vector<VarPtr>& in) {
    return ag::Sum(ag::Sigmoid(in[0]));
  });
  // ReLU checked away from the kink.
  auto z = ag::Param(Tensor(2, 2, {0.5f, -0.7f, 1.2f, -2.0f}));
  CheckGradients({z}, [](const std::vector<VarPtr>& in) {
    return ag::Sum(ag::Relu(in[0]));
  });
  auto w = ag::Param(Tensor(2, 2, {0.5f, -0.7f, 1.2f, -2.0f}));
  CheckGradients({w}, [](const std::vector<VarPtr>& in) {
    return ag::Sum(ag::LeakyRelu(in[0], 0.1f));
  });
}

TEST(AutogradTest, ConcatGradient) {
  auto a = ag::Param(RandT(2, 2, 9));
  auto b = ag::Param(RandT(2, 3, 10));
  CheckGradients({a, b}, [](const std::vector<VarPtr>& in) {
    auto cat = ag::ConcatCols({in[0], in[1]});
    return ag::Sum(ag::Mul(cat, cat));
  });
}

TEST(AutogradTest, GatherRowsGradientWithDuplicates) {
  auto a = ag::Param(RandT(4, 2, 11));
  CheckGradients({a}, [](const std::vector<VarPtr>& in) {
    auto g = ag::GatherRows(in[0], {0, 2, 0, 3});
    return ag::Sum(ag::Mul(g, g));
  });
}

TEST(AutogradTest, SegmentSumGradient) {
  auto a = ag::Param(RandT(5, 2, 12));
  CheckGradients({a}, [](const std::vector<VarPtr>& in) {
    auto s = ag::SegmentSum(in[0], {0, 1, 0, 2, 1}, 3);
    return ag::Sum(ag::Mul(s, s));
  });
}

TEST(AutogradTest, SegmentMeanGradient) {
  auto a = ag::Param(RandT(5, 2, 13));
  CheckGradients({a}, [](const std::vector<VarPtr>& in) {
    auto s = ag::SegmentMean(in[0], {0, 1, 0, 2, 1}, 3);
    return ag::Sum(ag::Mul(s, s));
  });
}

TEST(AutogradTest, SegmentMeanEmptySegmentIsZero) {
  auto a = ag::Constant(Tensor(2, 1, {3.0f, 5.0f}));
  auto s = ag::SegmentMean(a, {0, 2}, 4);
  EXPECT_FLOAT_EQ(s->value().at(0, 0), 3.0f);
  EXPECT_FLOAT_EQ(s->value().at(1, 0), 0.0f);
  EXPECT_FLOAT_EQ(s->value().at(2, 0), 5.0f);
  EXPECT_FLOAT_EQ(s->value().at(3, 0), 0.0f);
}

TEST(AutogradTest, SegmentMaxForwardAndGradient) {
  auto a = ag::Constant(Tensor(4, 1, {1.0f, 7.0f, 3.0f, -2.0f}));
  auto s = ag::SegmentMax(a, {0, 0, 1, 1}, 2);
  EXPECT_FLOAT_EQ(s->value().at(0, 0), 7.0f);
  EXPECT_FLOAT_EQ(s->value().at(1, 0), 3.0f);

  auto p = ag::Param(Tensor(4, 1, {1.0f, 7.0f, 3.0f, -2.0f}));
  auto loss = ag::Sum(ag::SegmentMax(p, {0, 0, 1, 1}, 2));
  Backward(loss);
  EXPECT_FLOAT_EQ(p->grad().at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(p->grad().at(1, 0), 1.0f);
  EXPECT_FLOAT_EQ(p->grad().at(2, 0), 1.0f);
  EXPECT_FLOAT_EQ(p->grad().at(3, 0), 0.0f);
}

TEST(AutogradTest, RowwiseDotGradient) {
  auto a = ag::Param(RandT(3, 4, 14));
  auto b = ag::Param(RandT(3, 4, 15));
  CheckGradients({a, b}, [](const std::vector<VarPtr>& in) {
    return ag::Sum(ag::RowwiseDot(in[0], in[1]));
  });
}

TEST(AutogradTest, SoftmaxCrossEntropyGradient) {
  auto logits = ag::Param(RandT(4, 3, 16));
  std::vector<int64_t> labels = {0, 2, 1, 2};
  CheckGradients({logits}, [&labels](const std::vector<VarPtr>& in) {
    return ag::SoftmaxCrossEntropy(in[0], labels);
  });
}

TEST(AutogradTest, SoftmaxCrossEntropyValue) {
  // Uniform logits over k classes -> loss = log k.
  auto logits = ag::Constant(Tensor::Zeros(2, 4));
  auto loss = ag::SoftmaxCrossEntropy(logits, {1, 3});
  EXPECT_NEAR(loss->value().item(), std::log(4.0f), 1e-5);
}

TEST(AutogradTest, BceWithLogitsGradient) {
  auto logits = ag::Param(RandT(5, 1, 17));
  Tensor targets(5, 1, {1, 0, 1, 1, 0});
  CheckGradients({logits}, [&targets](const std::vector<VarPtr>& in) {
    return ag::BinaryCrossEntropyWithLogits(in[0], targets);
  });
}

TEST(AutogradTest, BceWithLogitsStableForExtremeLogits) {
  auto logits = ag::Constant(Tensor(2, 1, {100.0f, -100.0f}));
  Tensor targets(2, 1, {1.0f, 0.0f});
  auto loss = ag::BinaryCrossEntropyWithLogits(logits, targets);
  EXPECT_NEAR(loss->value().item(), 0.0f, 1e-5);
  EXPECT_FALSE(std::isnan(loss->value().item()));
}

TEST(AutogradTest, MseAndL1Gradient) {
  auto pred = ag::Param(RandT(4, 1, 18));
  Tensor targets(4, 1, {0.5f, -1.0f, 2.0f, 0.0f});
  CheckGradients({pred}, [&targets](const std::vector<VarPtr>& in) {
    return ag::MseLoss(in[0], targets);
  });
  auto pred2 = ag::Param(RandT(4, 1, 19));
  CheckGradients({pred2}, [&targets](const std::vector<VarPtr>& in) {
    return ag::L1Loss(in[0], targets);
  });
}

TEST(AutogradTest, GradAccumulatesAcrossSharedUse) {
  // y = x + x => dy/dx = 2.
  auto x = ag::Param(Tensor::Ones(2, 2));
  auto loss = ag::Sum(ag::Add(x, x));
  Backward(loss);
  for (int64_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(x->grad().data()[i], 2.0f);
}

// ------------------------------------------------------- gradient sinks

/// Trainable leaves of SinkTape, with fixed seeded values.
std::vector<VarPtr> SinkParams() {
  return {ag::Param(RandT(4, 3, 60)), ag::Param(RandT(1, 3, 61)),
          ag::Param(RandT(1, 3, 62)), ag::Param(RandT(1, 3, 63)),
          ag::Param(RandT(3, 1, 64)), ag::Param(RandT(5, 3, 65))};
}

/// A scalar loss over `p` and input `x` (5x4) that routes gradients into
/// the parameters through every closure shape: GEMM, broadcast, layer
/// norm, row/column products, gathers, segment ops and a loss.
VarPtr SinkTape(const std::vector<VarPtr>& p, const Tensor& x) {
  VarPtr in = ag::Constant(x);
  VarPtr h = ag::Tanh(ag::AddBias(ag::MatMul(in, p[0]), p[1]));
  h = ag::LayerNorm(h, p[2], p[3]);
  h = ag::Add(ag::Mul(h, p[5]), ag::Div(p[5], ag::Exp(h)));
  VarPtr col = ag::Sigmoid(ag::MatMul(h, p[4]));
  h = ag::MulColBroadcast(ag::Relu(h), col);
  VarPtr dots = ag::RowwiseDot(h, ag::GatherRows(p[5], {4, 3, 2, 1, 0}));
  VarPtr att = ag::SegmentSoftmax(dots, {0, 0, 1, 1, 1}, 2);
  VarPtr pooled = ag::SegmentMean(ag::MulColBroadcast(h, att),
                                  {0, 0, 1, 1, 1}, 2);
  Tensor targets(2, 1, {1.0f, 0.0f});
  return ag::Add(ag::BinaryCrossEntropyWithLogits(
                     ag::MatMul(pooled, p[4]), targets),
                 ag::Scale(ag::Mean(ag::SliceRows(p[5], 1, 2)), 0.5f));
}

void ExpectSameBits(const Tensor& got, const Tensor& want) {
  ASSERT_TRUE(got.SameShape(want));
  EXPECT_EQ(std::memcmp(got.data(), want.data(),
                        static_cast<size_t>(want.numel()) * sizeof(float)),
            0);
}

TEST(AutogradTest, BackwardIntoSinkMatchesDefaultAndLeavesGradUntouched) {
  const Tensor x = RandT(5, 4, 66);
  const std::vector<VarPtr> by_default = SinkParams();
  Backward(SinkTape(by_default, x));

  const std::vector<VarPtr> by_sink = SinkParams();
  GradSink sink;
  Backward(SinkTape(by_sink, x), &sink);
  for (size_t i = 0; i < by_sink.size(); ++i) {
    EXPECT_FALSE(by_sink[i]->has_grad()) << "param " << i;
    ExpectSameBits(sink.For(by_sink[i].get()), by_default[i]->grad());
  }

  // AddTo hands the sink's buffers to the parameters' own gradients.
  sink.AddTo(by_sink);
  for (size_t i = 0; i < by_sink.size(); ++i) {
    ExpectSameBits(by_sink[i]->grad(), by_default[i]->grad());
  }
}

TEST(AutogradTest, ConcurrentTapesBackwardIntoSeparateSinks) {
  const int threads_before = NumThreads();
  ThreadPool::SetNumThreadsForTesting(4);
  const std::vector<VarPtr> params = SinkParams();
  constexpr int kTapes = 8;
  std::vector<Tensor> inputs;
  for (int t = 0; t < kTapes; ++t) inputs.push_back(RandT(5, 4, 70 + t));

  // Reference: each tape alone, through the default sink.
  std::vector<std::vector<Tensor>> want(kTapes);
  for (int t = 0; t < kTapes; ++t) {
    for (const VarPtr& p : params) p->ZeroGrad();
    Backward(SinkTape(params, inputs[static_cast<size_t>(t)]));
    for (const VarPtr& p : params) {
      want[static_cast<size_t>(t)].push_back(p->grad());
    }
  }
  for (const VarPtr& p : params) p->ZeroGrad();

  std::vector<GradSink> sinks(kTapes);
  ThreadPool::Global().ParallelChunks(kTapes, [&](int64_t t) {
    Backward(SinkTape(params, inputs[static_cast<size_t>(t)]),
             &sinks[static_cast<size_t>(t)]);
  });
  for (int t = 0; t < kTapes; ++t) {
    for (size_t i = 0; i < params.size(); ++i) {
      ExpectSameBits(sinks[static_cast<size_t>(t)].For(params[i].get()),
                     want[static_cast<size_t>(t)][i]);
    }
  }
  for (const VarPtr& p : params) {
    EXPECT_EQ(p->grad().AbsMax(), 0.0f) << "a sink run wrote grad()";
  }
  ThreadPool::SetNumThreadsForTesting(threads_before);
}

TEST(AutogradTest, ConstantsGetNoGrad) {
  auto c = ag::Constant(Tensor::Ones(2, 2));
  auto x = ag::Param(Tensor::Ones(2, 2));
  auto loss = ag::Sum(ag::Mul(c, x));
  Backward(loss);
  EXPECT_FALSE(c->requires_grad());
  EXPECT_TRUE(x->requires_grad());
}

TEST(AutogradTest, DropoutTrainFalseIsIdentity) {
  Rng rng(20);
  auto x = ag::Param(RandT(3, 3, 21));
  auto y = ag::Dropout(x, 0.5f, &rng, false);
  EXPECT_EQ(y.get(), x.get());
}

TEST(AutogradTest, DropoutPreservesExpectation) {
  Rng rng(22);
  auto x = ag::Constant(Tensor::Ones(100, 100));
  auto y = ag::Dropout(x, 0.3f, &rng, true);
  EXPECT_NEAR(y->value().Mean(), 1.0f, 0.05f);
}

TEST(AutogradTest, ScaleAndMeanGradient) {
  auto x = ag::Param(RandT(3, 2, 23));
  CheckGradients({x}, [](const std::vector<VarPtr>& in) {
    return ag::Mean(ag::Scale(in[0], 3.0f));
  });
}

TEST(AutogradTest, ExpGradient) {
  auto x = ag::Param(RandT(3, 2, 24));
  CheckGradients({x}, [](const std::vector<VarPtr>& in) {
    return ag::Sum(ag::Exp(in[0]));
  });
}

TEST(AutogradTest, DivGradient) {
  auto a = ag::Param(RandT(3, 2, 25));
  // Keep denominators away from zero.
  Tensor bt = RandT(3, 2, 26);
  for (int64_t i = 0; i < bt.numel(); ++i) {
    bt.data()[i] = 2.0f + std::fabs(bt.data()[i]);
  }
  auto b = ag::Param(bt);
  CheckGradients({a, b}, [](const std::vector<VarPtr>& in) {
    return ag::Sum(ag::Div(in[0], in[1]));
  });
}

TEST(AutogradTest, MulColBroadcastGradient) {
  auto a = ag::Param(RandT(4, 3, 27));
  auto w = ag::Param(RandT(4, 1, 28));
  CheckGradients({a, w}, [](const std::vector<VarPtr>& in) {
    return ag::Sum(ag::MulColBroadcast(in[0], in[1]));
  });
}

TEST(AutogradTest, SegmentSoftmaxSumsToOnePerSegment) {
  auto s = ag::Constant(Tensor(5, 1, {1.0f, 3.0f, -2.0f, 0.5f, 100.0f}));
  auto w = ag::SegmentSoftmax(s, {0, 0, 1, 1, 2}, 3);
  EXPECT_NEAR(w->value().at(0, 0) + w->value().at(1, 0), 1.0f, 1e-5);
  EXPECT_NEAR(w->value().at(2, 0) + w->value().at(3, 0), 1.0f, 1e-5);
  EXPECT_NEAR(w->value().at(4, 0), 1.0f, 1e-5);  // singleton, stable
  for (int64_t i = 0; i < 5; ++i) EXPECT_GT(w->value().at(i, 0), 0.0f);
}

TEST(AutogradTest, SegmentSoftmaxGradient) {
  auto s = ag::Param(RandT(6, 1, 29));
  std::vector<int64_t> ids = {0, 1, 0, 2, 1, 0};
  CheckGradients({s}, [&ids](const std::vector<VarPtr>& in) {
    auto w = ag::SegmentSoftmax(in[0], ids, 3);
    // Weighted sum against fixed coefficients so the gradient is nonzero.
    auto coef = ag::Constant(Tensor(6, 1, {1, -2, 3, 0.5f, -1, 2}));
    return ag::Sum(ag::Mul(w, coef));
  });
}

TEST(AutogradTest, LayerNormNormalizesRows) {
  auto x = ag::Constant(Tensor(2, 4, {1, 2, 3, 4, -10, 0, 10, 20}));
  auto gain = ag::Constant(Tensor::Ones(1, 4));
  auto bias = ag::Constant(Tensor::Zeros(1, 4));
  auto y = ag::LayerNorm(x, gain, bias);
  for (int64_t r = 0; r < 2; ++r) {
    double mean = 0, var = 0;
    for (int64_t c = 0; c < 4; ++c) mean += y->value().at(r, c);
    mean /= 4.0;
    for (int64_t c = 0; c < 4; ++c) {
      var += (y->value().at(r, c) - mean) * (y->value().at(r, c) - mean);
    }
    var /= 4.0;
    EXPECT_NEAR(mean, 0.0, 1e-5);
    EXPECT_NEAR(var, 1.0, 1e-3);
  }
}

TEST(AutogradTest, LayerNormGradient) {
  auto x = ag::Param(RandT(3, 4, 60));
  auto gain = ag::Param(RandT(1, 4, 61));
  auto bias = ag::Param(RandT(1, 4, 62));
  CheckGradients({x, gain, bias}, [](const std::vector<VarPtr>& in) {
    auto y = ag::LayerNorm(in[0], in[1], in[2]);
    auto coef = ag::Constant(Tensor(3, 4, {1, -2, 0.5f, 3, -1, 2, 0.7f,
                                           -0.3f, 1.5f, -2.5f, 0.2f, 1}));
    return ag::Sum(ag::Mul(y, coef));
  });
}

TEST(NnTest, LayerNormModule) {
  LayerNorm ln(5);
  EXPECT_EQ(ln.NumParameters(), 10);
  auto x = ag::Constant(Tensor(2, 5, {1, 2, 3, 4, 5, 0, 0, 1, 0, 0}));
  auto y = ln.Forward(x);
  EXPECT_EQ(y->rows(), 2);
  EXPECT_EQ(y->cols(), 5);
  // Default gain=1, bias=0: row mean ~ 0.
  double mean = 0;
  for (int64_t c = 0; c < 5; ++c) mean += y->value().at(0, c);
  EXPECT_NEAR(mean / 5.0, 0.0, 1e-5);
}

// ---------------------------------------------------------------- Modules

TEST(NnTest, LinearShapesAndParamCount) {
  Rng rng(30);
  Linear lin(4, 3, &rng);
  EXPECT_EQ(lin.NumParameters(), 4 * 3 + 3);
  auto x = ag::Constant(Tensor::Ones(5, 4));
  auto y = lin.Forward(x);
  EXPECT_EQ(y->rows(), 5);
  EXPECT_EQ(y->cols(), 3);
}

TEST(NnTest, LinearNoBias) {
  Rng rng(31);
  Linear lin(4, 3, &rng, /*bias=*/false);
  EXPECT_EQ(lin.NumParameters(), 12);
  EXPECT_EQ(lin.Parameters().size(), 1u);
}

TEST(NnTest, EmbeddingLookup) {
  Rng rng(32);
  Embedding emb(10, 4, &rng);
  auto out = emb.Forward({3, 3, 7});
  EXPECT_EQ(out->rows(), 3);
  EXPECT_EQ(out->cols(), 4);
  for (int64_t c = 0; c < 4; ++c) {
    EXPECT_FLOAT_EQ(out->value().at(0, c), out->value().at(1, c));
  }
}

TEST(NnTest, MlpForwardShape) {
  Rng rng(33);
  Mlp mlp({6, 8, 8, 2}, &rng);
  auto x = ag::Constant(Tensor::Ones(3, 6));
  auto y = mlp.Forward(x);
  EXPECT_EQ(y->rows(), 3);
  EXPECT_EQ(y->cols(), 2);
  EXPECT_EQ(mlp.Parameters().size(), 6u);
}

// ------------------------------------------------------------- Optimizers

TEST(OptimTest, SgdReducesQuadratic) {
  // Minimize ||w - t||^2.
  auto w = ag::Param(Tensor::Full(1, 3, 5.0f));
  Tensor target(1, 3, {1.0f, -2.0f, 0.5f});
  Sgd opt({w}, 0.1f);
  float first_loss = 0, last_loss = 0;
  for (int step = 0; step < 100; ++step) {
    opt.ZeroGrad();
    auto loss = ag::MseLoss(w, target);
    Backward(loss);
    opt.Step();
    if (step == 0) first_loss = loss->value().item();
    last_loss = loss->value().item();
  }
  EXPECT_LT(last_loss, first_loss * 1e-3f);
  EXPECT_NEAR(w->value().at(0, 1), -2.0f, 1e-2f);
}

TEST(OptimTest, SgdMomentumConvergesFaster) {
  auto run = [](float momentum) {
    auto w = ag::Param(Tensor::Full(1, 4, 3.0f));
    Tensor target = Tensor::Zeros(1, 4);
    Sgd opt({w}, 0.02f, momentum);
    float loss_v = 0;
    for (int step = 0; step < 50; ++step) {
      opt.ZeroGrad();
      auto loss = ag::MseLoss(w, target);
      Backward(loss);
      opt.Step();
      loss_v = loss->value().item();
    }
    return loss_v;
  };
  EXPECT_LT(run(0.9f), run(0.0f));
}

TEST(OptimTest, AdamSolvesLogisticRegression) {
  // Separable 2-D data; Adam-trained logistic regression should fit it.
  Rng rng(40);
  const int n = 200;
  Tensor x(n, 2);
  Tensor y(n, 1);
  for (int i = 0; i < n; ++i) {
    const bool pos = i % 2 == 0;
    x.at(i, 0) = static_cast<float>(rng.Normal(pos ? 2.0 : -2.0, 0.5));
    x.at(i, 1) = static_cast<float>(rng.Normal(pos ? -1.0 : 1.0, 0.5));
    y.at(i, 0) = pos ? 1.0f : 0.0f;
  }
  Linear lin(2, 1, &rng);
  Adam opt(lin.Parameters(), 0.05f);
  auto xv = ag::Constant(x);
  float loss_v = 1e9f;
  for (int epoch = 0; epoch < 200; ++epoch) {
    opt.ZeroGrad();
    auto loss = ag::BinaryCrossEntropyWithLogits(lin.Forward(xv), y);
    Backward(loss);
    opt.Step();
    loss_v = loss->value().item();
  }
  EXPECT_LT(loss_v, 0.05f);
}

TEST(OptimTest, WeightDecayShrinksWeights) {
  auto w = ag::Param(Tensor::Full(1, 2, 1.0f));
  // No data gradient at all: loss grad is zero, only decay acts.
  Adam opt({w}, 0.1f, 0.9f, 0.999f, 1e-8f, /*weight_decay=*/0.1f);
  for (int i = 0; i < 20; ++i) {
    opt.ZeroGrad();
    w->grad();  // ensure allocated zeros
    opt.Step();
  }
  EXPECT_LT(w->value().AbsMax(), 1.0f);
}

TEST(OptimTest, ClipGradNorm) {
  auto w = ag::Param(Tensor::Full(1, 4, 0.0f));
  Sgd opt({w}, 0.1f);
  w->grad().Fill(10.0f);  // norm = 20
  float pre = opt.ClipGradNorm(1.0f);
  EXPECT_NEAR(pre, 20.0f, 1e-4);
  float post = 0;
  for (int64_t i = 0; i < 4; ++i) {
    post += w->grad().data()[i] * w->grad().data()[i];
  }
  EXPECT_NEAR(std::sqrt(post), 1.0f, 1e-4);
}

// ---------------------------------------------------------------- Init

TEST(InitTest, GlorotBoundsRespected) {
  Rng rng(50);
  Tensor w = GlorotUniform(100, 50, &rng);
  const float limit = std::sqrt(6.0f / 150.0f);
  EXPECT_LE(w.AbsMax(), limit + 1e-6f);
  EXPECT_GT(w.AbsMax(), limit * 0.5f);
  EXPECT_NEAR(w.Mean(), 0.0f, 0.01f);
}

TEST(InitTest, HeNormalVariance) {
  Rng rng(51);
  Tensor w = HeNormal(200, 100, &rng);
  double var = 0;
  for (int64_t i = 0; i < w.numel(); ++i) {
    var += static_cast<double>(w.data()[i]) * w.data()[i];
  }
  var /= w.numel();
  EXPECT_NEAR(var, 2.0 / 200.0, 2.0 / 200.0 * 0.15);
}

// -------------------------------------------------- SIMD microkernel parity
//
// Both kernel builds (AVX2 and the portable scalar twin) must match plain
// reference loops bit for bit — these tests pin the documented contracts at
// widths that exercise the vector remainder paths (n % 8 != 0, n % 16 != 0).

std::vector<float> RandVec(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(static_cast<size_t>(n));
  for (auto& x : v) x = static_cast<float>(rng.Normal(0, 1));
  return v;
}

TEST(KernelTest, ElementwiseKernelsMatchPlainLoopsAtOddWidths) {
  for (const int64_t n : {1, 3, 7, 8, 9, 16, 31, 33, 100, 257}) {
    const std::vector<float> a = RandVec(n, 60);
    const std::vector<float> b = RandVec(n, 61);
    std::vector<float> got(a), want(a);
    kern::AddInto(got.data(), b.data(), n);
    for (int64_t i = 0; i < n; ++i) want[i] += b[i];
    EXPECT_EQ(std::memcmp(got.data(), want.data(), n * sizeof(float)), 0)
        << "AddInto n=" << n;

    kern::SubOut(got.data(), a.data(), b.data(), n);
    for (int64_t i = 0; i < n; ++i) want[i] = a[i] - b[i];
    EXPECT_EQ(std::memcmp(got.data(), want.data(), n * sizeof(float)), 0)
        << "SubOut n=" << n;

    kern::MulOut(got.data(), a.data(), b.data(), n);
    for (int64_t i = 0; i < n; ++i) want[i] = a[i] * b[i];
    EXPECT_EQ(std::memcmp(got.data(), want.data(), n * sizeof(float)), 0)
        << "MulOut n=" << n;

    got = a;
    want = a;
    kern::ScaleInPlace(got.data(), 1.7f, n);
    for (int64_t i = 0; i < n; ++i) want[i] *= 1.7f;
    EXPECT_EQ(std::memcmp(got.data(), want.data(), n * sizeof(float)), 0)
        << "ScaleInPlace n=" << n;

    got = a;
    want = a;
    kern::AxpyInto(got.data(), b.data(), -0.3f, n);
    for (int64_t i = 0; i < n; ++i) want[i] += -0.3f * b[i];
    EXPECT_EQ(std::memcmp(got.data(), want.data(), n * sizeof(float)), 0)
        << "AxpyInto n=" << n;

    kern::ReluOut(got.data(), a.data(), n);
    for (int64_t i = 0; i < n; ++i) want[i] = std::max(0.0f, a[i]);
    EXPECT_EQ(std::memcmp(got.data(), want.data(), n * sizeof(float)), 0)
        << "ReluOut n=" << n;

    got = b;
    want = b;
    kern::ReluGradAccum(got.data(), b.data(), a.data(), n);
    for (int64_t i = 0; i < n; ++i) want[i] += (a[i] > 0.0f) ? b[i] : 0.0f;
    EXPECT_EQ(std::memcmp(got.data(), want.data(), n * sizeof(float)), 0)
        << "ReluGradAccum n=" << n;
  }
}

TEST(KernelTest, ReluOutMapsNanToZero) {
  const float x[3] = {std::nanf(""), -1.0f, 2.0f};
  float o[3] = {9, 9, 9};
  kern::ReluOut(o, x, 3);
  EXPECT_EQ(o[0], 0.0f);
  EXPECT_EQ(o[1], 0.0f);
  EXPECT_EQ(o[2], 2.0f);
}

TEST(KernelTest, LaneDotMatchesDocumentedContract) {
  for (const int64_t k : {0, 1, 5, 7, 8, 9, 16, 23, 64, 100}) {
    const std::vector<float> a = RandVec(k, 70);
    const std::vector<float> b = RandVec(k, 71);
    // The contract spelled out longhand: lane l accumulates elements 8t+l,
    // lanes combine in the fixed tree, tail folds in ascending order.
    float lane[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    const int64_t k8 = k - (k % 8);
    for (int64_t t = 0; t < k8; t += 8) {
      for (int l = 0; l < 8; ++l) lane[l] += a[t + l] * b[t + l];
    }
    float want = ((lane[0] + lane[4]) + (lane[2] + lane[6])) +
                 ((lane[1] + lane[5]) + (lane[3] + lane[7]));
    for (int64_t i = k8; i < k; ++i) want += a[i] * b[i];
    const float got = kern::LaneDot(a.data(), b.data(), k);
    EXPECT_EQ(std::memcmp(&got, &want, sizeof(float)), 0) << "k=" << k;
  }
}

TEST(KernelTest, MatMulBTOutputsAreLaneDots) {
  const Tensor a = RandT(7, 23, 72);
  const Tensor bt = RandT(5, 23, 73);
  const Tensor o = MatMulBT(a, bt);
  for (int64_t i = 0; i < 7; ++i) {
    for (int64_t j = 0; j < 5; ++j) {
      const float want =
          kern::LaneDot(a.data() + i * 23, bt.data() + j * 23, 23);
      EXPECT_EQ(o.at(i, j), want) << "i=" << i << " j=" << j;
    }
  }
}

TEST(KernelTest, MatMulPackedBitEqualsMatMul) {
  // Shapes with full panels, one partial panel, and sub-panel widths.
  const int64_t shapes[][3] = {
      {1, 1, 1}, {3, 5, 7}, {17, 33, 9}, {32, 64, 40}, {5, 8, 16}, {6, 10, 47}};
  for (const auto& s : shapes) {
    const Tensor a = RandT(s[0], s[1], 80);
    const Tensor b = RandT(s[1], s[2], 81);
    const Tensor want = MatMul(a, b);
    const PackedMatrix packed = PackForMatMul(b);
    const Tensor got = MatMulPacked(a, packed);
    ASSERT_EQ(got.rows(), want.rows());
    ASSERT_EQ(got.cols(), want.cols());
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          static_cast<size_t>(want.numel()) * sizeof(float)),
              0)
        << s[0] << "x" << s[1] << "x" << s[2];
  }
}

TEST(KernelTest, SoftmaxRowsMatchesExpRefReference) {
  const Tensor x = RandT(9, 37, 82);
  const Tensor got = SoftmaxRows(x);
  for (int64_t i = 0; i < x.rows(); ++i) {
    const float* row = x.data() + i * x.cols();
    const float m = kern::RowMax(row, x.cols());
    std::vector<float> e(static_cast<size_t>(x.cols()));
    double denom = 0.0;
    for (int64_t j = 0; j < x.cols(); ++j) {
      e[static_cast<size_t>(j)] = kern::ExpRef(row[j] - m);
      denom += static_cast<double>(e[static_cast<size_t>(j)]);
    }
    const float inv = static_cast<float>(1.0 / denom);
    for (int64_t j = 0; j < x.cols(); ++j) {
      const float want = e[static_cast<size_t>(j)] * inv;
      EXPECT_EQ(got.at(i, j), want) << "row " << i << " col " << j;
    }
  }
}

// ------------------------------------------------------- SliceRows views

TEST(SliceRowsTest, ViewIsZeroCopyIntoParentStorage) {
  auto a = ag::Param(RandT(6, 4, 90));
  auto s = ag::SliceRows(a, 2, 3);
  EXPECT_EQ(s->rows(), 3);
  EXPECT_EQ(s->cols(), 4);
  EXPECT_TRUE(s->value().is_view());
  EXPECT_EQ(s->value().data(), a->value().data() + 2 * 4);
}

TEST(SliceRowsTest, FullRangeReturnsParentNode) {
  auto a = ag::Param(RandT(4, 3, 91));
  auto s = ag::SliceRows(a, 0, 4);
  EXPECT_EQ(s.get(), a.get());
}

TEST(SliceRowsTest, ViewSurvivesParentScopeExit) {
  // The tape edge (wired even without grad) must keep the parent's storage
  // alive after the caller's handle to it goes away.
  VarPtr s;
  Tensor expected(1, 1);
  {
    Tensor t = RandT(5, 3, 92);
    expected = Tensor(1, 1);
    expected.at(0, 0) = t.at(2, 1);
    s = ag::SliceRows(ag::Constant(std::move(t)), 2, 2);
  }
  EXPECT_EQ(s->value().at(0, 1), expected.at(0, 0));
}

TEST(SliceRowsTest, BackwardScattersIntoParentRowsLikeGatherRows) {
  const Tensor weights = RandT(3, 4, 93);
  auto slice_parent = ag::Param(RandT(7, 4, 94));
  auto gather_parent = ag::Param(slice_parent->value());

  auto loss_a =
      ag::Sum(ag::Mul(ag::SliceRows(slice_parent, 2, 3), ag::Constant(weights)));
  Backward(loss_a);
  auto loss_b = ag::Sum(
      ag::Mul(ag::GatherRows(gather_parent, {2, 3, 4}), ag::Constant(weights)));
  Backward(loss_b);

  ASSERT_TRUE(slice_parent->value().SameShape(gather_parent->value()));
  EXPECT_EQ(std::memcmp(slice_parent->grad().data(),
                        gather_parent->grad().data(),
                        static_cast<size_t>(7 * 4) * sizeof(float)),
            0);
  // Rows outside the slice get exactly zero gradient.
  for (int64_t j = 0; j < 4; ++j) {
    EXPECT_EQ(slice_parent->grad().at(0, j), 0.0f);
    EXPECT_EQ(slice_parent->grad().at(6, j), 0.0f);
  }
}

TEST(SliceRowsTest, GradientMatchesFiniteDifferences) {
  auto a = ag::Param(RandT(5, 2, 95));
  CheckGradients({a}, [](const std::vector<VarPtr>& in) {
    auto s = ag::SliceRows(in[0], 1, 3);
    return ag::Sum(ag::Mul(s, s));
  });
}

TEST(AutogradTest, SegmentMeanEmptySegmentBackward) {
  auto a = ag::Param(Tensor(2, 1, {3.0f, 5.0f}));
  auto loss = ag::Sum(ag::SegmentMean(a, {0, 2}, 4));
  Backward(loss);
  // Each input is the sole member of its segment: d(mean)/dx = 1, and the
  // empty segments contribute nothing (no NaN from 0/0).
  EXPECT_FLOAT_EQ(a->grad().at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(a->grad().at(1, 0), 1.0f);
}

// ------------------------------------------------- packed-weight autograd

TEST(AutogradTest, MatMulPackedGradientsBitEqualMatMul) {
  auto x1 = ag::Param(RandT(6, 5, 96));
  auto w1 = ag::Param(RandT(5, 3, 97));
  auto x2 = ag::Param(x1->value());
  auto w2 = ag::Param(w1->value());

  auto packed = std::make_shared<const PackedMatrix>(PackForMatMul(w1->value()));
  auto loss1 = ag::Sum(ag::MatMulPacked(x1, packed, w1));
  Backward(loss1);
  auto loss2 = ag::Sum(ag::MatMul(x2, w2));
  Backward(loss2);

  EXPECT_EQ(loss1->value().item(), loss2->value().item());
  EXPECT_EQ(std::memcmp(x1->grad().data(), x2->grad().data(),
                        static_cast<size_t>(x1->value().numel()) *
                            sizeof(float)),
            0);
  EXPECT_EQ(std::memcmp(w1->grad().data(), w2->grad().data(),
                        static_cast<size_t>(w1->value().numel()) *
                            sizeof(float)),
            0);
}

TEST(NnTest, LinearRepacksAfterWeightUpdate) {
  Rng rng(98);
  Linear lin(4, 3, &rng);
  const Tensor x = RandT(2, 4, 99);

  auto y1 = lin.Forward(ag::Constant(x));
  Tensor want1 = MatMul(x, lin.weight()->value());
  // Packed forward must agree with the unpacked product (plus bias).
  for (int64_t i = 0; i < 2; ++i) {
    for (int64_t j = 0; j < 3; ++j) {
      EXPECT_EQ(y1->value().at(i, j),
                want1.at(i, j) + lin.bias()->value().at(0, j));
    }
  }

  // An optimizer-style in-place update must invalidate the pack cache.
  lin.weight()->mutable_value().Scale(0.5f);
  auto y2 = lin.Forward(ag::Constant(x));
  Tensor want2 = MatMul(x, lin.weight()->value());
  for (int64_t i = 0; i < 2; ++i) {
    for (int64_t j = 0; j < 3; ++j) {
      EXPECT_EQ(y2->value().at(i, j),
                want2.at(i, j) + lin.bias()->value().at(0, j));
    }
  }
}

}  // namespace
}  // namespace relgraph
