#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "nn/ops.h"
#include "nn/tensor.h"

namespace stpt::nn {
namespace {

/// Central-difference gradient check: builds requires-grad inputs with the
/// given shapes, evaluates `fn` (must reduce to a scalar), backprops, and
/// compares every input gradient coordinate against (f(x+h)-f(x-h))/2h.
void ExpectGradientsMatch(
    const std::function<Tensor(std::vector<Tensor>&)>& fn,
    const std::vector<std::vector<int>>& shapes, uint64_t seed,
    double tol = 1e-6, double h = 1e-5) {
  Rng rng(seed);
  std::vector<Tensor> inputs;
  for (const auto& s : shapes) inputs.push_back(Tensor::Randn(s, rng, 0.5, true));

  Tensor out = fn(inputs);
  ASSERT_EQ(out.numel(), 1u) << "gradient check requires scalar output";
  out.Backward();
  std::vector<std::vector<double>> analytic;
  for (auto& in : inputs) analytic.push_back(in.grad());

  for (size_t i = 0; i < inputs.size(); ++i) {
    for (size_t j = 0; j < inputs[i].numel(); ++j) {
      const double orig = inputs[i].data()[j];
      inputs[i].data()[j] = orig + h;
      const double fp = fn(inputs).item();
      inputs[i].data()[j] = orig - h;
      const double fm = fn(inputs).item();
      inputs[i].data()[j] = orig;
      const double numeric = (fp - fm) / (2.0 * h);
      EXPECT_NEAR(analytic[i][j], numeric, tol)
          << "input " << i << " coord " << j;
    }
  }
}

// --------------------------- Tensor basics ---------------------------

TEST(TensorTest, ZerosAndShape) {
  Tensor t = Tensor::Zeros({2, 3});
  EXPECT_EQ(t.rank(), 2);
  EXPECT_EQ(t.numel(), 6u);
  for (double v : t.data()) EXPECT_EQ(v, 0.0);
  EXPECT_FALSE(t.requires_grad());
}

TEST(TensorTest, FullAndFromVector) {
  Tensor f = Tensor::Full({2, 2}, 3.5);
  for (double v : f.data()) EXPECT_EQ(v, 3.5);
  Tensor v = Tensor::FromVector({3}, {1.0, 2.0, 3.0});
  EXPECT_EQ(v.data()[2], 3.0);
}

TEST(TensorTest, RandnIsSeeded) {
  Rng a(5), b(5);
  Tensor x = Tensor::Randn({4}, a, 1.0);
  Tensor y = Tensor::Randn({4}, b, 1.0);
  EXPECT_EQ(x.data(), y.data());
}

TEST(TensorTest, SharedStorageSemantics) {
  Tensor a = Tensor::Zeros({2});
  Tensor b = a;
  b.data()[0] = 7.0;
  EXPECT_EQ(a.data()[0], 7.0);
}

TEST(TensorTest, ItemOnScalar) {
  EXPECT_DOUBLE_EQ(Tensor::Full({1}, 2.5).item(), 2.5);
}

TEST(TensorTest, ZeroGradClears) {
  Tensor a = Tensor::Full({2}, 1.0, true);
  Tensor loss = SumAll(a);
  loss.Backward();
  EXPECT_EQ(a.grad()[0], 1.0);
  a.ZeroGrad();
  EXPECT_EQ(a.grad()[0], 0.0);
}

TEST(TensorTest, GradAccumulatesAcrossBackwardCalls) {
  Tensor a = Tensor::Full({2}, 1.0, true);
  SumAll(a).Backward();
  SumAll(a).Backward();
  EXPECT_EQ(a.grad()[0], 2.0);
}

// --------------------------- Forward values ---------------------------

TEST(OpsForwardTest, AddSameShape) {
  Tensor a = Tensor::FromVector({2}, {1.0, 2.0});
  Tensor b = Tensor::FromVector({2}, {10.0, 20.0});
  const Tensor c = Add(a, b);
  EXPECT_EQ(c.data()[0], 11.0);
  EXPECT_EQ(c.data()[1], 22.0);
}

TEST(OpsForwardTest, AddBiasBroadcast) {
  Tensor a = Tensor::FromVector({2, 2}, {1.0, 2.0, 3.0, 4.0});
  Tensor bias = Tensor::FromVector({2}, {10.0, 20.0});
  const Tensor c = Add(a, bias);
  EXPECT_EQ(c.data()[0], 11.0);
  EXPECT_EQ(c.data()[1], 22.0);
  EXPECT_EQ(c.data()[2], 13.0);
  EXPECT_EQ(c.data()[3], 24.0);
}

TEST(OpsForwardTest, MatMul2D) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromVector({3, 2}, {7, 8, 9, 10, 11, 12});
  const Tensor c = MatMul(a, b);
  EXPECT_EQ(c.shape(), (std::vector<int>{2, 2}));
  EXPECT_EQ(c.data()[0], 58.0);
  EXPECT_EQ(c.data()[1], 64.0);
  EXPECT_EQ(c.data()[2], 139.0);
  EXPECT_EQ(c.data()[3], 154.0);
}

TEST(OpsForwardTest, MatMulTransposeB) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor bt = Tensor::FromVector({2, 3}, {7, 9, 11, 8, 10, 12});
  const Tensor c = MatMul(a, bt, /*transpose_b=*/true);
  EXPECT_EQ(c.data()[0], 58.0);
  EXPECT_EQ(c.data()[3], 154.0);
}

TEST(OpsForwardTest, BatchedMatMul) {
  // Two batches of 1x2 times 2x1.
  Tensor a = Tensor::FromVector({2, 1, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::FromVector({2, 2, 1}, {5, 6, 7, 8});
  const Tensor c = MatMul(a, b);
  EXPECT_EQ(c.shape(), (std::vector<int>{2, 1, 1}));
  EXPECT_EQ(c.data()[0], 17.0);  // 1*5 + 2*6
  EXPECT_EQ(c.data()[1], 53.0);  // 3*7 + 4*8
}

TEST(OpsForwardTest, BatchedTimesSharedMatrix) {
  Tensor a = Tensor::FromVector({2, 1, 2}, {1, 2, 3, 4});
  Tensor w = Tensor::FromVector({2, 2}, {1, 0, 0, 1});  // identity
  const Tensor c = MatMul(a, w);
  EXPECT_EQ(c.shape(), (std::vector<int>{2, 1, 2}));
  EXPECT_EQ(c.data()[0], 1.0);
  EXPECT_EQ(c.data()[3], 4.0);
}

TEST(OpsForwardTest, SoftmaxRowsSumToOne) {
  Rng rng(9);
  Tensor a = Tensor::Randn({3, 5}, rng, 2.0);
  const Tensor s = Softmax(a);
  for (int r = 0; r < 3; ++r) {
    double sum = 0.0;
    for (int c = 0; c < 5; ++c) sum += s.data()[r * 5 + c];
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

TEST(OpsForwardTest, SoftmaxIsShiftInvariant) {
  Tensor a = Tensor::FromVector({1, 3}, {1.0, 2.0, 3.0});
  Tensor b = Tensor::FromVector({1, 3}, {101.0, 102.0, 103.0});
  const Tensor sa = Softmax(a);
  const Tensor sb = Softmax(b);
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(sa.data()[i], sb.data()[i], 1e-12);
}

TEST(OpsForwardTest, ActivationValues) {
  Tensor a = Tensor::FromVector({3}, {-1.0, 0.0, 2.0});
  EXPECT_NEAR(Sigmoid(a).data()[1], 0.5, 1e-12);
  EXPECT_NEAR(Tanh(a).data()[2], std::tanh(2.0), 1e-12);
  EXPECT_EQ(Relu(a).data()[0], 0.0);
  EXPECT_EQ(Relu(a).data()[2], 2.0);
}

TEST(OpsForwardTest, StackAndSliceRoundTrip) {
  Tensor s0 = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  Tensor s1 = Tensor::FromVector({2, 2}, {5, 6, 7, 8});
  const Tensor stacked = StackSeq({s0, s1});
  EXPECT_EQ(stacked.shape(), (std::vector<int>{2, 2, 2}));
  const Tensor back0 = SliceSeq(stacked, 0);
  const Tensor back1 = SliceSeq(stacked, 1);
  EXPECT_EQ(back0.data(), s0.data());
  EXPECT_EQ(back1.data(), s1.data());
}

TEST(OpsForwardTest, MeanSeqAveragesMiddleAxis) {
  Tensor a = Tensor::FromVector({1, 2, 2}, {1, 2, 3, 4});
  const Tensor m = MeanSeq(a);
  EXPECT_EQ(m.shape(), (std::vector<int>{1, 2}));
  EXPECT_EQ(m.data()[0], 2.0);
  EXPECT_EQ(m.data()[1], 3.0);
}

TEST(OpsForwardTest, SumMeanReshape) {
  Tensor a = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  EXPECT_EQ(SumAll(a).item(), 10.0);
  EXPECT_EQ(MeanAll(a).item(), 2.5);
  const Tensor r = Reshape(a, {4});
  EXPECT_EQ(r.shape(), (std::vector<int>{4}));
  EXPECT_EQ(r.data()[3], 4.0);
}

TEST(OpsForwardTest, LayerNormNormalisesRows) {
  Tensor a = Tensor::FromVector({1, 4}, {1.0, 2.0, 3.0, 4.0});
  Tensor gamma = Tensor::Full({4}, 1.0);
  Tensor beta = Tensor::Zeros({4});
  const Tensor n = LayerNorm(a, gamma, beta);
  double mean = 0.0, var = 0.0;
  for (int i = 0; i < 4; ++i) mean += n.data()[i];
  mean /= 4;
  for (int i = 0; i < 4; ++i) var += (n.data()[i] - mean) * (n.data()[i] - mean);
  var /= 4;
  EXPECT_NEAR(mean, 0.0, 1e-9);
  EXPECT_NEAR(var, 1.0, 1e-3);
}

TEST(OpsForwardTest, LossValues) {
  Tensor p = Tensor::FromVector({2}, {1.0, 3.0});
  Tensor y = Tensor::FromVector({2}, {0.0, 1.0});
  EXPECT_NEAR(MseLoss(p, y).item(), (1.0 + 4.0) / 2.0, 1e-12);
  EXPECT_NEAR(MaeLoss(p, y).item(), (1.0 + 2.0) / 2.0, 1e-12);
}

// --------------------------- Gradient checks ---------------------------

TEST(GradCheckTest, Add) {
  ExpectGradientsMatch(
      [](std::vector<Tensor>& in) { return SumAll(Mul(Add(in[0], in[1]), in[0])); },
      {{2, 3}, {2, 3}}, 11);
}

TEST(GradCheckTest, AddBroadcastBias) {
  ExpectGradientsMatch(
      [](std::vector<Tensor>& in) {
        return SumAll(Mul(Add(in[0], in[1]), Add(in[0], in[1])));
      },
      {{3, 4}, {4}}, 12);
}

TEST(GradCheckTest, SubScaleAddScalar) {
  ExpectGradientsMatch(
      [](std::vector<Tensor>& in) {
        return SumAll(AddScalar(Scale(Sub(in[0], in[1]), 2.5), 1.0));
      },
      {{2, 2}, {2, 2}}, 13);
}

TEST(GradCheckTest, MulBroadcast) {
  ExpectGradientsMatch(
      [](std::vector<Tensor>& in) { return SumAll(Mul(in[0], in[1])); },
      {{2, 3}, {3}}, 14);
}

TEST(GradCheckTest, MatMul2D) {
  ExpectGradientsMatch(
      [](std::vector<Tensor>& in) { return SumAll(MatMul(in[0], in[1])); },
      {{3, 4}, {4, 2}}, 15);
}

TEST(GradCheckTest, MatMulTransposeB) {
  ExpectGradientsMatch(
      [](std::vector<Tensor>& in) {
        return SumAll(MatMul(in[0], in[1], /*transpose_b=*/true));
      },
      {{3, 4}, {2, 4}}, 16);
}

TEST(GradCheckTest, BatchedMatMul) {
  ExpectGradientsMatch(
      [](std::vector<Tensor>& in) { return SumAll(MatMul(in[0], in[1])); },
      {{2, 3, 4}, {2, 4, 2}}, 17);
}

TEST(GradCheckTest, BatchedMatMulSharedB) {
  ExpectGradientsMatch(
      [](std::vector<Tensor>& in) { return SumAll(MatMul(in[0], in[1])); },
      {{2, 3, 4}, {4, 2}}, 18);
}

TEST(GradCheckTest, BatchedMatMulTransposeB) {
  ExpectGradientsMatch(
      [](std::vector<Tensor>& in) {
        return SumAll(MatMul(in[0], in[1], /*transpose_b=*/true));
      },
      {{2, 3, 4}, {2, 5, 4}}, 19);
}

TEST(GradCheckTest, Sigmoid) {
  ExpectGradientsMatch(
      [](std::vector<Tensor>& in) { return SumAll(Mul(Sigmoid(in[0]), in[0])); },
      {{3, 3}}, 20);
}

TEST(GradCheckTest, Tanh) {
  ExpectGradientsMatch(
      [](std::vector<Tensor>& in) { return SumAll(Mul(Tanh(in[0]), in[0])); },
      {{3, 3}}, 21);
}

TEST(GradCheckTest, Relu) {
  // Keep values away from the kink for a stable finite difference.
  ExpectGradientsMatch(
      [](std::vector<Tensor>& in) {
        return SumAll(Relu(AddScalar(in[0], 3.0)));
      },
      {{3, 3}}, 22);
}

TEST(GradCheckTest, SoftmaxWeighted) {
  ExpectGradientsMatch(
      [](std::vector<Tensor>& in) { return SumAll(Mul(Softmax(in[0]), in[1])); },
      {{2, 4}, {2, 4}}, 23);
}

TEST(GradCheckTest, LayerNorm) {
  ExpectGradientsMatch(
      [](std::vector<Tensor>& in) {
        return SumAll(Mul(LayerNorm(in[0], in[1], in[2]), in[0]));
      },
      {{2, 4}, {4}, {4}}, 24, /*tol=*/1e-5);
}

TEST(GradCheckTest, StackSlice) {
  ExpectGradientsMatch(
      [](std::vector<Tensor>& in) {
        const Tensor stacked = StackSeq({in[0], in[1]});
        return SumAll(Mul(SliceSeq(stacked, 0), SliceSeq(stacked, 1)));
      },
      {{2, 3}, {2, 3}}, 25);
}

TEST(GradCheckTest, MeanSeq) {
  ExpectGradientsMatch(
      [](std::vector<Tensor>& in) { return SumAll(Mul(MeanSeq(in[0]), in[1])); },
      {{2, 3, 4}, {2, 4}}, 26);
}

TEST(GradCheckTest, Reshape) {
  ExpectGradientsMatch(
      [](std::vector<Tensor>& in) {
        return SumAll(Mul(Reshape(in[0], {6}), Reshape(in[0], {6})));
      },
      {{2, 3}}, 27);
}

TEST(GradCheckTest, MseLoss) {
  ExpectGradientsMatch(
      [](std::vector<Tensor>& in) { return MseLoss(in[0], in[1]); },
      {{3, 2}, {3, 2}}, 28);
}

TEST(GradCheckTest, MaeLoss) {
  ExpectGradientsMatch(
      [](std::vector<Tensor>& in) { return MaeLoss(in[0], in[1]); },
      {{3, 2}, {3, 2}}, 29, /*tol=*/1e-5);
}

TEST(GradCheckTest, CompositeAttentionLikeExpression) {
  // scores = softmax(A B^T); out = sum(scores * C) — mimics the attention
  // data path through three ops at once.
  ExpectGradientsMatch(
      [](std::vector<Tensor>& in) {
        const Tensor scores = Softmax(MatMul(in[0], in[1], true));
        return SumAll(Mul(scores, in[2]));
      },
      {{2, 3}, {4, 3}, {2, 4}}, 30, /*tol=*/1e-5);
}

TEST(GradCheckTest, DiamondGraphReuse) {
  // The same tensor feeds two branches; gradients must accumulate.
  ExpectGradientsMatch(
      [](std::vector<Tensor>& in) {
        const Tensor s = Sigmoid(in[0]);
        return SumAll(Add(Mul(s, in[0]), Mul(s, s)));
      },
      {{2, 2}}, 31);
}

// --------------------------- Broadcast bytes ---------------------------

/// Each element's bit pattern, so that equality means equal bytes.
std::vector<uint64_t> Bits(const std::vector<double>& v) {
  std::vector<uint64_t> out(v.size());
  std::memcpy(out.data(), v.data(), v.size() * sizeof(double));
  return out;
}

enum class BroadcastOp { kAdd, kMul, kMulSelf };

/// Add or Mul of a [a_shape] tensor and a suffix-broadcast operand, forward
/// and backward, against reference loops that index the operand as
/// b[i % bn]: the bytes must be equal. kMulSelf is Mul(a, a), as MseLoss
/// squares its difference. Both leaves start with nonzero gradients, so the
/// backward also accumulates onto an earlier pass.
void ExpectBroadcastBytes(BroadcastOp op, const std::vector<int>& a_shape,
                          const std::vector<int>& b_shape, uint64_t seed) {
  SCOPED_TRACE("op " + std::to_string(static_cast<int>(op)) + " b rank " +
               std::to_string(b_shape.size()));
  Rng rng(seed);
  Tensor a = Tensor::Randn(a_shape, rng, 1.0, true);
  Tensor b = op == BroadcastOp::kMulSelf ? a : Tensor::Randn(b_shape, rng, 1.0, true);
  const Tensor upstream = Tensor::Randn(a_shape, rng, 1.0);
  for (double& g : a.grad()) g = rng.Gaussian(0.0, 1.0);
  for (double& g : b.grad()) g = rng.Gaussian(0.0, 1.0);

  const size_t n = a.numel();
  const size_t bn = b.numel();
  const std::vector<double>& ad = a.data();
  const std::vector<double>& bd = b.data();
  const std::vector<double>& u = upstream.data();
  std::vector<double> out(n);
  std::vector<double> ga = a.grad();
  std::vector<double> gb = b.grad();
  double* rga = ga.data();
  double* rgb = op == BroadcastOp::kMulSelf ? rga : gb.data();
  if (op == BroadcastOp::kAdd) {
    for (size_t i = 0; i < n; ++i) out[i] = ad[i] + bd[i % bn];
    for (size_t i = 0; i < n; ++i) rga[i] += u[i];
    for (size_t i = 0; i < n; ++i) rgb[i % bn] += u[i];
  } else {
    for (size_t i = 0; i < n; ++i) out[i] = ad[i] * bd[i % bn];
    for (size_t i = 0; i < n; ++i) {
      rga[i] += u[i] * bd[i % bn];
      rgb[i % bn] += u[i] * ad[i];
    }
  }

  const Tensor got = op == BroadcastOp::kAdd ? Add(a, b) : Mul(a, b);
  // d(sum(got * upstream))/d(got) is upstream itself.
  SumAll(Mul(got, upstream)).Backward();
  EXPECT_EQ(Bits(out), Bits(got.data()));
  EXPECT_EQ(Bits(ga), Bits(a.grad()));
  if (op != BroadcastOp::kMulSelf) {
    EXPECT_EQ(Bits(gb), Bits(b.grad()));
  }
}

TEST(BroadcastBytesTest, AddMatchesModuloReference) {
  // The bias ([d]), positional-encoding ([s, d]) and elementwise cases.
  ExpectBroadcastBytes(BroadcastOp::kAdd, {4, 6, 5}, {5}, 41);
  ExpectBroadcastBytes(BroadcastOp::kAdd, {4, 6, 5}, {6, 5}, 42);
  ExpectBroadcastBytes(BroadcastOp::kAdd, {4, 6, 5}, {4, 6, 5}, 43);
  ExpectBroadcastBytes(BroadcastOp::kAdd, {7, 3}, {3}, 44);
}

TEST(BroadcastBytesTest, MulMatchesModuloReference) {
  ExpectBroadcastBytes(BroadcastOp::kMul, {4, 6, 5}, {5}, 45);
  ExpectBroadcastBytes(BroadcastOp::kMul, {4, 6, 5}, {6, 5}, 46);
  ExpectBroadcastBytes(BroadcastOp::kMul, {4, 6, 5}, {4, 6, 5}, 47);
  ExpectBroadcastBytes(BroadcastOp::kMul, {7, 3}, {3}, 48);
}

TEST(BroadcastBytesTest, MulOfATensorWithItselfMatchesReference) {
  ExpectBroadcastBytes(BroadcastOp::kMulSelf, {4, 6, 5}, {4, 6, 5}, 49);
  ExpectBroadcastBytes(BroadcastOp::kMulSelf, {32, 1}, {32, 1}, 50);
}

}  // namespace
}  // namespace stpt::nn
