#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "kernels/backend.h"
#include "nn/layers.h"
#include "nn/optimizer.h"
#include "nn/predictor.h"

namespace stpt::nn {
namespace {

/// Finite-difference check over a module's parameters for a scalar loss fn.
void CheckModuleGradients(Module& module, const std::function<Tensor()>& loss_fn,
                          double tol = 1e-5, double h = 1e-5) {
  auto params = module.Parameters();
  for (Tensor& p : params) p.ZeroGrad();
  Tensor loss = loss_fn();
  loss.Backward();
  std::vector<std::vector<double>> analytic;
  for (Tensor& p : params) analytic.push_back(p.grad());

  for (size_t i = 0; i < params.size(); ++i) {
    // Spot-check a few coordinates per parameter to keep runtime sane.
    const size_t stride = std::max<size_t>(1, params[i].numel() / 7);
    for (size_t j = 0; j < params[i].numel(); j += stride) {
      const double orig = params[i].data()[j];
      params[i].data()[j] = orig + h;
      const double fp = loss_fn().item();
      params[i].data()[j] = orig - h;
      const double fm = loss_fn().item();
      params[i].data()[j] = orig;
      EXPECT_NEAR(analytic[i][j], (fp - fm) / (2.0 * h), tol)
          << "param " << i << " coord " << j;
    }
  }
}

// --------------------------- Linear ---------------------------

TEST(LinearTest, OutputShape2DAnd3D) {
  Rng rng(1);
  Linear lin(3, 5, rng);
  EXPECT_EQ(lin.Forward(Tensor::Zeros({4, 3})).shape(), (std::vector<int>{4, 5}));
  EXPECT_EQ(lin.Forward(Tensor::Zeros({2, 6, 3})).shape(),
            (std::vector<int>{2, 6, 5}));
}

TEST(LinearTest, ZeroInputYieldsBias) {
  Rng rng(2);
  Linear lin(3, 2, rng);
  const Tensor out = lin.Forward(Tensor::Zeros({1, 3}));
  // Bias initialises to zero.
  EXPECT_EQ(out.data()[0], 0.0);
  EXPECT_EQ(out.data()[1], 0.0);
}

TEST(LinearTest, GradientsMatchFiniteDifference) {
  Rng rng(3);
  Linear lin(3, 2, rng);
  const Tensor x = Tensor::Randn({4, 3}, rng, 1.0);
  const Tensor y = Tensor::Randn({4, 2}, rng, 1.0);
  CheckModuleGradients(lin, [&] { return MseLoss(lin.Forward(x), y); });
}

TEST(LinearTest, ParameterCount) {
  Rng rng(4);
  Linear lin(7, 3, rng);
  auto params = lin.Parameters();
  ASSERT_EQ(params.size(), 2u);
  EXPECT_EQ(params[0].numel(), 21u);
  EXPECT_EQ(params[1].numel(), 3u);
}

// --------------------------- Cells ---------------------------

TEST(RnnCellTest, OutputBoundedByTanh) {
  Rng rng(5);
  RnnCell cell(3, 4, rng);
  const Tensor h =
      cell.Forward(Tensor::Randn({2, 3}, rng, 3.0), Tensor::Randn({2, 4}, rng, 3.0));
  for (double v : h.data()) {
    EXPECT_GE(v, -1.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(RnnCellTest, GradientsMatchFiniteDifference) {
  Rng rng(6);
  RnnCell cell(2, 3, rng);
  const Tensor x = Tensor::Randn({2, 2}, rng, 1.0);
  const Tensor h0 = Tensor::Randn({2, 3}, rng, 1.0);
  const Tensor y = Tensor::Randn({2, 3}, rng, 1.0);
  CheckModuleGradients(cell, [&] { return MseLoss(cell.Forward(x, h0), y); });
}

TEST(GruCellTest, ZeroUpdateGatePreservesState) {
  // With all-zero input and a candidate forced near zero by huge negative
  // update-gate bias, h' should approach h.
  Rng rng(7);
  GruCell cell(2, 3, rng);
  // Bias the update gate to 1 (z ~= 1) so h' ~= h.
  auto params = cell.Parameters();  // wxz, whz, bz, ...
  for (double& v : params[2].data()) v = 50.0;
  const Tensor h0 = Tensor::Randn({1, 3}, rng, 1.0);
  const Tensor h1 = cell.Forward(Tensor::Zeros({1, 2}), h0);
  for (size_t i = 0; i < 3; ++i) EXPECT_NEAR(h1.data()[i], h0.data()[i], 1e-6);
}

TEST(GruCellTest, GradientsMatchFiniteDifference) {
  Rng rng(8);
  GruCell cell(2, 3, rng);
  const Tensor x = Tensor::Randn({2, 2}, rng, 1.0);
  const Tensor h0 = Tensor::Randn({2, 3}, rng, 1.0);
  const Tensor y = Tensor::Randn({2, 3}, rng, 1.0);
  CheckModuleGradients(cell, [&] { return MseLoss(cell.Forward(x, h0), y); });
}

TEST(GruCellTest, MultiStepGradients) {
  Rng rng(9);
  GruCell cell(2, 3, rng);
  const Tensor x0 = Tensor::Randn({1, 2}, rng, 1.0);
  const Tensor x1 = Tensor::Randn({1, 2}, rng, 1.0);
  const Tensor y = Tensor::Randn({1, 3}, rng, 1.0);
  CheckModuleGradients(cell, [&] {
    Tensor h = Tensor::Zeros({1, 3});
    h = cell.Forward(x0, h);
    h = cell.Forward(x1, h);
    return MseLoss(h, y);
  });
}

// The GRU step as a chain of primitive ops, over GruCell's parameters in
// Parameters() order: the oracle GruCell's one-node step must match bit for
// bit.
Tensor OpByOpGruStep(const std::vector<Tensor>& p, const Tensor& x,
                     const Tensor& h) {
  const Tensor &wxz = p[0], &whz = p[1], &bz = p[2];
  const Tensor &wxr = p[3], &whr = p[4], &br = p[5];
  const Tensor &wxn = p[6], &whn = p[7], &bn = p[8];
  const Tensor z = Sigmoid(Add(Add(MatMul(x, wxz), MatMul(h, whz)), bz));
  const Tensor r = Sigmoid(Add(Add(MatMul(x, wxr), MatMul(h, whr)), br));
  const Tensor n = Tanh(Add(Add(MatMul(x, wxn), MatMul(Mul(r, h), whn)), bn));
  // h' = (1 - z) * n + z * h
  const Tensor one_minus_z = AddScalar(Scale(z, -1.0), 1.0);
  return Add(Mul(one_minus_z, n), Mul(z, h));
}

std::vector<uint64_t> Bits(const std::vector<double>& v) {
  std::vector<uint64_t> out(v.size());
  std::memcpy(out.data(), v.data(), v.size() * sizeof(double));
  return out;
}

struct GruRun {
  std::vector<uint64_t> output;
  std::vector<std::vector<uint64_t>> grads;  // cell params, head, input, h0
};

// GruCell against the op-by-op oracle over every SliceSeq step of a
// [b, s, in] leaf, through a Linear head, MseLoss and Backward(): the
// output and every gradient must have equal bytes. Finite differences
// cannot see a change in the order in which the tape sums a gradient;
// this can. Runs under every registered backend, and once more with the
// head's weight zeroed: every GRU gradient is then zero, and the step's
// backward meets zeros of both signs.
TEST(GruCellTest, MatchesOpByOpOracleBitForBit) {
  struct Shape {
    int batch, in, hidden;
  };
  const kernels::Backend* before = kernels::Default();
  for (const std::string& name : kernels::Registry::Names()) {
    auto backend = kernels::Registry::Create(name);
    ASSERT_TRUE(backend.ok()) << name;
    kernels::SetDefault(*backend);
    for (const Shape shape : {Shape{3, 5, 7}, Shape{32, 32, 32}}) {
      for (const int steps : {1, 2, 6}) {
        for (const bool zero_head : {false, true}) {
          SCOPED_TRACE(name + " b=" + std::to_string(shape.batch) +
                       " in=" + std::to_string(shape.in) +
                       " hidden=" + std::to_string(shape.hidden) +
                       " s=" + std::to_string(steps) +
                       " zero_head=" + std::to_string(zero_head));
          Rng rng(100 + steps);
          GruCell cell(shape.in, shape.hidden, rng);
          Linear head(shape.hidden, 1, rng);
          std::vector<Tensor> params = cell.Parameters();
          // Nonzero biases, so that every broadcast term carries bits.
          for (Tensor& p : params) {
            for (double& v : p.data()) v = rng.Gaussian(0.0, 0.5);
          }
          if (zero_head) {
            for (double& v : head.Parameters()[0].data()) v = 0.0;
          }
          const Tensor input =
              Tensor::Randn({shape.batch, steps, shape.in}, rng, 1.0, true);
          const Tensor h0 =
              Tensor::Randn({shape.batch, shape.hidden}, rng, 1.0, true);
          const Tensor target = Tensor::Randn({shape.batch, 1}, rng, 1.0);
          std::vector<Tensor> leaves = params;
          for (const Tensor& p : head.Parameters()) leaves.push_back(p);
          leaves.push_back(input);
          leaves.push_back(h0);

          const auto run = [&](bool oracle) {
            for (Tensor& t : leaves) t.ZeroGrad();
            Tensor h = h0;
            for (int t = 0; t < steps; ++t) {
              const Tensor xt = SliceSeq(input, t);
              h = oracle ? OpByOpGruStep(params, xt, h) : cell.Forward(xt, h);
            }
            Tensor loss = MseLoss(head.Forward(h), target);
            loss.Backward();
            GruRun out;
            out.output = Bits(h.data());
            out.output.push_back(Bits(loss.data())[0]);
            for (const Tensor& t : leaves) out.grads.push_back(Bits(t.grad()));
            return out;
          };
          const GruRun want = run(/*oracle=*/true);
          const GruRun got = run(/*oracle=*/false);
          EXPECT_EQ(want.output, got.output);
          ASSERT_EQ(want.grads.size(), got.grads.size());
          for (size_t i = 0; i < want.grads.size(); ++i) {
            EXPECT_EQ(want.grads[i], got.grads[i]) << "leaf " << i;
          }
        }
      }
    }
  }
  kernels::SetDefault(before);
}

TEST(LstmCellTest, ZeroStateHelper) {
  Rng rng(10);
  LstmCell cell(2, 4, rng);
  const LstmState s = cell.ZeroState(3);
  EXPECT_EQ(s.h.shape(), (std::vector<int>{3, 4}));
  EXPECT_EQ(s.c.shape(), (std::vector<int>{3, 4}));
}

TEST(LstmCellTest, GradientsMatchFiniteDifference) {
  Rng rng(11);
  LstmCell cell(2, 3, rng);
  const Tensor x = Tensor::Randn({2, 2}, rng, 1.0);
  const Tensor y = Tensor::Randn({2, 3}, rng, 1.0);
  CheckModuleGradients(cell, [&] {
    return MseLoss(cell.Forward(x, cell.ZeroState(2)).h, y);
  });
}

// --------------------------- Attention / Transformer ---------------------------

TEST(SelfAttentionTest, PreservesShape) {
  Rng rng(12);
  SelfAttention attn(4, rng);
  const Tensor x = Tensor::Randn({2, 5, 4}, rng, 1.0);
  EXPECT_EQ(attn.Forward(x).shape(), x.shape());
}

TEST(SelfAttentionTest, GradientsMatchFiniteDifference) {
  Rng rng(13);
  SelfAttention attn(3, rng);
  const Tensor x = Tensor::Randn({2, 4, 3}, rng, 1.0);
  const Tensor y = Tensor::Randn({2, 4, 3}, rng, 1.0);
  CheckModuleGradients(attn, [&] { return MseLoss(attn.Forward(x), y); },
                       /*tol=*/1e-4);
}

TEST(TransformerEncoderLayerTest, PreservesShape) {
  Rng rng(14);
  TransformerEncoderLayer enc(4, 8, rng);
  const Tensor x = Tensor::Randn({2, 5, 4}, rng, 1.0);
  EXPECT_EQ(enc.Forward(x).shape(), x.shape());
}

TEST(TransformerEncoderLayerTest, GradientsMatchFiniteDifference) {
  Rng rng(15);
  TransformerEncoderLayer enc(3, 6, rng);
  const Tensor x = Tensor::Randn({1, 3, 3}, rng, 1.0);
  const Tensor y = Tensor::Randn({1, 3, 3}, rng, 1.0);
  CheckModuleGradients(enc, [&] { return MseLoss(enc.Forward(x), y); },
                       /*tol=*/1e-4);
}

// --------------------------- Optimizers ---------------------------

TEST(OptimizerTest, SgdMinimisesQuadratic) {
  Tensor w = Tensor::Full({1}, 5.0, true);
  Sgd opt({w}, 0.1);
  for (int i = 0; i < 200; ++i) {
    opt.ZeroGrad();
    Tensor loss = MseLoss(w, Tensor::Full({1}, 2.0));
    loss.Backward();
    opt.Step();
  }
  EXPECT_NEAR(w.data()[0], 2.0, 1e-4);
}

TEST(OptimizerTest, SgdMomentumAcceleratesOverPlain) {
  auto run = [](double momentum) {
    Tensor w = Tensor::Full({1}, 5.0, true);
    Sgd opt({w}, 0.01, momentum);
    for (int i = 0; i < 50; ++i) {
      opt.ZeroGrad();
      Tensor loss = MseLoss(w, Tensor::Full({1}, 0.0));
      loss.Backward();
      opt.Step();
    }
    return std::fabs(w.data()[0]);
  };
  EXPECT_LT(run(0.9), run(0.0));
}

TEST(OptimizerTest, RmsPropMinimisesQuadratic) {
  Tensor w = Tensor::Full({1}, 5.0, true);
  RmsProp opt({w}, 0.05);
  for (int i = 0; i < 500; ++i) {
    opt.ZeroGrad();
    Tensor loss = MseLoss(w, Tensor::Full({1}, -1.0));
    loss.Backward();
    opt.Step();
  }
  EXPECT_NEAR(w.data()[0], -1.0, 0.05);
}

TEST(OptimizerTest, AdamMinimisesQuadratic) {
  Tensor w = Tensor::Full({1}, 5.0, true);
  Adam opt({w}, 0.1);
  for (int i = 0; i < 500; ++i) {
    opt.ZeroGrad();
    Tensor loss = MseLoss(w, Tensor::Full({1}, 3.0));
    loss.Backward();
    opt.Step();
  }
  EXPECT_NEAR(w.data()[0], 3.0, 0.05);
}

TEST(OptimizerTest, ClipGradNormBoundsAndReports) {
  Tensor w = Tensor::FromVector({2}, {0.0, 0.0}, true);
  Sgd opt({w}, 0.1);
  w.grad()[0] = 3.0;
  w.grad()[1] = 4.0;  // norm 5
  const double norm = opt.ClipGradNorm(1.0);
  EXPECT_NEAR(norm, 5.0, 1e-12);
  EXPECT_NEAR(w.grad()[0], 0.6, 1e-12);
  EXPECT_NEAR(w.grad()[1], 0.8, 1e-12);
  // Under the limit: untouched.
  const double norm2 = opt.ClipGradNorm(10.0);
  EXPECT_NEAR(norm2, 1.0, 1e-12);
  EXPECT_NEAR(w.grad()[0], 0.6, 1e-12);
}

// --------------------------- Predictor / training ---------------------------

TEST(WindowDatasetTest, SweepsWithoutStraddlingSeries) {
  const std::vector<std::vector<double>> series = {
      {1, 2, 3, 4, 5},  // 2 windows of size 3
      {9, 8, 7},        // 0 windows (too short for ws+1 = 4)
      {1, 1, 1, 1},     // 1 window
  };
  const WindowDataset ds = MakeWindows(series, 3);
  ASSERT_EQ(ds.size(), 3u);
  EXPECT_EQ(ds.inputs[0], (std::vector<double>{1, 2, 3}));
  EXPECT_EQ(ds.targets[0], 4.0);
  EXPECT_EQ(ds.inputs[1], (std::vector<double>{2, 3, 4}));
  EXPECT_EQ(ds.targets[1], 5.0);
  EXPECT_EQ(ds.targets[2], 1.0);
}

TEST(WindowDatasetTest, EmptyForAllShortSeries) {
  EXPECT_EQ(MakeWindows({{1, 2}}, 6).size(), 0u);
}

TEST(TrainPredictorTest, RejectsEmptyDataset) {
  Rng rng(16);
  PredictorConfig cfg;
  cfg.window_size = 3;
  cfg.embedding_size = 4;
  cfg.hidden_size = 4;
  auto pred = SequencePredictor::Create(ModelKind::kGru, cfg, rng);
  WindowDataset empty;
  EXPECT_FALSE(TrainPredictor(pred.get(), empty, {}, rng).ok());
}

TEST(TrainPredictorTest, RejectsWindowMismatch) {
  Rng rng(17);
  PredictorConfig cfg;
  cfg.window_size = 3;
  cfg.embedding_size = 4;
  cfg.hidden_size = 4;
  auto pred = SequencePredictor::Create(ModelKind::kGru, cfg, rng);
  WindowDataset ds;
  ds.inputs = {{1.0, 2.0}};  // wrong length
  ds.targets = {3.0};
  EXPECT_FALSE(TrainPredictor(pred.get(), ds, {}, rng).ok());
}

class PredictorKindTest : public ::testing::TestWithParam<ModelKind> {};

TEST_P(PredictorKindTest, OutputShapeIsBatchByOne) {
  Rng rng(18);
  PredictorConfig cfg;
  cfg.window_size = 4;
  cfg.embedding_size = 6;
  cfg.hidden_size = 5;
  cfg.ff_size = 8;
  auto pred = SequencePredictor::Create(GetParam(), cfg, rng);
  const Tensor out = pred->Forward(Tensor::Zeros({3, 4, 1}));
  EXPECT_EQ(out.shape(), (std::vector<int>{3, 1}));
}

TEST_P(PredictorKindTest, LearnsConstantSeries) {
  Rng rng(19);
  PredictorConfig cfg;
  cfg.window_size = 4;
  cfg.embedding_size = 8;
  cfg.hidden_size = 8;
  cfg.ff_size = 16;
  auto pred = SequencePredictor::Create(GetParam(), cfg, rng);
  // Constant series 0.6: the model must learn to predict 0.6.
  const WindowDataset ds = MakeWindows({std::vector<double>(30, 0.6)}, 4);
  TrainConfig tc;
  tc.epochs = 60;
  tc.batch_size = 8;
  tc.learning_rate = 5e-3;
  auto stats = TrainPredictor(pred.get(), ds, tc, rng);
  ASSERT_TRUE(stats.ok());
  const std::vector<double> out =
      PredictBatch(pred.get(), {std::vector<double>(4, 0.6)});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_NEAR(out[0], 0.6, 0.08);
}

TEST_P(PredictorKindTest, TrainingReducesLoss) {
  Rng rng(20);
  PredictorConfig cfg;
  cfg.window_size = 4;
  cfg.embedding_size = 8;
  cfg.hidden_size = 8;
  cfg.ff_size = 16;
  auto pred = SequencePredictor::Create(GetParam(), cfg, rng);
  // Noiseless sine: learnable temporal pattern.
  std::vector<double> sine(60);
  for (size_t i = 0; i < sine.size(); ++i) {
    sine[i] = 0.5 + 0.4 * std::sin(static_cast<double>(i) * 0.4);
  }
  const WindowDataset ds = MakeWindows({sine}, 4);
  TrainConfig tc;
  tc.epochs = 40;
  tc.batch_size = 8;
  tc.learning_rate = 3e-3;
  auto stats = TrainPredictor(pred.get(), ds, tc, rng);
  ASSERT_TRUE(stats.ok());
  EXPECT_LT(stats->epoch_losses.back(), stats->epoch_losses.front());
}

INSTANTIATE_TEST_SUITE_P(Models, PredictorKindTest,
                         ::testing::Values(ModelKind::kRnn, ModelKind::kGru,
                                           ModelKind::kTransformer),
                         [](const ::testing::TestParamInfo<ModelKind>& info) {
                           return ModelKindToString(info.param);
                         });

TEST(PredictBatchTest, EmptyInputGivesEmptyOutput) {
  Rng rng(21);
  PredictorConfig cfg;
  cfg.window_size = 3;
  cfg.embedding_size = 4;
  cfg.hidden_size = 4;
  auto pred = SequencePredictor::Create(ModelKind::kGru, cfg, rng);
  EXPECT_TRUE(PredictBatch(pred.get(), {}).empty());
}

TEST(PredictBatchTest, ChunkingMatchesSingleCalls) {
  Rng rng(22);
  PredictorConfig cfg;
  cfg.window_size = 3;
  cfg.embedding_size = 4;
  cfg.hidden_size = 4;
  auto pred = SequencePredictor::Create(ModelKind::kGru, cfg, rng);
  std::vector<std::vector<double>> windows;
  Rng data_rng(23);
  for (int i = 0; i < 300; ++i) {
    windows.push_back({data_rng.NextDouble(), data_rng.NextDouble(),
                       data_rng.NextDouble()});
  }
  const std::vector<double> batched = PredictBatch(pred.get(), windows);
  ASSERT_EQ(batched.size(), windows.size());
  for (size_t i = 0; i < windows.size(); i += 37) {
    const std::vector<double> single = PredictBatch(pred.get(), {windows[i]});
    EXPECT_NEAR(batched[i], single[0], 1e-9);
  }
}

TEST(ModelKindTest, Names) {
  EXPECT_STREQ(ModelKindToString(ModelKind::kRnn), "RNN");
  EXPECT_STREQ(ModelKindToString(ModelKind::kGru), "GRU");
  EXPECT_STREQ(ModelKindToString(ModelKind::kTransformer), "Transformer");
}

}  // namespace
}  // namespace stpt::nn
