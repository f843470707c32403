#include "nn/layers.h"

#include <cassert>
#include <cmath>

namespace stpt::nn {
namespace {

/// Xavier/Glorot normal initialisation stddev for a [fan_in, fan_out] matrix.
double XavierStd(int fan_in, int fan_out) {
  return std::sqrt(2.0 / static_cast<double>(fan_in + fan_out));
}

}  // namespace

void Module::ZeroGrad() {
  for (Tensor& p : Parameters()) p.ZeroGrad();
}

Linear::Linear(int in_features, int out_features, Rng& rng)
    : in_(in_features),
      out_(out_features),
      weight_(Tensor::Randn({in_features, out_features}, rng,
                            XavierStd(in_features, out_features), true)),
      bias_(Tensor::Zeros({out_features}, true)) {}

Tensor Linear::Forward(const Tensor& x) { return Add(MatMul(x, weight_), bias_); }

std::vector<Tensor> Linear::Parameters() { return {weight_, bias_}; }

RnnCell::RnnCell(int input_size, int hidden_size, Rng& rng)
    : input_(input_size),
      hidden_(hidden_size),
      wx_(Tensor::Randn({input_size, hidden_size}, rng,
                        XavierStd(input_size, hidden_size), true)),
      wh_(Tensor::Randn({hidden_size, hidden_size}, rng,
                        XavierStd(hidden_size, hidden_size), true)),
      b_(Tensor::Zeros({hidden_size}, true)) {}

Tensor RnnCell::Forward(const Tensor& x, const Tensor& h) {
  return Tanh(Add(Add(MatMul(x, wx_), MatMul(h, wh_)), b_));
}

std::vector<Tensor> RnnCell::Parameters() { return {wx_, wh_, b_}; }

GruCell::GruCell(int input_size, int hidden_size, Rng& rng)
    : input_(input_size), hidden_(hidden_size) {
  const double sx = XavierStd(input_size, hidden_size);
  const double sh = XavierStd(hidden_size, hidden_size);
  auto mx = [&] { return Tensor::Randn({input_size, hidden_size}, rng, sx, true); };
  auto mh = [&] { return Tensor::Randn({hidden_size, hidden_size}, rng, sh, true); };
  auto bias = [&] { return Tensor::Zeros({hidden_size}, true); };
  wxz_ = mx(); whz_ = mh(); bz_ = bias();
  wxr_ = mx(); whr_ = mh(); br_ = bias();
  wxn_ = mx(); whn_ = mh(); bn_ = bias();
}

Tensor GruCell::Forward(const Tensor& x, const Tensor& h) {
  // x·wxz stays a node of its own: its backward then runs after every
  // step's, in forward time order, which is where the op-by-op tape added
  // wxz's gradient terms (DESIGN §17).
  return GruStep(MatMul(x, wxz_), x, h,
                 {whz_, bz_, wxr_, whr_, br_, wxn_, whn_, bn_});
}

std::vector<Tensor> GruCell::Parameters() {
  return {wxz_, whz_, bz_, wxr_, whr_, br_, wxn_, whn_, bn_};
}

LstmCell::LstmCell(int input_size, int hidden_size, Rng& rng)
    : input_(input_size), hidden_(hidden_size) {
  const double sx = XavierStd(input_size, hidden_size);
  const double sh = XavierStd(hidden_size, hidden_size);
  auto mx = [&] { return Tensor::Randn({input_size, hidden_size}, rng, sx, true); };
  auto mh = [&] { return Tensor::Randn({hidden_size, hidden_size}, rng, sh, true); };
  auto bias = [&] { return Tensor::Zeros({hidden_size}, true); };
  wxi_ = mx(); whi_ = mh(); bi_ = bias();
  wxf_ = mx(); whf_ = mh(); bf_ = bias();
  wxo_ = mx(); who_ = mh(); bo_ = bias();
  wxg_ = mx(); whg_ = mh(); bg_ = bias();
  // Standard trick: bias the forget gate open at initialisation.
  for (double& v : bf_.data()) v = 1.0;
}

LstmState LstmCell::Forward(const Tensor& x, const LstmState& state) {
  const Tensor i = Sigmoid(Add(Add(MatMul(x, wxi_), MatMul(state.h, whi_)), bi_));
  const Tensor f = Sigmoid(Add(Add(MatMul(x, wxf_), MatMul(state.h, whf_)), bf_));
  const Tensor o = Sigmoid(Add(Add(MatMul(x, wxo_), MatMul(state.h, who_)), bo_));
  const Tensor g = Tanh(Add(Add(MatMul(x, wxg_), MatMul(state.h, whg_)), bg_));
  const Tensor c = Add(Mul(f, state.c), Mul(i, g));
  const Tensor h = Mul(o, Tanh(c));
  return {h, c};
}

std::vector<Tensor> LstmCell::Parameters() {
  return {wxi_, whi_, bi_, wxf_, whf_, bf_, wxo_, who_, bo_, wxg_, whg_, bg_};
}

LstmState LstmCell::ZeroState(int batch) const {
  return {Tensor::Zeros({batch, hidden_}), Tensor::Zeros({batch, hidden_})};
}

SelfAttention::SelfAttention(int dim, Rng& rng)
    : dim_(dim),
      wq_(Tensor::Randn({dim, dim}, rng, XavierStd(dim, dim), true)),
      wk_(Tensor::Randn({dim, dim}, rng, XavierStd(dim, dim), true)),
      wv_(Tensor::Randn({dim, dim}, rng, XavierStd(dim, dim), true)) {}

Tensor SelfAttention::Forward(const Tensor& x) {
  // x: [b, s, d]
  const Tensor q = MatMul(x, wq_);
  const Tensor k = MatMul(x, wk_);
  const Tensor v = MatMul(x, wv_);
  const Tensor scores = Scale(MatMul(q, k, /*transpose_b=*/true),
                              1.0 / std::sqrt(static_cast<double>(dim_)));
  const Tensor attn = Softmax(scores);  // [b, s, s]
  return MatMul(attn, v);               // [b, s, d]
}

std::vector<Tensor> SelfAttention::Parameters() { return {wq_, wk_, wv_}; }

MultiHeadAttention::MultiHeadAttention(int dim, int heads, Rng& rng)
    : dim_(dim), heads_(heads), head_dim_(dim / heads) {
  assert(heads > 0 && dim % heads == 0 &&
         "MultiHeadAttention: dim must be divisible by heads");
  const double s = XavierStd(dim, head_dim_);
  for (int h = 0; h < heads; ++h) {
    wq_.push_back(Tensor::Randn({dim, head_dim_}, rng, s, true));
    wk_.push_back(Tensor::Randn({dim, head_dim_}, rng, s, true));
    wv_.push_back(Tensor::Randn({dim, head_dim_}, rng, s, true));
  }
  wo_ = Tensor::Randn({dim, dim}, rng, XavierStd(dim, dim), true);
}

Tensor MultiHeadAttention::Forward(const Tensor& x) {
  std::vector<Tensor> head_outputs;
  head_outputs.reserve(heads_);
  const double scale = 1.0 / std::sqrt(static_cast<double>(head_dim_));
  for (int h = 0; h < heads_; ++h) {
    const Tensor q = MatMul(x, wq_[h]);  // [b, s, head_dim]
    const Tensor k = MatMul(x, wk_[h]);
    const Tensor v = MatMul(x, wv_[h]);
    const Tensor attn = Softmax(Scale(MatMul(q, k, /*transpose_b=*/true), scale));
    head_outputs.push_back(MatMul(attn, v));
  }
  return MatMul(ConcatLastDim(head_outputs), wo_);  // [b, s, dim]
}

std::vector<Tensor> MultiHeadAttention::Parameters() {
  std::vector<Tensor> params;
  for (int h = 0; h < heads_; ++h) {
    params.push_back(wq_[h]);
    params.push_back(wk_[h]);
    params.push_back(wv_[h]);
  }
  params.push_back(wo_);
  return params;
}

TransformerEncoderLayer::TransformerEncoderLayer(int dim, int ff_dim, Rng& rng)
    : dim_(dim),
      attn_(dim, rng),
      ln1_gamma_(Tensor::Full({dim}, 1.0, true)),
      ln1_beta_(Tensor::Zeros({dim}, true)),
      ln2_gamma_(Tensor::Full({dim}, 1.0, true)),
      ln2_beta_(Tensor::Zeros({dim}, true)),
      ff1_(dim, ff_dim, rng),
      ff2_(ff_dim, dim, rng) {}

Tensor TransformerEncoderLayer::Forward(const Tensor& x) {
  const Tensor a = attn_.Forward(LayerNorm(x, ln1_gamma_, ln1_beta_));
  const Tensor h = Add(x, a);
  const Tensor f = ff2_.Forward(Relu(ff1_.Forward(LayerNorm(h, ln2_gamma_, ln2_beta_))));
  return Add(h, f);
}

std::vector<Tensor> TransformerEncoderLayer::Parameters() {
  std::vector<Tensor> params = attn_.Parameters();
  params.push_back(ln1_gamma_);
  params.push_back(ln1_beta_);
  params.push_back(ln2_gamma_);
  params.push_back(ln2_beta_);
  for (const Tensor& p : ff1_.Parameters()) params.push_back(p);
  for (const Tensor& p : ff2_.Parameters()) params.push_back(p);
  return params;
}

}  // namespace stpt::nn
