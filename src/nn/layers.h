#ifndef STPT_NN_LAYERS_H_
#define STPT_NN_LAYERS_H_

#include <vector>

#include "common/rng.h"
#include "nn/ops.h"
#include "nn/tensor.h"

namespace stpt::nn {

/// Base for parameterised modules; exposes trainable tensors for optimizers.
class Module {
 public:
  virtual ~Module() = default;

  /// All trainable parameters of the module (and submodules).
  virtual std::vector<Tensor> Parameters() = 0;

  /// Zeroes gradients of every parameter.
  void ZeroGrad();
};

/// Fully connected layer: y = x W + b.
/// Accepts inputs [batch, in] or [batch, seq, in] (weight shared over seq).
class Linear : public Module {
 public:
  /// Xavier/Glorot-initialised linear layer.
  Linear(int in_features, int out_features, Rng& rng);

  Tensor Forward(const Tensor& x);
  std::vector<Tensor> Parameters() override;

  int in_features() const { return in_; }
  int out_features() const { return out_; }

 private:
  int in_, out_;
  Tensor weight_;  // [in, out]
  Tensor bias_;    // [out]
};

/// Vanilla (Elman) RNN cell: h' = tanh(x W + h U + b).
class RnnCell : public Module {
 public:
  RnnCell(int input_size, int hidden_size, Rng& rng);

  /// One step: x [batch, input], h [batch, hidden] -> h' [batch, hidden].
  Tensor Forward(const Tensor& x, const Tensor& h);
  std::vector<Tensor> Parameters() override;

  int hidden_size() const { return hidden_; }

 private:
  int input_, hidden_;
  Tensor wx_, wh_, b_;
};

/// Gated recurrent unit cell (Cho et al., 2014). Each step is two tape
/// nodes: MatMul(x, wxz) and a GruStep (ops.h) for the rest.
class GruCell : public Module {
 public:
  GruCell(int input_size, int hidden_size, Rng& rng);

  /// One step: x [batch, input], h [batch, hidden] -> h' [batch, hidden].
  Tensor Forward(const Tensor& x, const Tensor& h);
  std::vector<Tensor> Parameters() override;

  int hidden_size() const { return hidden_; }

 private:
  int input_, hidden_;
  Tensor wxz_, whz_, bz_;  // update gate
  Tensor wxr_, whr_, br_;  // reset gate
  Tensor wxn_, whn_, bn_;  // candidate
};

/// LSTM cell state: hidden h and cell c.
struct LstmState {
  Tensor h;
  Tensor c;
};

/// Long short-term memory cell (used by the LGAN-DP baseline).
class LstmCell : public Module {
 public:
  LstmCell(int input_size, int hidden_size, Rng& rng);

  /// One step: x [batch, input] + state -> new state.
  LstmState Forward(const Tensor& x, const LstmState& state);
  std::vector<Tensor> Parameters() override;

  int hidden_size() const { return hidden_; }

  /// Returns a zero state for the given batch size.
  LstmState ZeroState(int batch) const;

 private:
  int input_, hidden_;
  Tensor wxi_, whi_, bi_;  // input gate
  Tensor wxf_, whf_, bf_;  // forget gate
  Tensor wxo_, who_, bo_;  // output gate
  Tensor wxg_, whg_, bg_;  // candidate
};

/// Single-head scaled dot-product self-attention over a sequence
/// [batch, seq, dim] -> [batch, seq, dim].
class SelfAttention : public Module {
 public:
  SelfAttention(int dim, Rng& rng);

  Tensor Forward(const Tensor& x);
  std::vector<Tensor> Parameters() override;

 private:
  int dim_;
  Tensor wq_, wk_, wv_;  // [dim, dim]
};

/// Multi-head scaled dot-product self-attention: `heads` independent
/// single-head attentions over dim/heads-sized projections, concatenated and
/// mixed by an output projection. dim must be divisible by heads.
class MultiHeadAttention : public Module {
 public:
  MultiHeadAttention(int dim, int heads, Rng& rng);

  Tensor Forward(const Tensor& x);
  std::vector<Tensor> Parameters() override;

  int heads() const { return heads_; }

 private:
  int dim_;
  int heads_;
  int head_dim_;
  std::vector<Tensor> wq_, wk_, wv_;  // per head: [dim, head_dim]
  Tensor wo_;                         // [dim, dim]
};

/// Pre-LN transformer encoder layer: x + Attn(LN(x)), then x + FFN(LN(x)).
class TransformerEncoderLayer : public Module {
 public:
  TransformerEncoderLayer(int dim, int ff_dim, Rng& rng);

  Tensor Forward(const Tensor& x);
  std::vector<Tensor> Parameters() override;

 private:
  int dim_;
  SelfAttention attn_;
  Tensor ln1_gamma_, ln1_beta_, ln2_gamma_, ln2_beta_;
  Linear ff1_, ff2_;
};

}  // namespace stpt::nn

#endif  // STPT_NN_LAYERS_H_
