#ifndef STPT_NN_OPS_H_
#define STPT_NN_OPS_H_

#include <vector>

#include "nn/tensor.h"

namespace stpt::nn {

/// Elementwise a + b. Shapes must be equal, or b's shape must be a suffix of
/// a's (bias broadcast over the leading dims, e.g. [out] onto [batch, out]).
Tensor Add(const Tensor& a, const Tensor& b);

/// Elementwise a - b (same shapes only).
Tensor Sub(const Tensor& a, const Tensor& b);

/// Elementwise a * b. Same broadcast rule as Add.
Tensor Mul(const Tensor& a, const Tensor& b);

/// a * scalar.
Tensor Scale(const Tensor& a, double scalar);

/// a + scalar.
Tensor AddScalar(const Tensor& a, double scalar);

/// Matrix product with optional transposition of b.
///
/// Supported shapes (with transpose_b == false):
///   [m,k] x [k,n]      -> [m,n]
///   [B,m,k] x [k,n]    -> [B,m,n]   (shared right operand)
///   [B,m,k] x [B,k,n]  -> [B,m,n]   (batched)
/// With transpose_b == true the right operand is given as [n,k] / [B,n,k].
Tensor MatMul(const Tensor& a, const Tensor& b, bool transpose_b = false);

/// Elementwise sigmoid.
Tensor Sigmoid(const Tensor& a);

/// Elementwise tanh.
Tensor Tanh(const Tensor& a);

/// The GRU weights GruStep reads: every one but the update gate's input
/// projection wxz. The w* are [in, hidden] (x side) or [hidden, hidden]
/// (h side); the biases are [hidden].
struct GruStepWeights {
  Tensor whz, bz;       // update gate z
  Tensor wxr, whr, br;  // reset gate r
  Tensor wxn, whn, bn;  // candidate n
};

/// One GRU step as one tape node, given xz = MatMul(x, wxz):
///   z  = Sigmoid(Add(Add(xz, MatMul(h, whz)), bz))
///   r  = Sigmoid(Add(Add(MatMul(x, wxr), MatMul(h, whr)), br))
///   n  = Tanh(Add(Add(MatMul(x, wxn), MatMul(Mul(r, h), whn)), bn))
///   h' = Add(Mul(AddScalar(Scale(z, -1), 1), n), Mul(z, h))
/// x is [batch, in]; h, xz and h' are [batch, hidden]. The forward issues
/// the same five products through the kernel backend and rounds every
/// element as that chain of ops does. The backward adds each gradient term
/// in the order Backward() adds it through the chain, so the result and
/// every gradient equal the chain's bit for bit (DESIGN §17).
Tensor GruStep(const Tensor& xz, const Tensor& x, const Tensor& h,
               const GruStepWeights& w);

/// Elementwise ReLU.
Tensor Relu(const Tensor& a);

/// Softmax over the last dimension.
Tensor Softmax(const Tensor& a);

/// Layer normalisation over the last dimension with learned gain/bias.
/// gamma and beta must be rank-1 of size = last dim of a.
Tensor LayerNorm(const Tensor& a, const Tensor& gamma, const Tensor& beta,
                 double eps = 1e-5);

/// Stacks rank-2 tensors [b, d] along a new middle axis -> [b, s, d].
/// All inputs must share the same shape.
Tensor StackSeq(const std::vector<Tensor>& steps);

/// Concatenates tensors along the last dimension. All inputs must agree on
/// every leading dimension; any rank >= 1.
Tensor ConcatLastDim(const std::vector<Tensor>& parts);

/// Extracts time step t from a rank-3 tensor [b, s, d] -> [b, d].
Tensor SliceSeq(const Tensor& a, int t);

/// Sum of all elements -> scalar [1].
Tensor SumAll(const Tensor& a);

/// Mean of all elements -> scalar [1].
Tensor MeanAll(const Tensor& a);

/// Mean over the middle (sequence) axis of a rank-3 tensor [b,s,d] -> [b,d].
Tensor MeanSeq(const Tensor& a);

/// Reshapes without copying semantics change (volume must match).
Tensor Reshape(const Tensor& a, const std::vector<int>& shape);

/// Mean squared error between prediction and target (target is constant).
Tensor MseLoss(const Tensor& pred, const Tensor& target);

/// Mean absolute error (smooth at 0 via subgradient 0).
Tensor MaeLoss(const Tensor& pred, const Tensor& target);

}  // namespace stpt::nn

#endif  // STPT_NN_OPS_H_
