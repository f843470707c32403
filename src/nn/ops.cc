#include "nn/ops.h"

#include <cassert>
#include <cmath>
#include <cstdlib>

#include "kernels/backend.h"
#include "obs/log.h"
#include "obs/trace.h"

namespace stpt::nn {
namespace {

using Impl = std::shared_ptr<TensorImpl>;

/// Unconditional shape check on op entry points. Unlike assert, this stays
/// active under NDEBUG: a shape mismatch in a Release build must abort with
/// a message instead of silently indexing out of bounds.
void OpRequire(bool cond, const char* msg) {
  if (!cond) {
    obs::Log(obs::LogLevel::kError, "nn", std::string("fatal: ") + msg);
    std::abort();
  }
}

Impl MakeNode(const std::vector<int>& shape, std::vector<Impl> parents) {
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = shape;
  impl->data.assign(ShapeNumel(shape), 0.0);
  impl->requires_grad = false;
  for (const auto& p : parents) impl->requires_grad |= p->requires_grad;
  impl->parents = std::move(parents);
  return impl;
}

/// True if `suffix` equals the trailing dims of `shape`.
bool IsSuffix(const std::vector<int>& shape,
              const std::vector<int>& suffix) {
  if (suffix.size() > shape.size()) return false;
  const size_t off = shape.size() - suffix.size();
  for (size_t i = 0; i < suffix.size(); ++i) {
    if (shape[off + i] != suffix[i]) return false;
  }
  return true;
}

/// Calls f(i, j) for every element i of an n-element broadcast result, with
/// j = i % bn the matching element of its bn-element suffix operand. It
/// walks the operand row by row instead of dividing once per element; i
/// still runs in order, so every accumulation keeps its order.
template <typename F>
void ForEachBroadcast(size_t n, size_t bn, F&& f) {
  assert(n % bn == 0);
  for (size_t row = 0; row < n; row += bn) {
    for (size_t j = 0; j < bn; ++j) f(row + j, j);
  }
}

/// Adds the n-element gradient g into parent's gradient; parent may be a
/// suffix-broadcast operand, whose elements then sum their rows in order.
void AccumulateBroadcastGrad(const double* g, size_t n, TensorImpl* parent) {
  double* pg = parent->grad.data();
  ForEachBroadcast(n, parent->data.size(),
                   [&](size_t i, size_t j) { pg[j] += g[i]; });
}

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  obs::Span span("nn/Add");
  OpRequire(IsSuffix(a.shape(), b.shape()),
            "Add: b must equal or suffix-broadcast a");
  auto node = MakeNode(a.shape(), {a.impl(), b.impl()});
  const double* ad = a.data().data();
  const double* bd = b.data().data();
  double* out = node->data.data();
  ForEachBroadcast(node->data.size(), b.numel(),
                   [&](size_t i, size_t j) { out[i] = ad[i] + bd[j]; });
  if (node->requires_grad) {
    Impl ai = a.impl(), bi = b.impl();
    node->backward_fn = [ai, bi](TensorImpl& n) {
      obs::Span bwd_span("nn/Add.bwd");
      for (size_t i = 0; i < n.data.size(); ++i) ai->grad[i] += n.grad[i];
      AccumulateBroadcastGrad(n.grad.data(), n.data.size(), bi.get());
    };
  }
  return Tensor(std::move(node));
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  obs::Span span("nn/Sub");
  OpRequire(a.shape() == b.shape(), "Sub: shapes must match");
  auto node = MakeNode(a.shape(), {a.impl(), b.impl()});
  for (size_t i = 0; i < node->data.size(); ++i) {
    node->data[i] = a.data()[i] - b.data()[i];
  }
  if (node->requires_grad) {
    Impl ai = a.impl(), bi = b.impl();
    node->backward_fn = [ai, bi](TensorImpl& n) {
      obs::Span bwd_span("nn/Sub.bwd");
      for (size_t i = 0; i < n.data.size(); ++i) {
        ai->grad[i] += n.grad[i];
        bi->grad[i] -= n.grad[i];
      }
    };
  }
  return Tensor(std::move(node));
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  obs::Span span("nn/Mul");
  OpRequire(IsSuffix(a.shape(), b.shape()),
            "Mul: b must equal or suffix-broadcast a");
  auto node = MakeNode(a.shape(), {a.impl(), b.impl()});
  const double* ad = a.data().data();
  const double* bd = b.data().data();
  double* out = node->data.data();
  ForEachBroadcast(node->data.size(), b.numel(),
                   [&](size_t i, size_t j) { out[i] = ad[i] * bd[j]; });
  if (node->requires_grad) {
    Impl ai = a.impl(), bi = b.impl();
    node->backward_fn = [ai, bi](TensorImpl& n) {
      obs::Span bwd_span("nn/Mul.bwd");
      // a and b may be one tensor (MseLoss squares with Mul(d, d)); element
      // i then takes a's term, then b's.
      const double* g = n.grad.data();
      const double* a_data = ai->data.data();
      const double* b_data = bi->data.data();
      double* a_grad = ai->grad.data();
      double* b_grad = bi->grad.data();
      ForEachBroadcast(n.data.size(), bi->data.size(), [&](size_t i, size_t j) {
        a_grad[i] += g[i] * b_data[j];
        b_grad[j] += g[i] * a_data[i];
      });
    };
  }
  return Tensor(std::move(node));
}

Tensor Scale(const Tensor& a, double scalar) {
  obs::Span span("nn/Scale");
  auto node = MakeNode(a.shape(), {a.impl()});
  for (size_t i = 0; i < node->data.size(); ++i) node->data[i] = a.data()[i] * scalar;
  if (node->requires_grad) {
    Impl ai = a.impl();
    node->backward_fn = [ai, scalar](TensorImpl& n) {
      obs::Span bwd_span("nn/Scale.bwd");
      for (size_t i = 0; i < n.data.size(); ++i) ai->grad[i] += n.grad[i] * scalar;
    };
  }
  return Tensor(std::move(node));
}

Tensor AddScalar(const Tensor& a, double scalar) {
  obs::Span span("nn/AddScalar");
  auto node = MakeNode(a.shape(), {a.impl()});
  for (size_t i = 0; i < node->data.size(); ++i) node->data[i] = a.data()[i] + scalar;
  if (node->requires_grad) {
    Impl ai = a.impl();
    node->backward_fn = [ai](TensorImpl& n) {
      obs::Span bwd_span("nn/AddScalar.bwd");
      for (size_t i = 0; i < n.data.size(); ++i) ai->grad[i] += n.grad[i];
    };
  }
  return Tensor(std::move(node));
}

Tensor MatMul(const Tensor& a, const Tensor& b, bool transpose_b) {
  obs::Span span("nn/MatMul");
  const auto& as = a.shape();
  const auto& bs = b.shape();
  OpRequire(a.rank() == 2 || a.rank() == 3, "MatMul: a must be rank 2 or 3");
  OpRequire(b.rank() == 2 || b.rank() == 3, "MatMul: b must be rank 2 or 3");
  OpRequire(!(a.rank() == 2 && b.rank() == 3), "MatMul: 2D x 3D unsupported");

  const int batch = a.rank() == 3 ? as[0] : 1;
  const int m = a.rank() == 3 ? as[1] : as[0];
  const int k = a.rank() == 3 ? as[2] : as[1];
  const bool b_batched = (b.rank() == 3);
  if (b_batched) OpRequire(bs[0] == batch, "MatMul: batch mismatch");
  const int bk = b_batched ? (transpose_b ? bs[2] : bs[1])
                           : (transpose_b ? bs[1] : bs[0]);
  const int n = b_batched ? (transpose_b ? bs[1] : bs[2])
                          : (transpose_b ? bs[0] : bs[1]);
  OpRequire(bk == k, "MatMul: inner dimension mismatch");

  std::vector<int> out_shape =
      a.rank() == 3 ? std::vector<int>{batch, m, n} : std::vector<int>{m, n};
  auto node = MakeNode(out_shape, {a.impl(), b.impl()});

  // The fwd/bwd loop nests live behind the kernel backend (naive oracle or
  // AVX2); this op is now a shape-resolving graph builder. The backend is
  // resolved per call so --kernel-backend applies to graphs built later.
  kernels::MatMulShape shape;
  shape.batch = batch;
  shape.m = m;
  shape.n = n;
  shape.k = k;
  shape.transpose_b = transpose_b;
  shape.b_batched = b_batched;
  kernels::Default()->MatMulFwd(a.data().data(), b.data().data(),
                                node->data.data(), shape);

  if (node->requires_grad) {
    Impl ai = a.impl(), bi = b.impl();
    node->backward_fn = [ai, bi, shape](TensorImpl& node_ref) {
      obs::Span bwd_span("nn/MatMul.bwd");
      const kernels::Backend* backend = kernels::Default();
      backend->MatMulBwdA(node_ref.grad.data(), bi->data.data(),
                          ai->grad.data(), shape);
      backend->MatMulBwdB(node_ref.grad.data(), ai->data.data(),
                          bi->grad.data(), shape);
    };
  }
  return Tensor(std::move(node));
}

Tensor Sigmoid(const Tensor& a) {
  obs::Span span("nn/Sigmoid");
  auto node = MakeNode(a.shape(), {a.impl()});
  for (size_t i = 0; i < node->data.size(); ++i) {
    node->data[i] = 1.0 / (1.0 + std::exp(-a.data()[i]));
  }
  if (node->requires_grad) {
    Impl ai = a.impl();
    node->backward_fn = [ai](TensorImpl& n) {
      obs::Span bwd_span("nn/Sigmoid.bwd");
      for (size_t i = 0; i < n.data.size(); ++i) {
        ai->grad[i] += n.grad[i] * n.data[i] * (1.0 - n.data[i]);
      }
    };
  }
  return Tensor(std::move(node));
}

Tensor Tanh(const Tensor& a) {
  obs::Span span("nn/Tanh");
  auto node = MakeNode(a.shape(), {a.impl()});
  for (size_t i = 0; i < node->data.size(); ++i) node->data[i] = std::tanh(a.data()[i]);
  if (node->requires_grad) {
    Impl ai = a.impl();
    node->backward_fn = [ai](TensorImpl& n) {
      obs::Span bwd_span("nn/Tanh.bwd");
      for (size_t i = 0; i < n.data.size(); ++i) {
        ai->grad[i] += n.grad[i] * (1.0 - n.data[i] * n.data[i]);
      }
    };
  }
  return Tensor(std::move(node));
}

Tensor GruStep(const Tensor& xz, const Tensor& x, const Tensor& h,
               const GruStepWeights& w) {
  obs::Span span("nn/GruStep");
  OpRequire(x.rank() == 2 && h.rank() == 2 && x.shape()[0] == h.shape()[0],
            "GruStep: x must be [batch, in] and h [batch, hidden]");
  OpRequire(xz.shape() == h.shape(), "GruStep: xz must be [batch, hidden]");
  const int batch = h.shape()[0];
  const int in = x.shape()[1];
  const int hidden = h.shape()[1];
  const std::vector<int> x_side = {in, hidden};
  const std::vector<int> h_side = {hidden, hidden};
  const std::vector<int> bias = {hidden};
  OpRequire(w.wxr.shape() == x_side && w.wxn.shape() == x_side,
            "GruStep: wxr and wxn must be [in, hidden]");
  OpRequire(w.whz.shape() == h_side && w.whr.shape() == h_side &&
                w.whn.shape() == h_side,
            "GruStep: whz, whr and whn must be [hidden, hidden]");
  OpRequire(w.bz.shape() == bias && w.br.shape() == bias && w.bn.shape() == bias,
            "GruStep: bz, br and bn must be [hidden]");

  // The products of x ([batch, in] · [in, hidden]) and of h or r*h
  // ([batch, hidden] · [hidden, hidden]), shaped as MatMul shapes them.
  kernels::MatMulShape xs;
  xs.m = batch;
  xs.n = hidden;
  xs.k = in;
  kernels::MatMulShape hs = xs;
  hs.k = hidden;
  const size_t bh = static_cast<size_t>(batch) * hidden;

  // xz comes first among the parents: Backward()'s DFS then reaches every
  // step's xz node before the previous step, and runs their backward in
  // forward time order, as the op-by-op tape does.
  auto node = MakeNode(h.shape(), {xz.impl(), x.impl(), h.impl(), w.whz.impl(),
                                   w.bz.impl(), w.wxr.impl(), w.whr.impl(),
                                   w.br.impl(), w.wxn.impl(), w.whn.impl(),
                                   w.bn.impl()});
  // z, r, n and r*h, kept for the backward.
  auto saved = std::make_shared<std::vector<double>>(4 * bh);
  double* z = saved->data();
  double* r = z + bh;
  double* n = r + bh;
  double* rh = n + bh;
  std::vector<double> products(2 * bh);
  double* p0 = products.data();
  double* p1 = p0 + bh;
  const double* xd = x.data().data();
  const double* hd = h.data().data();
  const double* xzd = xz.data().data();
  const kernels::Backend* backend = kernels::Default();

  backend->MatMulFwd(hd, w.whz.data().data(), p0, hs);
  const double* bz = w.bz.data().data();
  ForEachBroadcast(bh, hidden, [&](size_t i, size_t j) {
    z[i] = 1.0 / (1.0 + std::exp(-((xzd[i] + p0[i]) + bz[j])));
  });
  backend->MatMulFwd(xd, w.wxr.data().data(), p0, xs);
  backend->MatMulFwd(hd, w.whr.data().data(), p1, hs);
  const double* br = w.br.data().data();
  ForEachBroadcast(bh, hidden, [&](size_t i, size_t j) {
    r[i] = 1.0 / (1.0 + std::exp(-((p0[i] + p1[i]) + br[j])));
    rh[i] = r[i] * hd[i];
  });
  backend->MatMulFwd(xd, w.wxn.data().data(), p0, xs);
  backend->MatMulFwd(rh, w.whn.data().data(), p1, hs);
  const double* bn = w.bn.data().data();
  double* out = node->data.data();
  ForEachBroadcast(bh, hidden, [&](size_t i, size_t j) {
    n[i] = std::tanh((p0[i] + p1[i]) + bn[j]);
    out[i] = (z[i] * -1.0 + 1.0) * n[i] + z[i] * hd[i];
  });

  if (node->requires_grad) {
    Impl xzi = xz.impl(), xi = x.impl(), hi = h.impl();
    node->backward_fn = [xzi, xi, hi, w, saved, xs, hs, bh](TensorImpl& self) {
      obs::Span bwd_span("nn/GruStep.bwd");
      const kernels::Backend* backend = kernels::Default();
      const double* z = saved->data();
      const double* r = z + bh;
      const double* n = r + bh;
      const double* rh = n + bh;
      const double* g = self.grad.data();
      const double* xd = xi->data.data();
      const double* hd = hi->data.data();
      double* xg = xi->grad.data();
      double* hg = hi->grad.data();
      // Gradients at the pre-activations of z (ga), r (gb) and n (gc), and
      // at r*h (grh, which MatMulBwdA adds into, so it starts at zero).
      std::vector<double> scratch(4 * bh, 0.0);
      double* ga = scratch.data();
      double* gb = ga + bh;
      double* gc = gb + bh;
      double* grh = gc + bh;
      // The op-by-op chain's node order for one step, as Backward() runs
      // it: h' = Add(D1, D2), D2 = Mul(z, h), D1 = Mul(1 - z, n), Tanh,
      // Add(., bn), Add(C1, C2), C2 = (r*h)·whn, Mul(r, h), Sigmoid(r),
      // Add(., br), Add(B1, B2), B2 = h·whr, B1 = x·wxr, C1 = x·wxn,
      // AddScalar, Scale(z, -1), Sigmoid(z), Add(., bz), Add(A1, A2),
      // A2 = h·whz. Each buffer below takes its terms in that order; z's
      // two terms (from D2, then from Scale) and the elementwise chains are
      // folded into single expressions.
      for (size_t i = 0; i < bh; ++i) {
        hg[i] += g[i] * z[i];
        const double gz = g[i] * hd[i] + g[i] * n[i] * -1.0;
        const double gn = g[i] * (z[i] * -1.0 + 1.0);
        gc[i] = gn * (1.0 - n[i] * n[i]);
        ga[i] = gz * z[i] * (1.0 - z[i]);
      }
      AccumulateBroadcastGrad(gc, bh, w.bn.impl().get());
      backend->MatMulBwdA(gc, w.whn.data().data(), grh, hs);
      backend->MatMulBwdB(gc, rh, w.whn.impl()->grad.data(), hs);
      for (size_t i = 0; i < bh; ++i) {
        const double gr = grh[i] * hd[i];
        hg[i] += grh[i] * r[i];
        gb[i] = gr * r[i] * (1.0 - r[i]);
      }
      AccumulateBroadcastGrad(gb, bh, w.br.impl().get());
      backend->MatMulBwdA(gb, w.whr.data().data(), hg, hs);
      backend->MatMulBwdB(gb, hd, w.whr.impl()->grad.data(), hs);
      backend->MatMulBwdA(gb, w.wxr.data().data(), xg, xs);
      backend->MatMulBwdB(gb, xd, w.wxr.impl()->grad.data(), xs);
      backend->MatMulBwdA(gc, w.wxn.data().data(), xg, xs);
      backend->MatMulBwdB(gc, xd, w.wxn.impl()->grad.data(), xs);
      AccumulateBroadcastGrad(ga, bh, w.bz.impl().get());
      AccumulateBroadcastGrad(ga, bh, xzi.get());
      backend->MatMulBwdA(ga, w.whz.data().data(), hg, hs);
      backend->MatMulBwdB(ga, hd, w.whz.impl()->grad.data(), hs);
    };
  }
  return Tensor(std::move(node));
}

Tensor Relu(const Tensor& a) {
  obs::Span span("nn/Relu");
  auto node = MakeNode(a.shape(), {a.impl()});
  for (size_t i = 0; i < node->data.size(); ++i) {
    node->data[i] = a.data()[i] > 0.0 ? a.data()[i] : 0.0;
  }
  if (node->requires_grad) {
    Impl ai = a.impl();
    node->backward_fn = [ai](TensorImpl& n) {
      obs::Span bwd_span("nn/Relu.bwd");
      for (size_t i = 0; i < n.data.size(); ++i) {
        if (ai->data[i] > 0.0) ai->grad[i] += n.grad[i];
      }
    };
  }
  return Tensor(std::move(node));
}

Tensor Softmax(const Tensor& a) {
  obs::Span span("nn/Softmax");
  const int last = a.shape().back();
  auto node = MakeNode(a.shape(), {a.impl()});
  const size_t rows = a.numel() / last;
  for (size_t r = 0; r < rows; ++r) {
    const double* in = a.data().data() + r * last;
    double* out = node->data.data() + r * last;
    double mx = in[0];
    for (int i = 1; i < last; ++i) mx = std::max(mx, in[i]);
    double sum = 0.0;
    for (int i = 0; i < last; ++i) {
      out[i] = std::exp(in[i] - mx);
      sum += out[i];
    }
    for (int i = 0; i < last; ++i) out[i] /= sum;
  }
  if (node->requires_grad) {
    Impl ai = a.impl();
    node->backward_fn = [ai, last, rows](TensorImpl& n) {
      obs::Span bwd_span("nn/Softmax.bwd");
      for (size_t r = 0; r < rows; ++r) {
        const double* y = n.data.data() + r * last;
        const double* gy = n.grad.data() + r * last;
        double dot = 0.0;
        for (int i = 0; i < last; ++i) dot += y[i] * gy[i];
        double* ga = ai->grad.data() + r * last;
        for (int i = 0; i < last; ++i) ga[i] += y[i] * (gy[i] - dot);
      }
    };
  }
  return Tensor(std::move(node));
}

Tensor LayerNorm(const Tensor& a, const Tensor& gamma, const Tensor& beta,
                 double eps) {
  obs::Span span("nn/LayerNorm");
  const int d = a.shape().back();
  OpRequire(gamma.rank() == 1 && gamma.shape()[0] == d,
            "LayerNorm: gamma must be rank-1 of size last-dim(a)");
  OpRequire(beta.rank() == 1 && beta.shape()[0] == d,
            "LayerNorm: beta must be rank-1 of size last-dim(a)");
  auto node = MakeNode(a.shape(), {a.impl(), gamma.impl(), beta.impl()});
  const size_t rows = a.numel() / d;
  // Cache per-row statistics for the backward pass.
  auto mean = std::make_shared<std::vector<double>>(rows);
  auto inv_std = std::make_shared<std::vector<double>>(rows);
  for (size_t r = 0; r < rows; ++r) {
    const double* in = a.data().data() + r * d;
    double m = 0.0;
    for (int i = 0; i < d; ++i) m += in[i];
    m /= d;
    double var = 0.0;
    for (int i = 0; i < d; ++i) var += (in[i] - m) * (in[i] - m);
    var /= d;
    const double is = 1.0 / std::sqrt(var + eps);
    (*mean)[r] = m;
    (*inv_std)[r] = is;
    double* out = node->data.data() + r * d;
    for (int i = 0; i < d; ++i) {
      out[i] = gamma.data()[i] * (in[i] - m) * is + beta.data()[i];
    }
  }
  if (node->requires_grad) {
    Impl ai = a.impl(), gi = gamma.impl(), bi = beta.impl();
    node->backward_fn = [ai, gi, bi, d, rows, mean, inv_std](TensorImpl& n) {
      obs::Span bwd_span("nn/LayerNorm.bwd");
      for (size_t r = 0; r < rows; ++r) {
        const double* x = ai->data.data() + r * d;
        const double* gy = n.grad.data() + r * d;
        const double m = (*mean)[r];
        const double is = (*inv_std)[r];
        // xhat_i = (x_i - m) * is
        double sum_gy_g = 0.0;     // sum_i gy_i * gamma_i
        double sum_gy_g_xh = 0.0;  // sum_i gy_i * gamma_i * xhat_i
        for (int i = 0; i < d; ++i) {
          const double xh = (x[i] - m) * is;
          const double gg = gy[i] * gi->data[i];
          sum_gy_g += gg;
          sum_gy_g_xh += gg * xh;
          gi->grad[i] += gy[i] * xh;
          bi->grad[i] += gy[i];
        }
        double* ga = ai->grad.data() + r * d;
        for (int i = 0; i < d; ++i) {
          const double xh = (x[i] - m) * is;
          ga[i] += is * (gy[i] * gi->data[i] - sum_gy_g / d - xh * sum_gy_g_xh / d);
        }
      }
    };
  }
  return Tensor(std::move(node));
}

Tensor StackSeq(const std::vector<Tensor>& steps) {
  obs::Span span("nn/StackSeq");
  OpRequire(!steps.empty(), "StackSeq: steps must be non-empty");
  const auto& s0 = steps[0].shape();
  OpRequire(s0.size() == 2, "StackSeq: steps must be rank-2");
  const int b = s0[0];
  const int d = s0[1];
  const int s = static_cast<int>(steps.size());
  std::vector<Impl> parents;
  for (const auto& t : steps) {
    OpRequire(t.shape() == s0, "StackSeq: all steps must share one shape");
    parents.push_back(t.impl());
  }
  auto node = MakeNode({b, s, d}, std::move(parents));
  for (int bt = 0; bt < b; ++bt) {
    for (int st = 0; st < s; ++st) {
      for (int i = 0; i < d; ++i) {
        node->data[(static_cast<size_t>(bt) * s + st) * d + i] =
            steps[st].data()[static_cast<size_t>(bt) * d + i];
      }
    }
  }
  if (node->requires_grad) {
    std::vector<Impl> ps;
    for (const auto& t : steps) ps.push_back(t.impl());
    node->backward_fn = [ps, b, s, d](TensorImpl& n) {
      obs::Span bwd_span("nn/StackSeq.bwd");
      for (int bt = 0; bt < b; ++bt) {
        for (int st = 0; st < s; ++st) {
          for (int i = 0; i < d; ++i) {
            ps[st]->grad[static_cast<size_t>(bt) * d + i] +=
                n.grad[(static_cast<size_t>(bt) * s + st) * d + i];
          }
        }
      }
    };
  }
  return Tensor(std::move(node));
}

Tensor ConcatLastDim(const std::vector<Tensor>& parts) {
  obs::Span span("nn/ConcatLastDim");
  OpRequire(!parts.empty(), "ConcatLastDim: parts must be non-empty");
  const auto& s0 = parts[0].shape();
  std::vector<int> lead(s0.begin(), s0.end() - 1);
  int total_last = 0;
  std::vector<Impl> parents;
  std::vector<int> lasts;
  for (const auto& p : parts) {
    OpRequire(std::vector<int>(p.shape().begin(), p.shape().end() - 1) == lead,
              "ConcatLastDim: leading dims must match");
    lasts.push_back(p.shape().back());
    total_last += p.shape().back();
    parents.push_back(p.impl());
  }
  std::vector<int> out_shape = lead;
  out_shape.push_back(total_last);
  const size_t rows = ShapeNumel(lead);
  auto node = MakeNode(out_shape, parents);
  for (size_t r = 0; r < rows; ++r) {
    size_t off = 0;
    for (size_t p = 0; p < parts.size(); ++p) {
      const int d = lasts[p];
      for (int i = 0; i < d; ++i) {
        node->data[r * total_last + off + i] =
            parts[p].data()[r * static_cast<size_t>(d) + i];
      }
      off += d;
    }
  }
  if (node->requires_grad) {
    std::vector<Impl> ps;
    for (const auto& p : parts) ps.push_back(p.impl());
    node->backward_fn = [ps, lasts, rows, total_last](TensorImpl& n) {
      obs::Span bwd_span("nn/ConcatLastDim.bwd");
      for (size_t r = 0; r < rows; ++r) {
        size_t off = 0;
        for (size_t p = 0; p < ps.size(); ++p) {
          const int d = lasts[p];
          for (int i = 0; i < d; ++i) {
            ps[p]->grad[r * static_cast<size_t>(d) + i] +=
                n.grad[r * total_last + off + i];
          }
          off += d;
        }
      }
    };
  }
  return Tensor(std::move(node));
}

Tensor SliceSeq(const Tensor& a, int t) {
  obs::Span span("nn/SliceSeq");
  OpRequire(a.rank() == 3, "SliceSeq: a must be rank-3");
  const int b = a.shape()[0];
  const int s = a.shape()[1];
  const int d = a.shape()[2];
  OpRequire(t >= 0 && t < s, "SliceSeq: t out of range");
  auto node = MakeNode({b, d}, {a.impl()});
  for (int bt = 0; bt < b; ++bt) {
    for (int i = 0; i < d; ++i) {
      node->data[static_cast<size_t>(bt) * d + i] =
          a.data()[(static_cast<size_t>(bt) * s + t) * d + i];
    }
  }
  if (node->requires_grad) {
    Impl ai = a.impl();
    node->backward_fn = [ai, b, s, d, t](TensorImpl& n) {
      obs::Span bwd_span("nn/SliceSeq.bwd");
      for (int bt = 0; bt < b; ++bt) {
        for (int i = 0; i < d; ++i) {
          ai->grad[(static_cast<size_t>(bt) * s + t) * d + i] +=
              n.grad[static_cast<size_t>(bt) * d + i];
        }
      }
    };
  }
  return Tensor(std::move(node));
}

Tensor SumAll(const Tensor& a) {
  obs::Span span("nn/SumAll");
  auto node = MakeNode({1}, {a.impl()});
  double s = 0.0;
  for (double v : a.data()) s += v;
  node->data[0] = s;
  if (node->requires_grad) {
    Impl ai = a.impl();
    node->backward_fn = [ai](TensorImpl& n) {
      obs::Span bwd_span("nn/SumAll.bwd");
      for (double& g : ai->grad) g += n.grad[0];
    };
  }
  return Tensor(std::move(node));
}

Tensor MeanAll(const Tensor& a) {
  obs::Span span("nn/MeanAll");
  const double inv = 1.0 / static_cast<double>(a.numel());
  return Scale(SumAll(a), inv);
}

Tensor MeanSeq(const Tensor& a) {
  obs::Span span("nn/MeanSeq");
  OpRequire(a.rank() == 3, "MeanSeq: a must be rank-3");
  const int b = a.shape()[0];
  const int s = a.shape()[1];
  const int d = a.shape()[2];
  auto node = MakeNode({b, d}, {a.impl()});
  for (int bt = 0; bt < b; ++bt) {
    for (int st = 0; st < s; ++st) {
      for (int i = 0; i < d; ++i) {
        node->data[static_cast<size_t>(bt) * d + i] +=
            a.data()[(static_cast<size_t>(bt) * s + st) * d + i];
      }
    }
  }
  for (double& v : node->data) v /= s;
  if (node->requires_grad) {
    Impl ai = a.impl();
    node->backward_fn = [ai, b, s, d](TensorImpl& n) {
      obs::Span bwd_span("nn/MeanSeq.bwd");
      const double inv = 1.0 / s;
      for (int bt = 0; bt < b; ++bt) {
        for (int st = 0; st < s; ++st) {
          for (int i = 0; i < d; ++i) {
            ai->grad[(static_cast<size_t>(bt) * s + st) * d + i] +=
                n.grad[static_cast<size_t>(bt) * d + i] * inv;
          }
        }
      }
    };
  }
  return Tensor(std::move(node));
}

Tensor Reshape(const Tensor& a, const std::vector<int>& shape) {
  obs::Span span("nn/Reshape");
  OpRequire(ShapeNumel(shape) == a.numel(), "Reshape: volume must match");
  auto node = MakeNode(shape, {a.impl()});
  node->data = a.data();
  if (node->requires_grad) {
    Impl ai = a.impl();
    node->backward_fn = [ai](TensorImpl& n) {
      obs::Span bwd_span("nn/Reshape.bwd");
      for (size_t i = 0; i < n.data.size(); ++i) ai->grad[i] += n.grad[i];
    };
  }
  return Tensor(std::move(node));
}

Tensor MseLoss(const Tensor& pred, const Tensor& target) {
  obs::Span span("nn/MseLoss");
  OpRequire(pred.shape() == target.shape(), "MseLoss: shapes must match");
  const Tensor diff = Sub(pred, target);
  return MeanAll(Mul(diff, diff));
}

Tensor MaeLoss(const Tensor& pred, const Tensor& target) {
  obs::Span span("nn/MaeLoss");
  OpRequire(pred.shape() == target.shape(), "MaeLoss: shapes must match");
  auto node = MakeNode({1}, {pred.impl(), target.impl()});
  double s = 0.0;
  for (size_t i = 0; i < pred.numel(); ++i) {
    s += std::fabs(pred.data()[i] - target.data()[i]);
  }
  node->data[0] = s / static_cast<double>(pred.numel());
  if (node->requires_grad) {
    Impl pi = pred.impl(), ti = target.impl();
    node->backward_fn = [pi, ti](TensorImpl& n) {
      obs::Span bwd_span("nn/MaeLoss.bwd");
      const double inv = 1.0 / static_cast<double>(pi->data.size());
      for (size_t i = 0; i < pi->data.size(); ++i) {
        const double diff = pi->data[i] - ti->data[i];
        const double sgn = diff > 0.0 ? 1.0 : (diff < 0.0 ? -1.0 : 0.0);
        pi->grad[i] += n.grad[0] * sgn * inv;
        ti->grad[i] -= n.grad[0] * sgn * inv;
      }
    };
  }
  return Tensor(std::move(node));
}

}  // namespace stpt::nn
