#ifndef STPT_KERNELS_BACKEND_H_
#define STPT_KERNELS_BACKEND_H_

#include <complex>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"

namespace stpt::kernels {

/// Problem descriptor for the MatMul kernel family. All buffers are dense
/// row-major double. With transpose_b == false the right operand is [k, n]
/// (or [batch, k, n] when b_batched); with transpose_b == true it is [n, k].
struct MatMulShape {
  int batch = 1;             ///< leading batch dim (1 for a rank-2 product)
  int m = 0;                 ///< output rows per batch
  int n = 0;                 ///< output cols
  int k = 0;                 ///< inner dim
  bool transpose_b = false;  ///< B given as [n, k] instead of [k, n]
  bool b_batched = false;    ///< B carries its own batch dim ([batch, ...])

  int64_t rows() const { return static_cast<int64_t>(batch) * m; }
  /// Multiply-adds in the product, batch·m·n·k (2·m·n·k floating-point
  /// operations).
  int64_t flops() const { return rows() * n * k; }
  size_t a_stride() const { return static_cast<size_t>(m) * k; }
  size_t b_stride() const {
    return b_batched ? static_cast<size_t>(k) * n : 0;
  }
  size_t c_stride() const { return static_cast<size_t>(m) * n; }
  bool Valid() const {
    return batch >= 1 && m >= 1 && n >= 1 && k >= 1;
  }
};

/// A kernel backend: one implementation of the five hot kernel families
/// (MatMul fwd/bwd, radix-2 FFT, Haar DWT levels, 3-D prefix-sum scan
/// stages, Laplace/geometric batch sampling).
///
/// Contract, enforced by kernels::Checker (tests/kernels_test.cc):
///
///  * Within one backend every kernel is bit-identical at any exec thread
///    count (parallel partitions never change per-element accumulation
///    order — the stpt::exec determinism contract).
///  * Across backends, prefix-sum scans, Haar DWT levels, and the batch
///    samplers are BIT-EXACT against the naive oracle: their per-element
///    operation chains are fixed, so an optimized implementation may
///    reorganise memory traffic but not floating-point association.
///  * MatMul and FFT are EPSILON-BOUNDED against the oracle: vector
///    accumulators and FMA contraction reassociate sums, so results agree
///    to a small relative tolerance instead of bitwise.
///
/// Implementations dispatch large problems onto the stpt::exec pool
/// themselves; callers never split work before calling a kernel.
class Backend {
 public:
  virtual ~Backend() = default;

  /// Registry key: "naive" or "avx2".
  virtual const std::string& name() const = 0;

  // ---- MatMul family ------------------------------------------------------
  /// C = A x B(ᵀ). C is overwritten.
  virtual void MatMulFwd(const double* a, const double* b, double* c,
                         const MatMulShape& s) const = 0;
  /// GA += dL/dA given the upstream gradient G (shape of C) and operand B.
  virtual void MatMulBwdA(const double* g, const double* b, double* ga,
                          const MatMulShape& s) const = 0;
  /// GB += dL/dB given the upstream gradient G (shape of C) and operand A.
  virtual void MatMulBwdB(const double* g, const double* a, double* gb,
                          const MatMulShape& s) const = 0;

  // ---- FFT ----------------------------------------------------------------
  /// In-place iterative radix-2 Cooley–Tukey transform. `n` must be a
  /// nonzero power of two (validated). `inverse` conjugates and scales 1/n.
  virtual Status FftPow2(std::complex<double>* data, size_t n,
                         bool inverse) const = 0;

  // ---- Haar DWT -----------------------------------------------------------
  /// Forward orthonormal Haar transform (pyramidal layout). Input length
  /// must be a nonzero power of two. Shared driver; levels are virtual.
  StatusOr<std::vector<double>> HaarForward(
      const std::vector<double>& input) const;
  /// Inverse of HaarForward.
  StatusOr<std::vector<double>> HaarInverse(
      const std::vector<double>& coeffs) const;
  /// One forward pyramid level over 2*half inputs:
  /// out[i] = (in[2i] + in[2i+1])/√2, out[half+i] = (in[2i] - in[2i+1])/√2.
  virtual void HaarLevelFwd(const double* in, double* out,
                            size_t half) const = 0;
  /// One inverse pyramid level:
  /// out[2i] = (in[i] + in[half+i])/√2, out[2i+1] = (in[i] - in[half+i])/√2.
  virtual void HaarLevelInv(const double* in, double* out,
                            size_t half) const = 0;

  // ---- 3-D prefix-sum scan stages ----------------------------------------
  // The three separable passes of grid::PrefixSum3D, its only caller, which
  // always passes t_lo = 0 (the ingest flush walks its own fused pillar
  // loop). `t_lo` restricts each pass to timesteps [t_lo, ct) — entries
  // below t_lo in `dst` must already hold the previous pass result (clean
  // prefix); only kernels::Checker sweeps t_lo > 0. The parameter stays
  // because the deployed-path benchmark's counting backend overrides these
  // virtuals with it; it goes in the same benchmark change as LaplaceBatch
  // and GeometricBatch. `src` may alias `dst` (the in-place full build).
  // All passes are elementwise in t above the recurrence axis, so
  // per-element accumulation order is fixed.
  /// Pass 1 — inclusive scan along t, one independent chain per pillar:
  /// dst[p*ct + t] = src[p*ct + t] + dst[p*ct + t - 1]  (t = 0: copy).
  virtual void ScanT(const double* src, double* dst, int64_t pillars, int ct,
                     int t_lo) const = 0;
  /// Pass 2 — scan along y inside each x-slab:
  /// dst[x,y,t] = src[x,y,t] + dst[x,y-1,t]  (y = 0: copy).
  virtual void ScanY(const double* src, double* dst, int cx, int cy, int ct,
                     int t_lo) const = 0;
  /// Pass 3 — scan along x across slabs:
  /// dst[x,y,t] = src[x,y,t] + dst[x-1,y,t]  (x = 0: copy).
  virtual void ScanX(const double* src, double* dst, int cx, int cy, int ct,
                     int t_lo) const = 0;

  // ---- DP noise sampling --------------------------------------------------
  /// out[i] = in[i] + Laplace(scale), element i drawing its uniform from
  /// base.Fork(i) — the repo's order-independent substream idiom, so the
  /// result is bit-exact across backends, batch splits, and thread counts.
  /// The caller advances its own Rng (e.g. base = rng.Fork()) so repeated
  /// batches draw fresh noise. `in` may alias `out`. Requires scale > 0.
  virtual void LaplaceBatch(const double* in, double* out, size_t n,
                            double scale, const Rng& base) const = 0;
  /// out[i] = in[i] + G - G' with G, G' ~ Geometric(alpha) sampled by
  /// inverse CDF from base.Fork(i). Requires 0 < alpha < 1.
  virtual void GeometricBatch(const int64_t* in, int64_t* out, size_t n,
                              double alpha, const Rng& base) const = 0;
};

enum class BackendKind { kNaive, kAvx2 };

/// True when the running CPU supports AVX2 and FMA (runtime CPUID probe).
bool CpuHasAvx2();

/// Singleton accessor. kNaive always exists; kAvx2 returns nullptr when the
/// binary targets a non-x86-64 architecture or the CPU lacks AVX2/FMA.
const Backend* GetBackend(BackendKind kind);

/// The process-wide backend registry. Exactly one instance per available
/// implementation; "avx2" is listed only when usable on this machine.
class Registry {
 public:
  /// Names of the available backends, naive first.
  static std::vector<std::string> Names();

  /// Resolves a backend spec — "naive", "avx2", or "auto" (AVX2 when the
  /// CPU supports it, scalar fallback otherwise). Returns InvalidArgument
  /// for an unknown name and FailedPrecondition for "avx2" on a machine
  /// without AVX2/FMA.
  static StatusOr<const Backend*> Create(const std::string& spec);
};

/// The process default used by consumers that do not take an explicit
/// backend (nn ops, signal transforms, prefix builds, dp mechanisms).
/// Initialised on first use from the STPT_KERNEL_BACKEND environment
/// variable ("naive" | "avx2" | "auto"); unset or invalid values fall back
/// to auto dispatch (a warning is logged for invalid/unusable values —
/// the env path degrades gracefully so blanket CI settings work on any
/// runner; the --kernel-backend flag path is strict).
const Backend* Default();

/// Strictly overrides the process default (the --kernel-backend flag path):
/// unknown names and "avx2" without CPU support are errors.
Status SetDefault(const std::string& spec);

/// Test hook: installs a specific backend as the process default.
void SetDefault(const Backend* backend);

}  // namespace stpt::kernels

#endif  // STPT_KERNELS_BACKEND_H_
