#include <cmath>
#include <utility>

#include "common/math_util.h"
#include "exec/parallel.h"
#include "kernels/internal.h"

// The scalar reference backend. Loop bodies here are the pre-backend code
// from nn/ops.cc (MatMul fwd/bwd), signal/fft.cc (radix-2 core),
// signal/wavelet.cc (Haar levels), grid/consumption_matrix.cc +
// ingest/incremental_prefix.cc (scan passes), and dp/mechanisms.cc
// (samplers), moved without numeric changes: this backend defines the bit
// patterns every optimized backend is checked against.

namespace stpt::kernels {
namespace {

const double kInvSqrt2 = 1.0 / std::sqrt(2.0);

/// Batches below this many elements are sampled inline; Fork(i) substreams
/// make the parallel split bit-identical to the serial loop either way.
constexpr size_t kSamplerParallelMin = 4096;

}  // namespace

const std::string& NaiveBackend::name() const {
  static const std::string kName = "naive";
  return kName;
}

// ---- MatMul ---------------------------------------------------------------

void NaiveBackend::MatMulFwd(const double* a, const double* b, double* c,
                             const MatMulShape& s) const {
  const int m = s.m, n = s.n, k = s.k;
  const bool transpose_b = s.transpose_b;
  const size_t a_stride = s.a_stride();
  const size_t b_stride = s.b_stride();
  const size_t c_stride = s.c_stride();
  // Row-blocked parallel forward: output row (bt, i) is a pure function of
  // A's row and B, so any thread count produces bit-identical results. Tiny
  // products run inline to avoid dispatch overhead.
  const int64_t rows = s.rows();
  const auto forward_rows = [&](int64_t begin, int64_t end) {
    for (int64_t r = begin; r < end; ++r) {
      const int bt = static_cast<int>(r / m);
      const int i = static_cast<int>(r % m);
      const double* A = a + bt * a_stride + static_cast<size_t>(i) * k;
      const double* B = b + bt * b_stride;
      double* C = c + bt * c_stride + static_cast<size_t>(i) * n;
      for (int j = 0; j < n; ++j) {
        double sum = 0.0;
        if (!transpose_b) {
          for (int kk = 0; kk < k; ++kk) sum += A[kk] * B[kk * n + j];
        } else {
          for (int kk = 0; kk < k; ++kk) sum += A[kk] * B[j * k + kk];
        }
        C[j] = sum;
      }
    }
  };
  if (s.flops() >= kMatMulParallelFlops) {
    exec::ParallelForRange(rows, forward_rows);
  } else {
    forward_rows(0, rows);
  }
}

void NaiveBackend::MatMulBwdA(const double* g, const double* b, double* ga,
                              const MatMulShape& s) const {
  const int m = s.m, n = s.n, k = s.k;
  const bool transpose_b = s.transpose_b;
  const size_t a_stride = s.a_stride();
  const size_t b_stride = s.b_stride();
  const size_t c_stride = s.c_stride();
  const int64_t rows = s.rows();
  // dA[i,kk] += sum_j G[i,j] * B(kk,j). Each task owns whole rows of GA,
  // and every GA element receives exactly one add, so the result is
  // bit-identical at any thread count.
  const auto backward_a = [&](int64_t begin, int64_t end) {
    for (int64_t r = begin; r < end; ++r) {
      const int bt = static_cast<int>(r / m);
      const int i = static_cast<int>(r % m);
      const double* G = g + bt * c_stride + static_cast<size_t>(i) * n;
      const double* B = b + bt * b_stride;
      double* GA = ga + bt * a_stride + static_cast<size_t>(i) * k;
      for (int kk = 0; kk < k; ++kk) {
        double sum = 0.0;
        if (!transpose_b) {
          for (int j = 0; j < n; ++j) sum += G[j] * B[kk * n + j];
        } else {
          for (int j = 0; j < n; ++j) sum += G[j] * B[j * k + kk];
        }
        GA[kk] += sum;
      }
    }
  };
  if (s.flops() >= kMatMulParallelFlops) {
    exec::ParallelForRange(rows, backward_a);
  } else {
    backward_a(0, rows);
  }
}

void NaiveBackend::MatMulBwdB(const double* g, const double* a, double* gb,
                              const MatMulShape& s) const {
  const int batch = s.batch, m = s.m, n = s.n, k = s.k;
  const bool transpose_b = s.transpose_b;
  const size_t a_stride = s.a_stride();
  const size_t b_stride = s.b_stride();
  const size_t c_stride = s.c_stride();
  const bool parallel = s.flops() >= kMatMulParallelFlops;
  // dB. Batched: each bt owns a disjoint GB block. Shared: GB accumulates
  // across the batch, so parallelise over GB *rows* (kk, or j when
  // transposed) and keep the bt accumulation loop inside — per-element add
  // order stays (bt ascending), bit-identical to the serial schedule.
  if (s.b_batched) {
    const auto backward_b_batched = [&](int64_t begin, int64_t end) {
      for (int64_t bt = begin; bt < end; ++bt) {
        const double* G = g + bt * c_stride;
        const double* A = a + bt * a_stride;
        double* GB = gb + bt * b_stride;
        for (int kk = 0; kk < k; ++kk) {
          for (int j = 0; j < n; ++j) {
            double sum = 0.0;
            for (int i = 0; i < m; ++i) sum += A[i * k + kk] * G[i * n + j];
            if (!transpose_b) {
              GB[kk * n + j] += sum;
            } else {
              GB[j * k + kk] += sum;
            }
          }
        }
      }
    };
    if (parallel) {
      exec::ParallelForRange(batch, backward_b_batched);
    } else {
      backward_b_batched(0, batch);
    }
  } else {
    const int gb_rows = transpose_b ? n : k;
    const auto backward_b_shared = [&](int64_t begin, int64_t end) {
      for (int64_t row = begin; row < end; ++row) {
        for (int bt = 0; bt < batch; ++bt) {
          const double* G = g + bt * c_stride;
          const double* A = a + bt * a_stride;
          double* GB = gb;
          if (!transpose_b) {
            const int kk = static_cast<int>(row);
            for (int j = 0; j < n; ++j) {
              double sum = 0.0;
              for (int i = 0; i < m; ++i) sum += A[i * k + kk] * G[i * n + j];
              GB[kk * n + j] += sum;
            }
          } else {
            const int j = static_cast<int>(row);
            for (int kk = 0; kk < k; ++kk) {
              double sum = 0.0;
              for (int i = 0; i < m; ++i) sum += A[i * k + kk] * G[i * n + j];
              GB[j * k + kk] += sum;
            }
          }
        }
      }
    };
    if (parallel) {
      exec::ParallelForRange(gb_rows, backward_b_shared);
    } else {
      backward_b_shared(0, gb_rows);
    }
  }
}

// ---- FFT ------------------------------------------------------------------

Status NaiveBackend::FftPow2(std::complex<double>* a, size_t n,
                             bool inverse) const {
  if (n == 0 || !IsPowerOfTwo(n)) {
    return Status::InvalidArgument(
        "FftPow2: size must be a nonzero power of two");
  }
  using Complex = std::complex<double>;
  // Bit-reversal permutation.
  for (size_t i = 1, j = 0; i < n; ++i) {
    size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(a[i], a[j]);
  }
  for (size_t len = 2; len <= n; len <<= 1) {
    const double ang =
        2.0 * M_PI / static_cast<double>(len) * (inverse ? 1.0 : -1.0);
    const Complex wlen(std::cos(ang), std::sin(ang));
    for (size_t i = 0; i < n; i += len) {
      Complex w(1.0, 0.0);
      for (size_t k = 0; k < len / 2; ++k) {
        const Complex u = a[i + k];
        const Complex v = a[i + k + len / 2] * w;
        a[i + k] = u + v;
        a[i + k + len / 2] = u - v;
        w *= wlen;
      }
    }
  }
  if (inverse) {
    for (size_t i = 0; i < n; ++i) a[i] /= static_cast<double>(n);
  }
  return Status::OK();
}

// ---- Haar DWT levels ------------------------------------------------------

void NaiveBackend::HaarLevelFwd(const double* in, double* out,
                                size_t half) const {
  for (size_t i = 0; i < half; ++i) {
    out[i] = (in[2 * i] + in[2 * i + 1]) * kInvSqrt2;          // approximation
    out[half + i] = (in[2 * i] - in[2 * i + 1]) * kInvSqrt2;   // detail
  }
}

void NaiveBackend::HaarLevelInv(const double* in, double* out,
                                size_t half) const {
  for (size_t i = 0; i < half; ++i) {
    out[2 * i] = (in[i] + in[half + i]) * kInvSqrt2;
    out[2 * i + 1] = (in[i] - in[half + i]) * kInvSqrt2;
  }
}

// ---- 3-D prefix-sum scan stages ------------------------------------------
// Each pass is one per-element recurrence over [t_lo, ct). The program's
// only caller is the full in-place grid::PrefixSum3D build (src == dst,
// t_lo == 0); t_lo > 0 is reached only from kernels::Checker, and the
// parameter stays until the benchmark's counting backend, which overrides
// these virtuals, drops it.

void NaiveBackend::ScanT(const double* src, double* dst, int64_t pillars,
                         int ct, int t_lo) const {
  // One independent chain per (x, y) pillar.
  exec::ParallelForRange(pillars, [&](int64_t begin, int64_t end) {
    for (int64_t p = begin; p < end; ++p) {
      const double* s = src + static_cast<size_t>(p) * ct;
      double* d = dst + static_cast<size_t>(p) * ct;
      for (int t = t_lo; t < ct; ++t) {
        d[t] = t == 0 ? s[t] : s[t] + d[t - 1];
      }
    }
  });
}

void NaiveBackend::ScanY(const double* src, double* dst, int cx, int cy,
                         int ct, int t_lo) const {
  const size_t plane = static_cast<size_t>(cy) * ct;
  // One task per x-slab; elementwise in t, so only [t_lo, ct) is touched.
  exec::ParallelForRange(cx, [&](int64_t begin, int64_t end) {
    for (int64_t x = begin; x < end; ++x) {
      const double* src_slab = src + static_cast<size_t>(x) * plane;
      double* dst_slab = dst + static_cast<size_t>(x) * plane;
      for (int t = t_lo; t < ct; ++t) dst_slab[t] = src_slab[t];
      for (int y = 1; y < cy; ++y) {
        const double* s = src_slab + static_cast<size_t>(y) * ct;
        double* d = dst_slab + static_cast<size_t>(y) * ct;
        const double* prev = d - ct;
        for (int t = t_lo; t < ct; ++t) d[t] = s[t] + prev[t];
      }
    }
  });
}

void NaiveBackend::ScanX(const double* src, double* dst, int cx, int cy,
                         int ct, int t_lo) const {
  const size_t plane = static_cast<size_t>(cy) * ct;
  const int nt = ct - t_lo;
  // Tasks partition the (y, t) sub-plane; sequential in x per element. The
  // x-ascending add order per element matches the full build exactly.
  exec::ParallelForRange(
      static_cast<int64_t>(cy) * nt, [&](int64_t begin, int64_t end) {
        for (int64_t q = begin; q < end; ++q) {
          const size_t off = static_cast<size_t>(q / nt) * ct + t_lo +
                             static_cast<size_t>(q % nt);
          dst[off] = src[off];
          for (int x = 1; x < cx; ++x) {
            const size_t cur = static_cast<size_t>(x) * plane + off;
            dst[cur] = src[cur] + dst[cur - plane];
          }
        }
      });
}

// ---- DP noise sampling ----------------------------------------------------

void NaiveBackend::LaplaceBatch(const double* in, double* out, size_t n,
                                double scale, const Rng& base) const {
  const auto sample_range = [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      Rng r = base.Fork(static_cast<uint64_t>(i));
      out[i] = in[i] + r.Laplace(scale);
    }
  };
  if (n >= kSamplerParallelMin) {
    exec::ParallelForRange(static_cast<int64_t>(n), sample_range);
  } else {
    sample_range(0, static_cast<int64_t>(n));
  }
}

void NaiveBackend::GeometricBatch(const int64_t* in, int64_t* out, size_t n,
                                  double alpha, const Rng& base) const {
  const auto sample_range = [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      Rng r = base.Fork(static_cast<uint64_t>(i));
      // Two-sided geometric via difference of two geometric variables,
      // sampled with inverse CDF: G = floor(log(u) / log(alpha)).
      const auto sample_geometric = [&]() -> int64_t {
        double u;
        do {
          u = r.NextDouble();
        } while (u <= 0.0);
        return static_cast<int64_t>(std::floor(std::log(u) / std::log(alpha)));
      };
      out[i] = in[i] + sample_geometric() - sample_geometric();
    }
  };
  if (n >= kSamplerParallelMin) {
    exec::ParallelForRange(static_cast<int64_t>(n), sample_range);
  } else {
    sample_range(0, static_cast<int64_t>(n));
  }
}

const Backend* NaiveBackendInstance() {
  static const NaiveBackend backend;
  return &backend;
}

}  // namespace stpt::kernels
