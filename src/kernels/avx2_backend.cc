#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/math_util.h"
#include "exec/parallel.h"
#include "kernels/internal.h"

// AVX2/FMA backend. This translation unit is compiled with
// -mavx2 -mfma -ffp-contract=off (see src/kernels/CMakeLists.txt):
// the vector math is explicit intrinsics, and contraction is disabled so
// the scalar tails and the sampler transform keep the exact rounding steps
// of the naive oracle (bit-exact families must not pick up implicit FMAs).
//
// Tolerance contract recap (backend.h): MatMul and FFT reassociate sums
// (FMA + vector accumulators) and are epsilon-checked; Haar levels, the
// three scan passes, and the samplers perform the naive per-element op
// chain in vector registers and are bitwise-checked.

#if defined(__x86_64__)

#include <immintrin.h>

namespace stpt::kernels {
namespace {

const double kInvSqrt2 = 1.0 / std::sqrt(2.0);
constexpr size_t kSamplerParallelMin = 4096;

// ---- 64-bit integer helpers (AVX2 has no native 64x64 multiply) ----------

inline __m256i Mul64(__m256i a, __m256i b) {
  const __m256i lo = _mm256_mul_epu32(a, b);
  const __m256i ah = _mm256_srli_epi64(a, 32);
  const __m256i bh = _mm256_srli_epi64(b, 32);
  const __m256i cross =
      _mm256_add_epi64(_mm256_mul_epu32(ah, b), _mm256_mul_epu32(a, bh));
  return _mm256_add_epi64(lo, _mm256_slli_epi64(cross, 32));
}

inline __m256i Rotl64(__m256i x, int k) {
  return _mm256_or_si256(_mm256_slli_epi64(x, k), _mm256_srli_epi64(x, 64 - k));
}

// splitmix64 constants (mirrors common/rng.cc).
constexpr uint64_t kGolden = 0x9E3779B97F4A7C15ULL;
constexpr uint64_t kMixA = 0xBF58476D1CE4E5B9ULL;
constexpr uint64_t kMixB = 0x94D049BB133111EBULL;
constexpr uint64_t kStreamSalt = 0xD1B54A32D192ED03ULL;

/// The mixing body of SplitMix64 (everything after the += golden step),
/// four lanes at a time. Pure mod-2^64 integer arithmetic, so the lanes are
/// bit-identical to the scalar rng.cc pipeline.
inline __m256i SplitMixBody(__m256i z) {
  z = _mm256_xor_si256(z, _mm256_srli_epi64(z, 30));
  z = Mul64(z, _mm256_set1_epi64x(static_cast<long long>(kMixA)));
  z = _mm256_xor_si256(z, _mm256_srli_epi64(z, 27));
  z = Mul64(z, _mm256_set1_epi64x(static_cast<long long>(kMixB)));
  return _mm256_xor_si256(z, _mm256_srli_epi64(z, 31));
}

inline uint64_t SplitMix64Scalar(uint64_t* state) {
  uint64_t z = (*state += kGolden);
  z = (z ^ (z >> 30)) * kMixA;
  z = (z ^ (z >> 27)) * kMixB;
  return z ^ (z >> 31);
}

// ---- register-blocked MatMul kernels -------------------------------------
// Every output element keeps one fixed operation chain whatever the block
// it is computed in, so blocking, tails and partitions never change a bit:
//  * axpy form (forward, BwdA with transposed B, BwdB): columns below
//    ncols - ncols % 4 run one FMA chain over the depth, the rest the
//    scalar multiply-then-add chain;
//  * dot form (forward with transposed B, BwdA): DotContig's four vector
//    accumulators, its ((acc0 + acc1) + (acc2 + acc3)) then
//    ((lane0 + lane2) + (lane1 + lane3)) reduction, and its scalar tail.

/// How a kernel writes the chain it computed into an output element.
enum class Out {
  kStore,   ///< out = chain started at +0.0 (forward C)
  kChain,   ///< the chain starts at out's value (BwdA, transposed B)
  kAddSum,  ///< out += chain started at +0.0 (BwdA dot form, BwdB)
};

template <Out kOut>
inline void Finish(double* out, __m256d v) {
  if constexpr (kOut == Out::kAddSum) v = _mm256_add_pd(_mm256_loadu_pd(out), v);
  _mm256_storeu_pd(out, v);
}

// The column tiles of AxpyBlock: out[r, c] takes x(r, d) * y[d, c] for
// d = 0..depth-1, with x(r, d) = x[r * x_rs + d * x_ds] and rows of y and
// out y_ld and out_ld apart. The rows are spelled out as a pack, so every
// accumulator index is a constant and the whole tile stays in ymm
// registers across the depth.

/// Rows x 8 columns: two ymm per row, one broadcast of x(r, d) for both.
template <Out kOut, int... r>
inline void AxpyTile8(std::integer_sequence<int, r...>, const double* x,
                      size_t x_rs, size_t x_ds, const double* y, size_t y_ld,
                      int depth, double* out, size_t out_ld) {
  __m256d lo[] = {kOut == Out::kChain ? _mm256_loadu_pd(out + r * out_ld)
                                      : _mm256_setzero_pd()...};
  __m256d hi[] = {kOut == Out::kChain ? _mm256_loadu_pd(out + r * out_ld + 4)
                                      : _mm256_setzero_pd()...};
  for (int d = 0; d < depth; ++d) {
    const double* yrow = y + static_cast<size_t>(d) * y_ld;
    const __m256d y0 = _mm256_loadu_pd(yrow);
    const __m256d y1 = _mm256_loadu_pd(yrow + 4);
    (
        [&] {
          const __m256d xv = _mm256_broadcast_sd(x + r * x_rs + d * x_ds);
          lo[r] = _mm256_fmadd_pd(xv, y0, lo[r]);
          hi[r] = _mm256_fmadd_pd(xv, y1, hi[r]);
        }(),
        ...);
  }
  (Finish<kOut>(out + r * out_ld, lo[r]), ...);
  (Finish<kOut>(out + r * out_ld + 4, hi[r]), ...);
}

/// Rows x 4 columns: one ymm per row.
template <Out kOut, int... r>
inline void AxpyTile4(std::integer_sequence<int, r...>, const double* x,
                      size_t x_rs, size_t x_ds, const double* y, size_t y_ld,
                      int depth, double* out, size_t out_ld) {
  __m256d acc[] = {kOut == Out::kChain ? _mm256_loadu_pd(out + r * out_ld)
                                       : _mm256_setzero_pd()...};
  for (int d = 0; d < depth; ++d) {
    const __m256d yv = _mm256_loadu_pd(y + static_cast<size_t>(d) * y_ld);
    ((acc[r] = _mm256_fmadd_pd(_mm256_broadcast_sd(x + r * x_rs + d * x_ds),
                               yv, acc[r])),
     ...);
  }
  (Finish<kOut>(out + r * out_ld, acc[r]), ...);
}

/// Axpy form over R output rows and all ncols columns: 8-wide tiles, one
/// 4-wide tile, then the scalar multiply-then-add chain for the last
/// ncols % 4 columns.
template <int R, Out kOut>
void AxpyBlock(const double* x, size_t x_rs, size_t x_ds, const double* y,
               size_t y_ld, int depth, double* out, size_t out_ld,
               int ncols) {
  constexpr auto rows = std::make_integer_sequence<int, R>{};
  int j = 0;
  for (; j + 8 <= ncols; j += 8) {
    AxpyTile8<kOut>(rows, x, x_rs, x_ds, y + j, y_ld, depth, out + j, out_ld);
  }
  if (j + 4 <= ncols) {
    AxpyTile4<kOut>(rows, x, x_rs, x_ds, y + j, y_ld, depth, out + j, out_ld);
    j += 4;
  }
  for (; j < ncols; ++j) {
    for (int r = 0; r < R; ++r) {
      double* o = out + r * out_ld + j;
      double sum = kOut == Out::kChain ? *o : 0.0;
      for (int d = 0; d < depth; ++d) {
        sum += x[r * x_rs + d * x_ds] * y[static_cast<size_t>(d) * y_ld + j];
      }
      *o = kOut == Out::kAddSum ? *o + sum : sum;
    }
  }
}

/// AxpyBlock over any number of rows: blocks of four, then the remainder.
template <Out kOut>
void AxpyRows(int64_t rows, const double* x, size_t x_rs, size_t x_ds,
              const double* y, size_t y_ld, int depth, double* out,
              size_t out_ld, int ncols) {
  int64_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    AxpyBlock<4, kOut>(x + r * x_rs, x_rs, x_ds, y, y_ld, depth,
                       out + r * out_ld, out_ld, ncols);
  }
  x += r * x_rs;
  out += r * out_ld;
  switch (rows - r) {
    case 3:
      AxpyBlock<3, kOut>(x, x_rs, x_ds, y, y_ld, depth, out, out_ld, ncols);
      break;
    case 2:
      AxpyBlock<2, kOut>(x, x_rs, x_ds, y, y_ld, depth, out, out_ld, ncols);
      break;
    case 1:
      AxpyBlock<1, kOut>(x, x_rs, x_ds, y, y_ld, depth, out, out_ld, ncols);
      break;
    default:
      break;
  }
}

/// DotContig's four accumulators for the dots of x with y[d], d in the
/// pack, each summed to (acc0 + acc1) + (acc2 + acc3) into v[d]. acc_q
/// takes elements 16b + 4q .. 16b + 4q + 3 of each 16-block b; the 4-wide
/// blocks after the last 16-block go into acc0.
template <int... d>
inline void DotAccs(std::integer_sequence<int, d...>, const double* x,
                    const double* const* y, int len, __m256d* v) {
  __m256d acc0[] = {((void)d, _mm256_setzero_pd())...};
  __m256d acc1[] = {((void)d, _mm256_setzero_pd())...};
  __m256d acc2[] = {((void)d, _mm256_setzero_pd())...};
  __m256d acc3[] = {((void)d, _mm256_setzero_pd())...};
  int i = 0;
  for (; i + 16 <= len; i += 16) {
    const __m256d x0 = _mm256_loadu_pd(x + i);
    const __m256d x1 = _mm256_loadu_pd(x + i + 4);
    const __m256d x2 = _mm256_loadu_pd(x + i + 8);
    const __m256d x3 = _mm256_loadu_pd(x + i + 12);
    ((acc0[d] = _mm256_fmadd_pd(x0, _mm256_loadu_pd(y[d] + i), acc0[d])), ...);
    ((acc1[d] = _mm256_fmadd_pd(x1, _mm256_loadu_pd(y[d] + i + 4), acc1[d])),
     ...);
    ((acc2[d] = _mm256_fmadd_pd(x2, _mm256_loadu_pd(y[d] + i + 8), acc2[d])),
     ...);
    ((acc3[d] = _mm256_fmadd_pd(x3, _mm256_loadu_pd(y[d] + i + 12), acc3[d])),
     ...);
  }
  for (; i + 4 <= len; i += 4) {
    const __m256d xv = _mm256_loadu_pd(x + i);
    ((acc0[d] = _mm256_fmadd_pd(xv, _mm256_loadu_pd(y[d] + i), acc0[d])), ...);
  }
  ((v[d] = _mm256_add_pd(_mm256_add_pd(acc0[d], acc1[d]),
                         _mm256_add_pd(acc2[d], acc3[d]))),
   ...);
}

/// Dense dot product: 4 FMA accumulators, one horizontal reduction, then
/// the scalar tail.
inline double DotContig(const double* x, const double* y, int len) {
  __m256d v;
  DotAccs(std::integer_sequence<int, 0>{}, x, &y, len, &v);
  const __m128d pair =
      _mm_add_pd(_mm256_castpd256_pd128(v), _mm256_extractf128_pd(v, 1));
  double s = _mm_cvtsd_f64(_mm_add_sd(pair, _mm_unpackhi_pd(pair, pair)));
  for (int i = len - len % 4; i < len; ++i) s += x[i] * y[i];
  return s;
}

/// Four DotContig results in one vector (lane d = DotContig(x, y[d], len)):
/// two passes of two dots, one shared horizontal reduction, and the scalar
/// tail added lane-wise.
inline __m256d Dot4(const double* x, const double* const* y, int len) {
  __m256d v[4];
  DotAccs(std::integer_sequence<int, 0, 1>{}, x, y, len, v);
  DotAccs(std::integer_sequence<int, 0, 1>{}, x, y + 2, len, v + 2);
  // (lane0 + lane2, lane1 + lane3) of dots 0|1 and 2|3, then the pair sums.
  const __m256d p01 = _mm256_add_pd(_mm256_permute2f128_pd(v[0], v[1], 0x20),
                                    _mm256_permute2f128_pd(v[0], v[1], 0x31));
  const __m256d p23 = _mm256_add_pd(_mm256_permute2f128_pd(v[2], v[3], 0x20),
                                    _mm256_permute2f128_pd(v[2], v[3], 0x31));
  __m256d s = _mm256_permute4x64_pd(_mm256_hadd_pd(p01, p23), 0xD8);
  for (int i = len - len % 4; i < len; ++i) {
    s = _mm256_add_pd(
        s, _mm256_mul_pd(_mm256_set1_pd(x[i]),
                         _mm256_set_pd(y[3][i], y[2][i], y[1][i], y[0][i])));
  }
  return s;
}

/// Dot form over one output row: out[j] = (or +=) DotContig(x, y_j, len),
/// with y_j = y + j * y_ld, four columns per pass.
template <Out kOut>
void DotRow(const double* x, const double* y, size_t y_ld, int len,
            double* out, int ncols) {
  static_assert(kOut != Out::kChain);
  int j = 0;
  for (; j + 4 <= ncols; j += 4) {
    const double* ys[4] = {y + j * y_ld, y + (j + 1) * y_ld,
                           y + (j + 2) * y_ld, y + (j + 3) * y_ld};
    Finish<kOut>(out + j, Dot4(x, ys, len));
  }
  for (; j < ncols; ++j) {
    const double s = DotContig(x, y + j * y_ld, len);
    out[j] = kOut == Out::kAddSum ? out[j] + s : s;
  }
}

/// Calls fn(bt, r0, r1) for each run of output rows in [begin, end) that
/// shares one B operand. With a shared B all rows form one flat
/// [rows, k] x [k, n] product; a batched B ends a run at each batch.
template <class Fn>
void ForEachBRun(const MatMulShape& s, int64_t begin, int64_t end, Fn&& fn) {
  if (!s.b_batched) {
    fn(int64_t{0}, begin, end);
    return;
  }
  for (int64_t r = begin; r < end;) {
    const int64_t bt = r / s.m;
    const int64_t stop = std::min(end, (bt + 1) * s.m);
    fn(bt, r, stop);
    r = stop;
  }
}

class Avx2Backend : public NaiveBackend {
 public:
  const std::string& name() const override {
    static const std::string kName = "avx2";
    return kName;
  }

  // ---- MatMul (epsilon family) -------------------------------------------

  void MatMulFwd(const double* a, const double* b, double* c,
                 const MatMulShape& s) const override {
    const int n = s.n, k = s.k;
    const auto forward_rows = [&](int64_t begin, int64_t end) {
      ForEachBRun(s, begin, end, [&](int64_t bt, int64_t r0, int64_t r1) {
        const double* B = b + bt * s.b_stride();
        if (s.transpose_b) {
          for (int64_t r = r0; r < r1; ++r) {
            DotRow<Out::kStore>(a + r * k, B, k, k, c + r * n, n);
          }
        } else {
          AxpyRows<Out::kStore>(r1 - r0, a + r0 * k, k, 1, B, n, k,
                                c + r0 * n, n, n);
        }
      });
    };
    if (s.flops() >= kMatMulParallelFlops) {
      exec::ParallelForRange(s.rows(), forward_rows);
    } else {
      forward_rows(0, s.rows());
    }
  }

  void MatMulBwdA(const double* g, const double* b, double* ga,
                  const MatMulShape& s) const override {
    const int n = s.n, k = s.k;
    const auto backward_a = [&](int64_t begin, int64_t end) {
      ForEachBRun(s, begin, end, [&](int64_t bt, int64_t r0, int64_t r1) {
        const double* B = b + bt * s.b_stride();
        if (!s.transpose_b) {
          // GA[r, kk] += G[r, :] . B[kk, :], both stride-1.
          for (int64_t r = r0; r < r1; ++r) {
            DotRow<Out::kAddSum>(g + r * n, B, n, n, ga + r * k, k);
          }
        } else {
          // B rows are contiguous in kk: axpy broadcast(G[r, j]) * B[j, :].
          AxpyRows<Out::kChain>(r1 - r0, g + r0 * n, n, 1, B, k, n,
                                ga + r0 * k, k, k);
        }
      });
    };
    if (s.flops() >= kMatMulParallelFlops) {
      exec::ParallelForRange(s.rows(), backward_a);
    } else {
      backward_a(0, s.rows());
    }
  }

  void MatMulBwdB(const double* g, const double* a, double* gb,
                  const MatMulShape& s) const override {
    const int m = s.m, n = s.n, k = s.k;
    const bool parallel = s.flops() >= kMatMulParallelFlops;
    // GB rows [begin, end) of batch element bt: each element gets one add
    // of its own chain over i. Plain: GB[kk, j] += sum_i A[i, kk] G[i, j];
    // transposed: GB[j, kk] += sum_i G[i, j] A[i, kk].
    const auto gb_rows = [&](int64_t bt, double* GB, int64_t begin,
                             int64_t end) {
      const double* G = g + bt * s.c_stride();
      const double* A = a + bt * s.a_stride();
      if (!s.transpose_b) {
        AxpyRows<Out::kAddSum>(end - begin, A + begin, 1, k, G, n, m,
                               GB + begin * n, n, n);
      } else {
        AxpyRows<Out::kAddSum>(end - begin, G + begin, 1, n, A, k, m,
                               GB + begin * k, k, k);
      }
    };
    const int64_t rows = s.transpose_b ? n : k;
    if (s.b_batched) {
      const auto backward_b_batched = [&](int64_t begin, int64_t end) {
        for (int64_t bt = begin; bt < end; ++bt) {
          gb_rows(bt, gb + bt * s.b_stride(), 0, rows);
        }
      };
      if (parallel) {
        exec::ParallelForRange(s.batch, backward_b_batched);
      } else {
        backward_b_batched(0, s.batch);
      }
    } else {
      // Shared GB: partition its rows; every element still takes its adds
      // in ascending bt.
      const auto backward_b_shared = [&](int64_t begin, int64_t end) {
        for (int64_t bt = 0; bt < s.batch; ++bt) gb_rows(bt, gb, begin, end);
      };
      if (parallel) {
        exec::ParallelForRange(rows, backward_b_shared);
      } else {
        backward_b_shared(0, rows);
      }
    }
  }

  // ---- FFT (epsilon family) ----------------------------------------------

  Status FftPow2(std::complex<double>* a, size_t n,
                 bool inverse) const override {
    if (n < 4) return NaiveBackend::FftPow2(a, n, inverse);
    if (!IsPowerOfTwo(n)) {
      return Status::InvalidArgument(
          "FftPow2: size must be a nonzero power of two");
    }
    using Complex = std::complex<double>;
    // Bit-reversal permutation (scalar, identical to naive).
    for (size_t i = 1, j = 0; i < n; ++i) {
      size_t bit = n >> 1;
      for (; j & bit; bit >>= 1) j ^= bit;
      j ^= bit;
      if (i < j) std::swap(a[i], a[j]);
    }
    // len == 2 stage has unit twiddles: plain butterflies.
    for (size_t i = 0; i < n; i += 2) {
      const Complex u = a[i];
      const Complex v = a[i + 1];
      a[i] = u + v;
      a[i + 1] = u - v;
    }
    // Stages len >= 4: per-stage twiddle table filled with the same scalar
    // w *= wlen recurrence as naive, butterflies two complexes per ymm.
    std::vector<Complex> tw(n / 2);
    for (size_t len = 4; len <= n; len <<= 1) {
      const size_t half = len / 2;
      const double ang =
          2.0 * M_PI / static_cast<double>(len) * (inverse ? 1.0 : -1.0);
      const Complex wlen(std::cos(ang), std::sin(ang));
      Complex w(1.0, 0.0);
      for (size_t k = 0; k < half; ++k) {
        tw[k] = w;
        w *= wlen;
      }
      const double* twd = reinterpret_cast<const double*>(tw.data());
      for (size_t i = 0; i < n; i += len) {
        double* base = reinterpret_cast<double*>(a + i);
        double* mid = reinterpret_cast<double*>(a + i + half);
        for (size_t k = 0; k < half; k += 2) {
          const __m256d u = _mm256_loadu_pd(base + 2 * k);
          const __m256d v = _mm256_loadu_pd(mid + 2 * k);
          const __m256d wv = _mm256_loadu_pd(twd + 2 * k);
          const __m256d wr = _mm256_movedup_pd(wv);
          const __m256d wi = _mm256_permute_pd(wv, 0xF);
          const __m256d vswap = _mm256_permute_pd(v, 0x5);
          // (vr*wr - vi*wi, vi*wr + vr*wi) per complex lane.
          const __m256d vw =
              _mm256_fmaddsub_pd(v, wr, _mm256_mul_pd(vswap, wi));
          _mm256_storeu_pd(base + 2 * k, _mm256_add_pd(u, vw));
          _mm256_storeu_pd(mid + 2 * k, _mm256_sub_pd(u, vw));
        }
      }
    }
    if (inverse) {
      const __m256d inv = _mm256_set1_pd(1.0 / static_cast<double>(n));
      double* d = reinterpret_cast<double*>(a);
      for (size_t i = 0; i < 2 * n; i += 4) {
        _mm256_storeu_pd(d + i, _mm256_mul_pd(_mm256_loadu_pd(d + i), inv));
      }
    }
    return Status::OK();
  }

  // ---- Haar levels (bit-exact: add/sub then mul, never FMA) --------------

  void HaarLevelFwd(const double* in, double* out,
                    size_t half) const override {
    const __m256d inv = _mm256_set1_pd(kInvSqrt2);
    size_t i = 0;
    for (; i + 4 <= half; i += 4) {
      const __m256d x0 = _mm256_loadu_pd(in + 2 * i);      // e0 o0 e1 o1
      const __m256d x1 = _mm256_loadu_pd(in + 2 * i + 4);  // e2 o2 e3 o3
      __m256d ev = _mm256_unpacklo_pd(x0, x1);             // e0 e2 e1 e3
      __m256d od = _mm256_unpackhi_pd(x0, x1);             // o0 o2 o1 o3
      ev = _mm256_permute4x64_pd(ev, 0xD8);                // e0 e1 e2 e3
      od = _mm256_permute4x64_pd(od, 0xD8);
      _mm256_storeu_pd(out + i, _mm256_mul_pd(_mm256_add_pd(ev, od), inv));
      _mm256_storeu_pd(out + half + i,
                       _mm256_mul_pd(_mm256_sub_pd(ev, od), inv));
    }
    for (; i < half; ++i) {
      out[i] = (in[2 * i] + in[2 * i + 1]) * kInvSqrt2;
      out[half + i] = (in[2 * i] - in[2 * i + 1]) * kInvSqrt2;
    }
  }

  void HaarLevelInv(const double* in, double* out,
                    size_t half) const override {
    const __m256d inv = _mm256_set1_pd(kInvSqrt2);
    size_t i = 0;
    for (; i + 4 <= half; i += 4) {
      const __m256d av = _mm256_loadu_pd(in + i);
      const __m256d dv = _mm256_loadu_pd(in + half + i);
      const __m256d sum = _mm256_mul_pd(_mm256_add_pd(av, dv), inv);
      const __m256d dif = _mm256_mul_pd(_mm256_sub_pd(av, dv), inv);
      const __m256d lo = _mm256_unpacklo_pd(sum, dif);  // s0 f0 s2 f2
      const __m256d hi = _mm256_unpackhi_pd(sum, dif);  // s1 f1 s3 f3
      _mm256_storeu_pd(out + 2 * i, _mm256_permute2f128_pd(lo, hi, 0x20));
      _mm256_storeu_pd(out + 2 * i + 4, _mm256_permute2f128_pd(lo, hi, 0x31));
    }
    for (; i < half; ++i) {
      out[2 * i] = (in[i] + in[half + i]) * kInvSqrt2;
      out[2 * i + 1] = (in[i] - in[half + i]) * kInvSqrt2;
    }
  }

  // ---- scan stages (bit-exact) -------------------------------------------

  void ScanT(const double* src, double* dst, int64_t pillars, int ct,
             int t_lo) const override {
    // Four pillars per task: a 4x4 in-register transpose turns four
    // latency-bound serial chains into one vector chain; each element still
    // receives exactly its naive add d[t] = s[t] + d[t-1].
    const int64_t groups = pillars / 4;
    exec::ParallelForRange(groups, [&](int64_t begin, int64_t end) {
      for (int64_t gr = begin; gr < end; ++gr) {
        const double* s0 = src + static_cast<size_t>(4 * gr) * ct;
        const double* s1 = s0 + ct;
        const double* s2 = s1 + ct;
        const double* s3 = s2 + ct;
        double* d0 = dst + static_cast<size_t>(4 * gr) * ct;
        double* d1 = d0 + ct;
        double* d2 = d1 + ct;
        double* d3 = d2 + ct;
        int t = t_lo;
        __m256d carry;
        if (t == 0) {
          d0[0] = s0[0];
          d1[0] = s1[0];
          d2[0] = s2[0];
          d3[0] = s3[0];
          carry = _mm256_set_pd(d3[0], d2[0], d1[0], d0[0]);
          t = 1;
        } else {
          carry = _mm256_set_pd(d3[t - 1], d2[t - 1], d1[t - 1], d0[t - 1]);
        }
        for (; t + 4 <= ct; t += 4) {
          const __m256d r0 = _mm256_loadu_pd(s0 + t);
          const __m256d r1 = _mm256_loadu_pd(s1 + t);
          const __m256d r2 = _mm256_loadu_pd(s2 + t);
          const __m256d r3 = _mm256_loadu_pd(s3 + t);
          const __m256d t0 = _mm256_unpacklo_pd(r0, r1);
          const __m256d t1 = _mm256_unpackhi_pd(r0, r1);
          const __m256d t2 = _mm256_unpacklo_pd(r2, r3);
          const __m256d t3 = _mm256_unpackhi_pd(r2, r3);
          // c_j holds src[pillar 0..3] at time t + j.
          const __m256d c0in = _mm256_permute2f128_pd(t0, t2, 0x20);
          const __m256d c1in = _mm256_permute2f128_pd(t1, t3, 0x20);
          const __m256d c2in = _mm256_permute2f128_pd(t0, t2, 0x31);
          const __m256d c3in = _mm256_permute2f128_pd(t1, t3, 0x31);
          const __m256d c0 = _mm256_add_pd(c0in, carry);
          const __m256d c1 = _mm256_add_pd(c1in, c0);
          const __m256d c2 = _mm256_add_pd(c2in, c1);
          const __m256d c3 = _mm256_add_pd(c3in, c2);
          carry = c3;
          const __m256d u0 = _mm256_unpacklo_pd(c0, c1);
          const __m256d u1 = _mm256_unpackhi_pd(c0, c1);
          const __m256d u2 = _mm256_unpacklo_pd(c2, c3);
          const __m256d u3 = _mm256_unpackhi_pd(c2, c3);
          _mm256_storeu_pd(d0 + t, _mm256_permute2f128_pd(u0, u2, 0x20));
          _mm256_storeu_pd(d1 + t, _mm256_permute2f128_pd(u1, u3, 0x20));
          _mm256_storeu_pd(d2 + t, _mm256_permute2f128_pd(u0, u2, 0x31));
          _mm256_storeu_pd(d3 + t, _mm256_permute2f128_pd(u1, u3, 0x31));
        }
        if (t < ct) {
          alignas(32) double cbuf[4];
          _mm256_store_pd(cbuf, carry);
          const double* srcs[4] = {s0, s1, s2, s3};
          double* dsts[4] = {d0, d1, d2, d3};
          for (int lane = 0; lane < 4; ++lane) {
            double c = cbuf[lane];
            for (int tt = t; tt < ct; ++tt) {
              c = srcs[lane][tt] + c;
              dsts[lane][tt] = c;
            }
          }
        }
      }
    });
    // Remainder pillars: the naive serial chain.
    for (int64_t p = groups * 4; p < pillars; ++p) {
      const double* s = src + static_cast<size_t>(p) * ct;
      double* d = dst + static_cast<size_t>(p) * ct;
      for (int t = t_lo; t < ct; ++t) {
        d[t] = t == 0 ? s[t] : s[t] + d[t - 1];
      }
    }
  }

  void ScanY(const double* src, double* dst, int cx, int cy, int ct,
             int t_lo) const override {
    const size_t plane = static_cast<size_t>(cy) * ct;
    exec::ParallelForRange(cx, [&](int64_t begin, int64_t end) {
      for (int64_t x = begin; x < end; ++x) {
        const double* src_slab = src + static_cast<size_t>(x) * plane;
        double* dst_slab = dst + static_cast<size_t>(x) * plane;
        int t = t_lo;
        for (; t + 4 <= ct; t += 4) {
          _mm256_storeu_pd(dst_slab + t, _mm256_loadu_pd(src_slab + t));
        }
        for (; t < ct; ++t) dst_slab[t] = src_slab[t];
        for (int y = 1; y < cy; ++y) {
          const double* s = src_slab + static_cast<size_t>(y) * ct;
          double* d = dst_slab + static_cast<size_t>(y) * ct;
          const double* prev = d - ct;
          t = t_lo;
          for (; t + 4 <= ct; t += 4) {
            _mm256_storeu_pd(d + t, _mm256_add_pd(_mm256_loadu_pd(s + t),
                                                  _mm256_loadu_pd(prev + t)));
          }
          for (; t < ct; ++t) d[t] = s[t] + prev[t];
        }
      }
    });
  }

  void ScanX(const double* src, double* dst, int cx, int cy, int ct,
             int t_lo) const override {
    // x outer / contiguous t inner (the naive pass walks x innermost with a
    // plane-sized stride). Chains run along x per (y, t) element, so any
    // partition over y rows keeps the naive add order.
    const size_t plane = static_cast<size_t>(cy) * ct;
    exec::ParallelForRange(cy, [&](int64_t begin, int64_t end) {
      for (int64_t y = begin; y < end; ++y) {
        const size_t rowoff = static_cast<size_t>(y) * ct;
        int t = t_lo;
        for (; t + 4 <= ct; t += 4) {
          _mm256_storeu_pd(dst + rowoff + t, _mm256_loadu_pd(src + rowoff + t));
        }
        for (; t < ct; ++t) dst[rowoff + t] = src[rowoff + t];
        for (int x = 1; x < cx; ++x) {
          const size_t cur = static_cast<size_t>(x) * plane + rowoff;
          const size_t prev = cur - plane;
          t = t_lo;
          for (; t + 4 <= ct; t += 4) {
            _mm256_storeu_pd(dst + cur + t,
                             _mm256_add_pd(_mm256_loadu_pd(src + cur + t),
                                           _mm256_loadu_pd(dst + prev + t)));
          }
          for (; t < ct; ++t) dst[cur + t] = src[cur + t] + dst[prev + t];
        }
      }
    });
  }

  // ---- Laplace sampler (bit-exact) ---------------------------------------
  // The integer pipeline — ForkSeed stream hashing, the four splitmix64
  // state expansions, and the single xoshiro output — runs four elements
  // per ymm; the double transform stays scalar so every rounding step
  // matches rng.cc. GeometricBatch is NOT overridden: its rejection loop
  // has data-dependent length, so it inherits the scalar oracle.

  void LaplaceBatch(const double* in, double* out, size_t n, double scale,
                    const Rng& base) const override {
    // ForkSeed(i) = state_hash ^ mix(i ^ salt + golden); recover state_hash
    // from ForkSeed(0) so the per-lane seeds need only the vector mix.
    uint64_t t0 = 0 ^ kStreamSalt;
    const uint64_t state_hash = base.ForkSeed(0) ^ SplitMix64Scalar(&t0);
    const __m256i vstate = _mm256_set1_epi64x(static_cast<long long>(state_hash));
    const __m256i vsalt = _mm256_set1_epi64x(static_cast<long long>(kStreamSalt));
    const auto sample_range = [&](int64_t begin, int64_t end) {
      alignas(32) uint64_t ubuf[4];
      int64_t i = begin;
      for (; i + 4 <= end; i += 4) {
        const __m256i idx = _mm256_set_epi64x(i + 3, i + 2, i + 1, i);
        __m256i z = _mm256_xor_si256(idx, vsalt);
        z = _mm256_add_epi64(z, _mm256_set1_epi64x(static_cast<long long>(kGolden)));
        const __m256i seed = _mm256_xor_si256(vstate, SplitMixBody(z));
        const __m256i s0 = SplitMixBody(_mm256_add_epi64(
            seed, _mm256_set1_epi64x(static_cast<long long>(1 * kGolden))));
        const __m256i s3 = SplitMixBody(_mm256_add_epi64(
            seed, _mm256_set1_epi64x(static_cast<long long>(4 * kGolden))));
        // First xoshiro256++ output: rotl(s0 + s3, 23) + s0. (s1/s2 only
        // matter for later draws; Laplace consumes a single uniform.)
        const __m256i u =
            _mm256_add_epi64(Rotl64(_mm256_add_epi64(s0, s3), 23), s0);
        _mm256_store_si256(reinterpret_cast<__m256i*>(ubuf), u);
        for (int lane = 0; lane < 4; ++lane) {
          const double nd = static_cast<double>(ubuf[lane] >> 11) * 0x1.0p-53;
          const double uu = nd - 0.5;
          const double sign = (uu < 0.0) ? -1.0 : 1.0;
          out[i + lane] =
              in[i + lane] +
              -scale * sign * std::log(1.0 - 2.0 * std::fabs(uu));
        }
      }
      for (; i < end; ++i) {
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
};

}  // namespace

const Backend* Avx2BackendInstance() {
  if (!CpuHasAvx2()) return nullptr;
  static const Avx2Backend backend;
  return &backend;
}

}  // namespace stpt::kernels

#else  // !defined(__x86_64__)

namespace stpt::kernels {
const Backend* Avx2BackendInstance() { return nullptr; }
}  // namespace stpt::kernels

#endif
