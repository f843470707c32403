#ifndef STPT_KERNELS_INTERNAL_H_
#define STPT_KERNELS_INTERNAL_H_

// Implementation-shared declarations for the kernel backends. Not part of
// the public API — consumers use backend.h (Registry / Default / GetBackend).

#include "kernels/backend.h"

namespace stpt::kernels {

/// The scalar reference implementation — the oracle every optimized backend
/// is checked against. The loop bodies are the pre-backend scalar code from
/// nn/ops.cc, signal/fft.cc, signal/wavelet.cc, grid/consumption_matrix.cc,
/// ingest/incremental_prefix.cc, and dp/mechanisms.cc, moved verbatim so the
/// numeric history of the repo is unchanged.
class NaiveBackend : public Backend {
 public:
  const std::string& name() const override;

  void MatMulFwd(const double* a, const double* b, double* c,
                 const MatMulShape& s) const override;
  void MatMulBwdA(const double* g, const double* b, double* ga,
                  const MatMulShape& s) const override;
  void MatMulBwdB(const double* g, const double* a, double* gb,
                  const MatMulShape& s) const override;
  Status FftPow2(std::complex<double>* data, size_t n,
                 bool inverse) const override;
  void HaarLevelFwd(const double* in, double* out, size_t half) const override;
  void HaarLevelInv(const double* in, double* out, size_t half) const override;
  void ScanT(const double* src, double* dst, int64_t pillars, int ct,
             int t_lo) const override;
  void ScanY(const double* src, double* dst, int cx, int cy, int ct,
             int t_lo) const override;
  void ScanX(const double* src, double* dst, int cx, int cy, int ct,
             int t_lo) const override;
  void LaplaceBatch(const double* in, double* out, size_t n, double scale,
                    const Rng& base) const override;
  void GeometricBatch(const int64_t* in, int64_t* out, size_t n, double alpha,
                      const Rng& base) const override;
};

/// The naive singleton (always available).
const Backend* NaiveBackendInstance();

/// The AVX2/FMA singleton, or nullptr when the build targets a non-x86-64
/// architecture or the running CPU lacks AVX2/FMA (checked once via CPUID).
const Backend* Avx2BackendInstance();

/// Products of fewer than this many multiply-adds (MatMulShape::flops(),
/// batch·m·n·k) run inline instead of on the exec pool. Shared by both
/// backends so dispatch behaviour is part of the oracle contract, not an
/// implementation detail. On a 4-vCPU VM a dispatch costs 20-30 us, the
/// inline avx2 kernels beat the 2-thread pool for every kernel below
/// 2^18.5, and the pool starts to win somewhere between 2^18.5 (BwdA) and
/// 2^21 (forward); 2^20 sits in that band (EXPERIMENTS.md, "Register-
/// blocked MatMul"). Every product an STPT release trains on runs inline.
inline constexpr int64_t kMatMulParallelFlops = int64_t{1} << 20;

}  // namespace stpt::kernels

#endif  // STPT_KERNELS_INTERNAL_H_
