#ifndef STPT_KERNELS_CHECKER_H_
#define STPT_KERNELS_CHECKER_H_

#include <cstdint>

#include "kernels/backend.h"

namespace stpt::kernels {

/// Differential test harness: runs one kernel on a reference backend and a
/// backend under test over identical RNG-filled inputs and compares the
/// outputs under that kernel family's contract (backend.h) — bitwise for
/// Haar levels, scan passes, and samplers; relative-epsilon for MatMul and
/// FFT. Modeled on the InferLLM CheckerHelper (naive device as oracle).
///
/// Every Check* method returns OK on agreement and Internal with the first
/// offending index, both values, and the error magnitude on mismatch, so a
/// failing test names the exact divergent element.
class Checker {
 public:
  Checker(const Backend* reference, const Backend* test)
      : ref_(reference), test_(test) {}

  /// MatMul forward, backward-A, and backward-B over one shape. Gradient
  /// accumulators are prefilled with RNG values so the += contract is
  /// exercised. Epsilon-bounded (FMA/vector accumulators reassociate).
  Status CheckMatMul(const MatMulShape& s, uint64_t seed, double epsilon) const;

  /// Forward-then-inverse radix-2 FFT on an RNG-filled complex vector.
  /// Epsilon-bounded. Also verifies both backends reject non-power-of-two
  /// and zero sizes with InvalidArgument.
  Status CheckFft(size_t n, uint64_t seed, double epsilon) const;

  /// Haar forward + inverse on an RNG-filled vector. Bit-exact.
  Status CheckHaar(size_t n, uint64_t seed) const;

  /// All three scan passes over an RNG-filled (cx, cy, ct) volume with the
  /// given dirty bound, both in the staged src->dst form, which only this
  /// checker runs, and the aliased in-place form (the full build).
  /// Bit-exact.
  Status CheckScan(int cx, int cy, int ct, int t_lo, uint64_t seed) const;

  /// Laplace batch sampling from a shared base Rng. Bit-exact: Fork(i)
  /// substreams pin every element's draw regardless of backend.
  Status CheckLaplace(size_t n, double scale, uint64_t seed) const;

  /// Two-sided geometric batch sampling. Bit-exact.
  Status CheckGeometric(size_t n, double alpha, uint64_t seed) const;

 private:
  const Backend* ref_;
  const Backend* test_;
};

}  // namespace stpt::kernels

#endif  // STPT_KERNELS_CHECKER_H_
