#include "grid/consumption_matrix.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <new>
#include <stdexcept>
#include <string>

#include "exec/parallel.h"
#include "kernels/backend.h"

#if defined(__x86_64__)
#include <emmintrin.h>
#endif

namespace stpt::grid {

StatusOr<ConsumptionMatrix> ConsumptionMatrix::Create(Dims dims) {
  if (dims.cx <= 0 || dims.cy <= 0 || dims.ct <= 0) {
    return Status::InvalidArgument("ConsumptionMatrix: dimensions must be positive");
  }
  // Dims often come straight from a parsed header (CSV, snapshot container),
  // so an allocation failure is an input problem, not a programming error:
  // surface it as a Status instead of an uncaught bad_alloc.
  try {
    return ConsumptionMatrix(dims);
  } catch (const std::bad_alloc&) {
    return Status::ResourceExhausted("ConsumptionMatrix: cannot allocate " +
                                     std::to_string(dims.NumCells()) + " cells");
  } catch (const std::length_error&) {
    return Status::ResourceExhausted("ConsumptionMatrix: cannot allocate " +
                                     std::to_string(dims.NumCells()) + " cells");
  }
}

std::vector<double> ConsumptionMatrix::Pillar(int x, int y) const {
  assert(x >= 0 && x < dims_.cx && y >= 0 && y < dims_.cy);
  const size_t base = Index(x, y, 0);
  return std::vector<double>(data_.begin() + base, data_.begin() + base + dims_.ct);
}

Status ConsumptionMatrix::SetPillar(int x, int y, const std::vector<double>& series) {
  if (x < 0 || x >= dims_.cx || y < 0 || y >= dims_.cy) {
    return Status::OutOfRange("SetPillar: cell out of range");
  }
  if (static_cast<int>(series.size()) != dims_.ct) {
    return Status::InvalidArgument("SetPillar: series length must equal ct");
  }
  std::copy(series.begin(), series.end(), data_.begin() + Index(x, y, 0));
  return Status::OK();
}

double ConsumptionMatrix::MinValue() const {
  return *std::min_element(data_.begin(), data_.end());
}

double ConsumptionMatrix::MaxValue() const {
  return *std::max_element(data_.begin(), data_.end());
}

ConsumptionMatrix::Extrema ConsumptionMatrix::MinMax() const {
#if defined(__x86_64__)
  // SSE2 lanes, two accumulators of each kind. minpd/maxpd settle a tie
  // between +0 and -0, and a NaN, by operand order, not by position, so a
  // lane result can differ in bits from the first-occurrence scan only when
  // it is a zero or some element is a NaN. Those cases, and any infinity,
  // take the scalar path below; otherwise equal values have equal bits.
  const double* p = data_.data();
  const size_t n = data_.size();
  if (n >= 4) {
    __m128d lo_a = _mm_loadu_pd(p);
    __m128d lo_b = _mm_loadu_pd(p + 2);
    __m128d hi_a = lo_a;
    __m128d hi_b = lo_b;
    __m128d nan = _mm_cmpunord_pd(lo_a, lo_b);
    // The last step overlaps its predecessor when n is not a multiple of 4,
    // which min and max do not mind.
    for (size_t i = 4; i < n; i += 4) {
      const double* q = p + std::min(i, n - 4);
      const __m128d a = _mm_loadu_pd(q);
      const __m128d b = _mm_loadu_pd(q + 2);
      lo_a = _mm_min_pd(lo_a, a);
      lo_b = _mm_min_pd(lo_b, b);
      hi_a = _mm_max_pd(hi_a, a);
      hi_b = _mm_max_pd(hi_b, b);
      nan = _mm_or_pd(nan, _mm_cmpunord_pd(a, b));
    }
    const __m128d lo = _mm_min_pd(lo_a, lo_b);
    const __m128d hi = _mm_max_pd(hi_a, hi_b);
    const double min = std::min(_mm_cvtsd_f64(lo), _mm_cvtsd_f64(_mm_unpackhi_pd(lo, lo)));
    const double max = std::max(_mm_cvtsd_f64(hi), _mm_cvtsd_f64(_mm_unpackhi_pd(hi, hi)));
    if (_mm_movemask_pd(nan) == 0 && std::isfinite(min) && std::isfinite(max) &&
        min != 0.0 && max != 0.0) {
      return {min, max};
    }
  }
#endif
  return {MinValue(), MaxValue()};
}

ConsumptionMatrix ConsumptionMatrix::Normalized() const {
  ConsumptionMatrix out(dims_);
  const double lo = MinValue();
  const double hi = MaxValue();
  const double range = hi - lo;
  if (range <= 0.0) return out;  // constant matrix -> all zeros
  exec::ParallelForRange(
      static_cast<int64_t>(data_.size()), [&](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) {
          out.data_[i] = (data_[i] - lo) / range;
        }
      });
  return out;
}

double ConsumptionMatrix::BoxSum(int x0, int x1, int y0, int y1, int t0, int t1) const {
  assert(0 <= x0 && x0 <= x1 && x1 < dims_.cx);
  assert(0 <= y0 && y0 <= y1 && y1 < dims_.cy);
  assert(0 <= t0 && t0 <= t1 && t1 < dims_.ct);
  double s = 0.0;
  for (int x = x0; x <= x1; ++x) {
    for (int y = y0; y <= y1; ++y) {
      const size_t base = Index(x, y, 0);
      for (int t = t0; t <= t1; ++t) s += data_[base + t];
    }
  }
  return s;
}

double ConsumptionMatrix::TotalSum() const {
  double s = 0.0;
  for (double v : data_) s += v;
  return s;
}

PrefixSum3D::PrefixSum3D(const ConsumptionMatrix& m,
                         const kernels::Backend* backend)
    : dims_(m.dims()), pre_(m.data()) {
  // Three separable in-place scans, one per axis, via the kernel backend.
  // Every output element sees a fixed accumulation order regardless of
  // backend or thread count, so the build is bit-identical everywhere (the
  // association differs from the classic inclusion–exclusion recurrence,
  // but is deterministic in itself).
  if (backend == nullptr) backend = kernels::Default();
  const int cx = dims_.cx;
  const int cy = dims_.cy;
  const int ct = dims_.ct;
  double* p = pre_.data();
  backend->ScanT(p, p, static_cast<int64_t>(cx) * cy, ct, /*t_lo=*/0);
  backend->ScanY(p, p, cx, cy, ct, /*t_lo=*/0);
  backend->ScanX(p, p, cx, cy, ct, /*t_lo=*/0);
}

StatusOr<PrefixSum3D> PrefixSum3D::FromRaw(Dims dims, std::vector<double> prefix) {
  if (dims.cx <= 0 || dims.cy <= 0 || dims.ct <= 0) {
    return Status::InvalidArgument("PrefixSum3D::FromRaw: dimensions must be positive");
  }
  if (prefix.size() != dims.NumCells()) {
    return Status::InvalidArgument("PrefixSum3D::FromRaw: prefix size does not match dims");
  }
  return PrefixSum3D(dims, std::move(prefix));
}

double PrefixSum3D::BoxSum(int x0, int x1, int y0, int y1, int t0, int t1) const {
  assert(0 <= x0 && x0 <= x1 && x1 < dims_.cx);
  assert(0 <= y0 && y0 <= y1 && y1 < dims_.cy);
  assert(0 <= t0 && t0 <= t1 && t1 < dims_.ct);
  double s = P(x1, y1, t1);
  s -= P(x0 - 1, y1, t1) + P(x1, y0 - 1, t1) + P(x1, y1, t0 - 1);
  s += P(x0 - 1, y0 - 1, t1) + P(x0 - 1, y1, t0 - 1) + P(x1, y0 - 1, t0 - 1);
  s -= P(x0 - 1, y0 - 1, t0 - 1);
  return s;
}

}  // namespace stpt::grid
