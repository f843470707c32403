#ifndef STPT_GRID_CONSUMPTION_MATRIX_H_
#define STPT_GRID_CONSUMPTION_MATRIX_H_

#include <cstddef>
#include <vector>

#include "common/status.h"

namespace stpt::kernels {
class Backend;
}  // namespace stpt::kernels

namespace stpt::grid {

/// Dimensions of a consumption matrix: Cx × Cy spatial cells × Ct time slices.
struct Dims {
  int cx = 0;
  int cy = 0;
  int ct = 0;

  bool operator==(const Dims&) const = default;
  size_t NumCells() const {
    return static_cast<size_t>(cx) * static_cast<size_t>(cy) *
           static_cast<size_t>(ct);
  }
};

/// Dense spatio-temporal electricity consumption matrix (paper §3.1).
///
/// Element (x, y, t) is the aggregate consumption in spatial cell (x, y)
/// during time slice t. Storage is row-major with time innermost, so a
/// "pillar" — all slices of one cell, the per-location time series — is
/// contiguous.
class ConsumptionMatrix {
 public:
  /// Creates a zero-initialised matrix. Returns InvalidArgument for
  /// non-positive dimensions.
  static StatusOr<ConsumptionMatrix> Create(Dims dims);

  ConsumptionMatrix() = default;

  const Dims& dims() const { return dims_; }
  size_t size() const { return data_.size(); }

  double at(int x, int y, int t) const { return data_[Index(x, y, t)]; }
  void set(int x, int y, int t, double v) { data_[Index(x, y, t)] = v; }
  void add(int x, int y, int t, double v) { data_[Index(x, y, t)] += v; }

  /// Raw contiguous storage (x-major, then y, then t).
  const std::vector<double>& data() const { return data_; }
  std::vector<double>& mutable_data() { return data_; }

  /// Returns a copy of the pillar (time series) of cell (x, y).
  std::vector<double> Pillar(int x, int y) const;

  /// Overwrites the pillar of cell (x, y). Series length must equal ct.
  Status SetPillar(int x, int y, const std::vector<double>& series);

  /// Global extrema over all elements: the first smallest and the first
  /// largest element under `<`, as std::min_element / std::max_element
  /// find them.
  double MinValue() const;
  double MaxValue() const;

  struct Extrema {
    double min;
    double max;
  };
  /// MinValue() and MaxValue(), bit for bit, from one scan.
  Extrema MinMax() const;

  /// Min-max normalises a copy of this matrix to [0, 1] (paper Eq. 6).
  /// If the matrix is constant, returns an all-zero matrix.
  ConsumptionMatrix Normalized() const;

  /// Sum over an inclusive box [x0,x1] × [y0,y1] × [t0,t1]. O(volume).
  /// For repeated queries build a PrefixSum3D instead.
  double BoxSum(int x0, int x1, int y0, int y1, int t0, int t1) const;

  /// Sum of all elements.
  double TotalSum() const;

 private:
  explicit ConsumptionMatrix(Dims dims)
      : dims_(dims), data_(dims.NumCells(), 0.0) {}

  size_t Index(int x, int y, int t) const {
    return (static_cast<size_t>(x) * dims_.cy + y) * dims_.ct + t;
  }

  Dims dims_;
  std::vector<double> data_;
};

/// 3-D inclusive prefix-sum structure for O(1) range-sum queries over a
/// consumption matrix. Build is O(N); used by the query-evaluation harness
/// where hundreds of range queries are issued per experiment.
class PrefixSum3D {
 public:
  /// Builds prefix sums over the given matrix via the three separable scan
  /// passes of the kernel backend (`backend`, or the process default when
  /// null). All backends produce bit-identical scans, so the choice affects
  /// build speed only.
  explicit PrefixSum3D(const ConsumptionMatrix& m,
                       const kernels::Backend* backend = nullptr);

  /// Adopts precomputed inclusive prefix sums in the canonical (x, y, t)
  /// row-major layout — the exact vector a prior build's raw() returned,
  /// such as a decoded serve::Snapshot's table (rebuilt from its release on
  /// decode) or the ingest pipeline's incrementally maintained one. Adopting
  /// moves the table in, with no second O(N) scan. Returns InvalidArgument
  /// when the size does not match dims.
  static StatusOr<PrefixSum3D> FromRaw(Dims dims, std::vector<double> prefix);

  /// Sum over the inclusive box [x0,x1] × [y0,y1] × [t0,t1].
  /// Bounds must lie inside the matrix and be ordered.
  double BoxSum(int x0, int x1, int y0, int y1, int t0, int t1) const;

  const Dims& dims() const { return dims_; }

  /// The raw inclusive prefix table, (x, y, t) row-major.
  const std::vector<double>& raw() const { return pre_; }

 private:
  PrefixSum3D(Dims dims, std::vector<double> pre)
      : dims_(dims), pre_(std::move(pre)) {}

  double P(int x, int y, int t) const {  // prefix value with -1 guards
    if (x < 0 || y < 0 || t < 0) return 0.0;
    return pre_[(static_cast<size_t>(x) * dims_.cy + y) * dims_.ct + t];
  }

  Dims dims_;
  std::vector<double> pre_;
};

}  // namespace stpt::grid

#endif  // STPT_GRID_CONSUMPTION_MATRIX_H_
