#include "ingest/incremental_prefix.h"

#include <cmath>
#include <cstring>

namespace stpt::ingest {

IncrementalPrefix::IncrementalPrefix(grid::Dims dims)
    : dims_(dims),
      matrix_(*grid::ConsumptionMatrix::Create(dims)),
      scan_t_(dims.NumCells(), 0.0),
      row_(static_cast<size_t>(dims.ct), 0.0),
      prefix_(dims.NumCells(), 0.0),
      slot_extrema_(static_cast<size_t>(dims.ct)),
      dirty_lo_(dims.ct) {}

StatusOr<IncrementalPrefix> IncrementalPrefix::Create(grid::Dims dims) {
  if (dims.cx <= 0 || dims.cy <= 0 || dims.ct <= 0) {
    return Status::InvalidArgument(
        "IncrementalPrefix: dimensions must be positive");
  }
  return IncrementalPrefix(dims);
}

Status IncrementalPrefix::Add(int x, int y, int t, double v) {
  if (x < 0 || x >= dims_.cx || y < 0 || y >= dims_.cy || t < 0 ||
      t >= dims_.ct) {
    return Status::InvalidArgument("IncrementalPrefix::Add: out of bounds");
  }
  matrix_.add(x, y, t, v);
  slot_extrema_[static_cast<size_t>(t)].exact = false;
  if (t < dirty_lo_) dirty_lo_ = t;
  return Status::OK();
}

Status IncrementalPrefix::SetSlice(int t, const std::vector<double>& values) {
  if (t < 0 || t >= dims_.ct) {
    return Status::InvalidArgument("IncrementalPrefix::SetSlice: bad timestep");
  }
  if (values.size() != static_cast<size_t>(dims_.cx) * dims_.cy) {
    return Status::InvalidArgument(
        "IncrementalPrefix::SetSlice: values size must be cx*cy");
  }
  SlotExtrema extrema{values[0], values[0], true};
  size_t i = 0;
  for (int x = 0; x < dims_.cx; ++x) {
    for (int y = 0; y < dims_.cy; ++y) {
      const double v = values[i++];
      matrix_.set(x, y, t, v);
      if (v < extrema.min) extrema.min = v;
      if (extrema.max < v) extrema.max = v;
      extrema.exact &= std::isfinite(v);
    }
  }
  slot_extrema_[static_cast<size_t>(t)] = extrema;
  if (t < dirty_lo_) dirty_lo_ = t;
  return Status::OK();
}

Status IncrementalPrefix::SetSliceLogical(int64_t t,
                                          const std::vector<double>& values) {
  if (t < 0) {
    return Status::InvalidArgument(
        "IncrementalPrefix::SetSliceLogical: negative timestep");
  }
  return SetSlice(SlotFor(t), values);
}

grid::ConsumptionMatrix::Extrema IncrementalPrefix::MinMax() const {
  grid::ConsumptionMatrix::Extrema folded{slot_extrema_[0].min,
                                          slot_extrema_[0].max};
  bool exact = true;
  for (const SlotExtrema& slot : slot_extrema_) {
    if (slot.min < folded.min) folded.min = slot.min;
    if (folded.max < slot.max) folded.max = slot.max;
    exact &= slot.exact;
  }
  // Only +0 and -0 compare equal with different bits among finite values,
  // so a nonzero min or max is the same double wherever it occurs.
  if (!exact || folded.min == 0.0 || folded.max == 0.0) return matrix_.MinMax();
  return folded;
}

int64_t IncrementalPrefix::Flush() {
  if (dirty_lo_ >= dims_.ct) return 0;
  const int cx = dims_.cx;
  const int cy = dims_.cy;
  const int ct = dims_.ct;
  const int lo = dirty_lo_;
  const size_t plane = static_cast<size_t>(cy) * ct;
  const size_t bytes = static_cast<size_t>(ct - lo) * sizeof(double);

  // grid::PrefixSum3D's three passes, fused per pillar and restricted to
  // [lo, ct). The t-scan reads the clean value at t = lo - 1 the previous
  // Flush left behind; the y- and x-passes are elementwise in t and need
  // none. Per element:
  //   scan_t[x,y,t] = m[x,y,t] + scan_t[x,y,t-1]    (t = 0: copy)
  //   row[t]        = scan_t[x,y,t] + row[t]        (y = 0: copy)
  //   prefix[x,y,t] = row[t] + prefix[x-1,y,t]      (x = 0: copy)
  // where row holds the y-scan of pillar (x, y-1) on entry — the adds and
  // operands of the backends' ScanT, ScanY and ScanX.
  const double* m = matrix_.data().data();
  double* row = row_.data() + lo;
  for (int x = 0; x < cx; ++x) {
    for (int y = 0; y < cy; ++y) {
      const size_t base = static_cast<size_t>(x) * plane +
                          static_cast<size_t>(y) * ct;
      const double* mp = m + base;
      double* sp = scan_t_.data() + base;
      int t = lo;
      if (t == 0) {
        sp[0] = mp[0];
        t = 1;
      }
      for (; t < ct; ++t) sp[t] = mp[t] + sp[t - 1];

      const double* s = sp + lo;
      if (y == 0) {
        std::memcpy(row, s, bytes);
      } else {
        for (int i = 0; i < ct - lo; ++i) row[i] = s[i] + row[i];
      }

      double* p = prefix_.data() + base + lo;
      if (x == 0) {
        std::memcpy(p, row, bytes);
      } else {
        const double* prev = p - plane;
        for (int i = 0; i < ct - lo; ++i) p[i] = row[i] + prev[i];
      }
    }
  }

  dirty_lo_ = ct;
  return ct - lo;
}

}  // namespace stpt::ingest
