#ifndef STPT_INGEST_INCREMENTAL_PREFIX_H_
#define STPT_INGEST_INCREMENTAL_PREFIX_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "grid/consumption_matrix.h"

namespace stpt::ingest {

/// Incrementally maintained 3-D inclusive prefix sums over a consumption
/// matrix whose mutations are concentrated in a trailing time range — the
/// streaming-ingest access pattern, where each epoch appends or republishes
/// a few time slices and everything before them is already final.
///
/// grid::PrefixSum3D builds with three separable scans (t per pillar, then
/// y per x-slab, then x across the (y, t) plane). The y and x passes are
/// elementwise in t, so a slice at time t only ever influences prefix
/// entries with the same or a later t. IncrementalPrefix keeps the t-scan
/// plane alongside the final table and, on Flush, re-runs the dirty
/// t-suffix of all three passes in one walk over the pillars in (x, y)
/// order: each pillar's t-scan, then its y-carry into a ct-long row that
/// holds the previous pillar's y-scan, then its x-add onto the pillar one
/// slab back. No intermediate plane is stored, and no exec region is
/// dispatched.
///
/// Bit-identity contract: after Flush, prefix() equals what
/// `grid::PrefixSum3D(matrix()).raw()` would produce, bitwise, at any
/// thread count and under every kernel backend. Each element receives the
/// add the backends' ScanT/ScanY/ScanX give it, with the same operands,
/// and the t = 0, y = 0 and x = 0 edges are copies, as there, so a -0.0
/// keeps its sign. Property tests enforce this against randomized mutation
/// sequences, ring laps and signed zeros at 1 and 8 threads and across
/// naive/AVX2.
///
/// Cost: O(cx * cy * (ct - dirty_lo)) per Flush instead of O(cx * cy * ct),
/// for 2 extra arrays of matrix size. Not thread-safe; callers (the ingest
/// pipeline) serialize access per shard.
class IncrementalPrefix {
 public:
  /// Creates a zeroed accumulator. Returns InvalidArgument for non-positive
  /// dimensions.
  static StatusOr<IncrementalPrefix> Create(grid::Dims dims);

  /// Overwrites the whole time slice t and records its extrema. `values`
  /// holds cx*cy entries in (x, y) row-major order. Returns InvalidArgument
  /// on a bad t or size.
  Status SetSlice(int t, const std::vector<double>& values);

  /// Ring write: overwrites the slice at physical slot `t % ct` for a
  /// logical timestep t >= 0 that may exceed the horizon. The streaming
  /// pipeline's accumulator is a ring over ct timesteps — once the stream
  /// outlives the grid, each publication of logical slice t replaces the
  /// release of t - ct, and the prefix table keeps covering the most recent
  /// lap. Returns InvalidArgument for negative t or a bad size.
  Status SetSliceLogical(int64_t t, const std::vector<double>& values);

  /// The physical slot a logical timestep lands in (t % ct; t >= 0).
  int SlotFor(int64_t t) const { return static_cast<int>(t % dims_.ct); }

  /// Recomputes the dirty t-suffix of the prefix table (no-op when clean).
  /// Returns the number of timesteps rescanned.
  int64_t Flush();

  /// True when mutations since the last Flush left prefix() stale.
  bool dirty() const { return dirty_lo_ < dims_.ct; }

  /// matrix().MinMax(), bit for bit, folded from the per-slot extrema
  /// SetSlice records: ct pairs instead of a scan of every cell. Equal
  /// doubles have equal bits unless they are zeros, so the fold is exact
  /// whenever its min and max are nonzero. It scans the matrix instead
  /// when either is a zero or when a slot holds a NaN or an infinity.
  grid::ConsumptionMatrix::Extrema MinMax() const;

  const grid::Dims& dims() const { return dims_; }

  /// The base matrix (always current).
  const grid::ConsumptionMatrix& matrix() const { return matrix_; }

  /// The inclusive prefix table, (x, y, t) row-major. Valid after Flush;
  /// stale for dirty timesteps until then.
  const std::vector<double>& prefix() const { return prefix_; }

 private:
  /// A slot's min and max as the first smallest and first largest of its
  /// cells under `<`, and whether every cell of the slot is finite.
  struct SlotExtrema {
    double min = 0.0;
    double max = 0.0;
    bool finite = true;
  };

  explicit IncrementalPrefix(grid::Dims dims);

  grid::Dims dims_;
  grid::ConsumptionMatrix matrix_;
  std::vector<double> scan_t_;  ///< pass 1: t-scanned per pillar
  std::vector<double> row_;     ///< pass 2 of one pillar: y-scanned, ct long
  std::vector<double> prefix_;  ///< pass 3: fully scanned
  std::vector<SlotExtrema> slot_extrema_;  ///< one per slot; zeros at start
  int dirty_lo_;                           ///< first dirty timestep (ct = clean)
};

}  // namespace stpt::ingest

#endif  // STPT_INGEST_INCREMENTAL_PREFIX_H_
