#ifndef STPT_SERVE_SNAPSHOT_H_
#define STPT_SERVE_SNAPSHOT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "grid/consumption_matrix.h"

namespace stpt::serve {

/// Publication metadata carried alongside the sanitized matrix so that a
/// serving process can report what it is serving without re-running the
/// pipeline: which algorithm produced the release, the privacy budget and
/// its split, and the normalization extrema of the release region.
struct SnapshotMeta {
  std::string algorithm;      ///< e.g. "stpt", "identity", "fourier10"
  double eps_total = 0.0;     ///< total privacy budget of the release
  double eps_pattern = 0.0;   ///< budget spent on pattern recognition
  double eps_sanitize = 0.0;  ///< budget spent on sanitization
  int32_t t_train = 0;        ///< training slices withheld from the release
  double norm_min = 0.0;      ///< min cell value of the release
  double norm_max = 0.0;      ///< max cell value of the release

  bool operator==(const SnapshotMeta&) const = default;
};

/// A published release: everything an analyst-facing query server needs,
/// persisted once by the data owner and then served read-only.
///
/// `prefix` is the inclusive 3-D prefix-sum table of `sanitized` in the
/// same (x, y, t) row-major layout (`grid::PrefixSum3D::raw()`), stored so
/// that a server can start answering O(1) range sums without an O(N)
/// rebuild on load.
struct Snapshot {
  SnapshotMeta meta;
  grid::ConsumptionMatrix sanitized;
  std::vector<double> prefix;

  /// Builds a snapshot from a sanitized matrix: computes the prefix table
  /// and the normalization extrema (meta.norm_min/max are overwritten).
  static Snapshot FromMatrix(const grid::ConsumptionMatrix& sanitized,
                             SnapshotMeta meta);
};

/// --- Versioned binary container -----------------------------------------
///
/// Layout (all integers and IEEE-754 doubles little-endian, fixed width):
///
///   offset  size  field
///   0       4     magic "STPT"
///   4       4     u32 format version (currently 1)
///   8       12    i32 cx, cy, ct
///   20      4     u32 algorithm-name length L
///   24      L     algorithm name bytes (UTF-8, no terminator)
///   .       40    f64 eps_total, eps_pattern, eps_sanitize, norm_min,
///                 norm_max
///   .       4     i32 t_train
///   .       8     u64 cell count N (must equal cx*cy*ct)
///   .       8N    f64 sanitized matrix, (x, y, t) row-major
///   .       8     u64 prefix count (must equal N)
///   .       8N    f64 inclusive 3-D prefix sums, same layout
///   .       4     u32 CRC-32 (IEEE 802.3) of every preceding byte
///
/// Readers validate magic, version, bounds, the CRC, and the dimension /
/// count invariants; any violation — truncation, bit corruption, a short
/// write — yields a non-OK Status, never a crash or a partial snapshot.

/// Current container format version.
inline constexpr uint32_t kSnapshotVersion = 1;

/// Conventional file extension for snapshot containers.
inline constexpr const char* kSnapshotExtension = ".stpt";

/// CRC-32 (IEEE 802.3, reflected, init/xorout 0xFFFFFFFF) of `n` bytes.
/// Exposed for tests and for wire-level integrity checks.
uint32_t Crc32(const void* data, size_t n);

/// Serializes a snapshot to the container format.
std::vector<uint8_t> EncodeSnapshot(const Snapshot& snapshot);

/// Parses a container. Returns InvalidArgument on malformed or truncated
/// input and FailedPrecondition ("checksum mismatch") on CRC failure.
StatusOr<Snapshot> DecodeSnapshot(const uint8_t* data, size_t size);

/// Writes the container to `path` (atomically via a sibling temp file, so a
/// crashed writer never leaves a half-written snapshot at the final path).
Status WriteSnapshot(const Snapshot& snapshot, const std::string& path);

/// Reads and validates a container from `path`. Anything but a regular
/// file (a directory, a FIFO, a device) is rejected with InvalidArgument
/// without blocking or trusting its reported size.
StatusOr<Snapshot> ReadSnapshot(const std::string& path);

}  // namespace stpt::serve

#endif  // STPT_SERVE_SNAPSHOT_H_
