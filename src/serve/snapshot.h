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
/// same (x, y, t) row-major layout (`grid::PrefixSum3D::raw()`), the table
/// a server answers O(1) range sums from. It is rebuilt on decode, never
/// stored: the container holds the release alone, so a loaded table is a
/// sum of its release by construction.
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
///   4       4     u32 format version (currently 2)
///   8       12    i32 cx, cy, ct
///   20      4     u32 algorithm-name length L
///   24      L     algorithm name bytes (UTF-8, no terminator)
///   .       40    f64 eps_total, eps_pattern, eps_sanitize, norm_min,
///                 norm_max
///   .       4     i32 t_train
///   .       8     u64 cell count N (must equal cx*cy*ct)
///   .       8N    f64 sanitized matrix, (x, y, t) row-major
///   .       4     u32 CRC-32 (IEEE 802.3) of every preceding byte
///
/// Readers validate magic, version, bounds, the CRC, and the dimension /
/// count invariants; any violation — truncation, bit corruption, a short
/// write — yields a non-OK Status, never a crash or a partial snapshot.
/// Only then does decode rebuild `Snapshot::prefix` from the release. Any
/// other version is rejected by number, version 1 (which also stored the
/// prefix table after the matrix) included.

/// Current container format version.
inline constexpr uint32_t kSnapshotVersion = 2;

/// Conventional file extension for snapshot containers.
inline constexpr const char* kSnapshotExtension = ".stpt";

/// CRC-32 (IEEE 802.3, reflected, init/xorout 0xFFFFFFFF) of `n` bytes:
/// the trailer of every container and the checksum of every ingest WAL
/// frame. Chosen once per process from CPUID, it folds 64 bytes per step
/// with PCLMULQDQ carry-less multiplies where the CPU has them, and runs
/// slice-by-16 tables everywhere else; both give the same value.
uint32_t Crc32(const void* data, size_t n);

/// Serializes a snapshot to the container format. `snapshot.prefix` is
/// not written.
std::vector<uint8_t> EncodeSnapshot(const Snapshot& snapshot);

/// Parses a container and rebuilds its prefix table. Returns
/// InvalidArgument on malformed or truncated input or another format
/// version, and FailedPrecondition ("checksum mismatch") on CRC failure.
StatusOr<Snapshot> DecodeSnapshot(const uint8_t* data, size_t size);

/// The format version `data` declares after the "STPT" magic, or 0 when
/// it is too short or the magic is wrong. Reads the header only.
uint32_t SnapshotVersion(const uint8_t* data, size_t size);

/// Writes the container of `meta` and `sanitized` to `path`, the bytes
/// EncodeSnapshot returns for a snapshot holding them, without building it
/// in memory: the header is encoded on its own, the CRC folds over it and
/// then over the release where it lies, and header, release and trailer go
/// out with one writev loop (on little-endian hosts; big-endian hosts
/// encode a copy of the release). The file is written atomically via a
/// sibling temp file, so a crashed writer never leaves a half-written
/// snapshot at the final path. The ingest pipeline writes a live shard's
/// release this way, with no Snapshot copy of it.
Status WriteSnapshot(const SnapshotMeta& meta,
                     const grid::ConsumptionMatrix& sanitized,
                     const std::string& path);

/// WriteSnapshot(snapshot.meta, snapshot.sanitized, path).
Status WriteSnapshot(const Snapshot& snapshot, const std::string& path);

/// Reads and validates a container from `path`. Anything but a regular
/// file (a directory, a FIFO, a device) is rejected with InvalidArgument
/// without blocking or trusting its reported size, and so is a file larger
/// than the largest container the decoder accepts (64 GiB of cells); a read
/// buffer the host cannot allocate is ResourceExhausted.
StatusOr<Snapshot> ReadSnapshot(const std::string& path);

}  // namespace stpt::serve

#endif  // STPT_SERVE_SNAPSHOT_H_
