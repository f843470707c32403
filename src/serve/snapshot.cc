#include "serve/snapshot.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "grid/consumption_matrix.h"

namespace stpt::serve {
namespace {

constexpr std::array<char, 4> kMagic = {'S', 'T', 'P', 'T'};

/// Largest per-axis extent the container accepts. Guards the N = cx*cy*ct
/// allocation against absurd headers in corrupted or hostile files.
constexpr int64_t kMaxAxis = 1 << 20;
constexpr uint64_t kMaxCells = uint64_t{1} << 33;  // 64 GiB of doubles
constexpr uint32_t kMaxAlgorithmLen = 256;

// Fixed fields of the layout: magic, version, dims, algorithm-name length,
// five f64 metadata fields, t_train, the cell count and the CRC.
constexpr size_t kFixedBytes = 4 + 4 + 12 + 4 + 40 + 4 + 8 + 4;

// --- little-endian primitives ----------------------------------------------
//
// Scalar fields are composed byte by byte, so they are host-endianness
// independent. The f64 matrix section is copied in bulk on little-endian
// hosts, where the in-memory doubles already are the container bytes.

/// Sequential writer into a buffer sized up front by EncodeSnapshot.
class Writer {
 public:
  explicit Writer(uint8_t* out) : p_(out) {}

  void Bytes(const void* src, size_t n) {
    if (n == 0) return;  // src may be null for an empty section
    std::memcpy(p_, src, n);
    p_ += n;
  }

  void U32(uint32_t v) {
    p_[0] = static_cast<uint8_t>(v);
    p_[1] = static_cast<uint8_t>(v >> 8);
    p_[2] = static_cast<uint8_t>(v >> 16);
    p_[3] = static_cast<uint8_t>(v >> 24);
    p_ += 4;
  }

  void U64(uint64_t v) {
    U32(static_cast<uint32_t>(v));
    U32(static_cast<uint32_t>(v >> 32));
  }

  void I32(int32_t v) { U32(static_cast<uint32_t>(v)); }

  void F64(double v) { U64(std::bit_cast<uint64_t>(v)); }

  void F64Array(const std::vector<double>& values) {
    if constexpr (std::endian::native == std::endian::little) {
      Bytes(values.data(), values.size() * sizeof(double));
    } else {
      for (double v : values) F64(v);
    }
  }

 private:
  uint8_t* p_;
};

/// Bounds-checked sequential reader over the container bytes. Every getter
/// returns false on exhaustion, which callers surface as a truncation
/// Status — out-of-bounds reads are structurally impossible.
class Cursor {
 public:
  Cursor(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  size_t offset() const { return off_; }
  size_t remaining() const { return size_ - off_; }

  bool ReadU32(uint32_t* v) {
    if (remaining() < 4) return false;
    *v = static_cast<uint32_t>(data_[off_]) |
         static_cast<uint32_t>(data_[off_ + 1]) << 8 |
         static_cast<uint32_t>(data_[off_ + 2]) << 16 |
         static_cast<uint32_t>(data_[off_ + 3]) << 24;
    off_ += 4;
    return true;
  }

  bool ReadU64(uint64_t* v) {
    uint32_t lo = 0, hi = 0;
    if (!ReadU32(&lo) || !ReadU32(&hi)) return false;
    *v = static_cast<uint64_t>(hi) << 32 | lo;
    return true;
  }

  bool ReadI32(int32_t* v) {
    uint32_t u = 0;
    if (!ReadU32(&u)) return false;
    *v = static_cast<int32_t>(u);
    return true;
  }

  bool ReadF64(double* v) {
    uint64_t u = 0;
    if (!ReadU64(&u)) return false;
    *v = std::bit_cast<double>(u);
    return true;
  }

  bool ReadBytes(void* dst, size_t n) {
    if (remaining() < n) return false;
    std::memcpy(dst, data_ + off_, n);
    off_ += n;
    return true;
  }

  bool ReadF64Array(double* dst, size_t count) {
    if constexpr (std::endian::native == std::endian::little) {
      return ReadBytes(dst, count * sizeof(double));
    } else {
      for (size_t i = 0; i < count; ++i) {
        if (!ReadF64(&dst[i])) return false;
      }
      return true;
    }
  }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t off_ = 0;
};

using CrcTables = std::array<std::array<uint32_t, 256>, 16>;

constexpr CrcTables MakeCrcTables() {
  CrcTables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (size_t k = 1; k < t.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    }
  }
  return t;
}

constexpr CrcTables kCrcTables = MakeCrcTables();

Status Truncated() {
  return Status::InvalidArgument("snapshot: truncated container");
}

}  // namespace

uint32_t Crc32(const void* data, size_t n) {
  // Slice-by-16: kCrcTables[0] is the classic byte-at-a-time table of the
  // IEEE 802.3 reflected polynomial, and kCrcTables[k] carries a byte's
  // entry through k further zero bytes, so one step folds 16 input bytes
  // with 16 independent lookups. Indexing by byte keeps it endian-independent.
  const auto& t = kCrcTables;
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t crc = 0xFFFFFFFFu;
  for (; n >= 16; n -= 16, p += 16) {
    crc = t[15][(p[0] ^ crc) & 0xFF] ^ t[14][(p[1] ^ (crc >> 8)) & 0xFF] ^
          t[13][(p[2] ^ (crc >> 16)) & 0xFF] ^ t[12][p[3] ^ (crc >> 24)] ^
          t[11][p[4]] ^ t[10][p[5]] ^ t[9][p[6]] ^ t[8][p[7]] ^
          t[7][p[8]] ^ t[6][p[9]] ^ t[5][p[10]] ^ t[4][p[11]] ^
          t[3][p[12]] ^ t[2][p[13]] ^ t[1][p[14]] ^ t[0][p[15]];
  }
  for (; n > 0; --n, ++p) crc = t[0][(crc ^ *p) & 0xFF] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

Snapshot Snapshot::FromMatrix(const grid::ConsumptionMatrix& sanitized,
                              SnapshotMeta meta) {
  Snapshot snap;
  meta.norm_min = sanitized.MinValue();
  meta.norm_max = sanitized.MaxValue();
  snap.meta = std::move(meta);
  snap.sanitized = sanitized;
  snap.prefix = grid::PrefixSum3D(sanitized).raw();
  return snap;
}

std::vector<uint8_t> EncodeSnapshot(const Snapshot& snapshot) {
  const grid::Dims& dims = snapshot.sanitized.dims();
  const std::string& algo = snapshot.meta.algorithm;
  const std::vector<double>& cells = snapshot.sanitized.data();
  std::vector<uint8_t> out(kFixedBytes + algo.size() + sizeof(double) * cells.size());
  Writer w(out.data());
  w.Bytes(kMagic.data(), kMagic.size());
  w.U32(kSnapshotVersion);
  w.I32(dims.cx);
  w.I32(dims.cy);
  w.I32(dims.ct);
  w.U32(static_cast<uint32_t>(algo.size()));
  w.Bytes(algo.data(), algo.size());
  w.F64(snapshot.meta.eps_total);
  w.F64(snapshot.meta.eps_pattern);
  w.F64(snapshot.meta.eps_sanitize);
  w.F64(snapshot.meta.norm_min);
  w.F64(snapshot.meta.norm_max);
  w.I32(snapshot.meta.t_train);
  w.U64(cells.size());
  w.F64Array(cells);
  w.U32(Crc32(out.data(), out.size() - 4));
  return out;
}

StatusOr<Snapshot> DecodeSnapshot(const uint8_t* data, size_t size) {
  // The CRC trailer is checked first, over everything that precedes it:
  // after it passes, any remaining failure is a malformed writer, not bit
  // rot, so the two classes get distinct codes.
  if (size < kMagic.size() + 12) return Truncated();
  uint32_t stored_crc = 0;
  {
    Cursor tail(data + size - 4, 4);
    tail.ReadU32(&stored_crc);
  }
  if (Crc32(data, size - 4) != stored_crc) {
    return Status::FailedPrecondition("snapshot: checksum mismatch (corrupted container)");
  }

  Cursor cur(data, size - 4);
  std::array<char, 4> magic;
  if (!cur.ReadBytes(magic.data(), magic.size())) return Truncated();
  if (magic != kMagic) {
    return Status::InvalidArgument("snapshot: bad magic (not an STPT container)");
  }
  uint32_t version = 0;
  if (!cur.ReadU32(&version)) return Truncated();
  if (version != kSnapshotVersion) {
    return Status::InvalidArgument("snapshot: unsupported format version " +
                                   std::to_string(version) + " (this build reads version " +
                                   std::to_string(kSnapshotVersion) + ")");
  }

  grid::Dims dims;
  if (!cur.ReadI32(&dims.cx) || !cur.ReadI32(&dims.cy) || !cur.ReadI32(&dims.ct)) {
    return Truncated();
  }
  if (dims.cx <= 0 || dims.cy <= 0 || dims.ct <= 0 || dims.cx > kMaxAxis ||
      dims.cy > kMaxAxis || dims.ct > kMaxAxis || dims.NumCells() > kMaxCells) {
    return Status::InvalidArgument("snapshot: implausible dimensions");
  }

  Snapshot snap;
  uint32_t algo_len = 0;
  if (!cur.ReadU32(&algo_len)) return Truncated();
  if (algo_len > kMaxAlgorithmLen) {
    return Status::InvalidArgument("snapshot: implausible algorithm-name length");
  }
  snap.meta.algorithm.resize(algo_len);
  if (algo_len > 0 && !cur.ReadBytes(snap.meta.algorithm.data(), algo_len)) {
    return Truncated();
  }
  if (!cur.ReadF64(&snap.meta.eps_total) || !cur.ReadF64(&snap.meta.eps_pattern) ||
      !cur.ReadF64(&snap.meta.eps_sanitize) || !cur.ReadF64(&snap.meta.norm_min) ||
      !cur.ReadF64(&snap.meta.norm_max) || !cur.ReadI32(&snap.meta.t_train)) {
    return Truncated();
  }

  uint64_t cells = 0;
  if (!cur.ReadU64(&cells)) return Truncated();
  if (cells != dims.NumCells()) {
    return Status::InvalidArgument("snapshot: cell count does not match dims");
  }
  // The matrix section must still be present: 8 bytes per cell. Checking
  // before allocating bounds the allocation (and the prefix rebuild) by the
  // container's actual size, so a tiny file with a huge (CRC-valid) header
  // cannot drive a multi-GiB allocation.
  if (cur.remaining() < 8 * cells) return Truncated();
  auto matrix = grid::ConsumptionMatrix::Create(dims);
  if (!matrix.ok()) return matrix.status();
  snap.sanitized = std::move(*matrix);
  if (!cur.ReadF64Array(snap.sanitized.mutable_data().data(), cells)) {
    return Truncated();
  }
  if (cur.remaining() != 0) {
    return Status::InvalidArgument("snapshot: trailing bytes after container");
  }
  // The same backend scans IncrementalPrefix is bit-identical to, so a
  // loaded table equals the one the publishing shard served.
  snap.prefix = grid::PrefixSum3D(snap.sanitized).raw();
  return snap;
}

uint32_t SnapshotVersion(const uint8_t* data, size_t size) {
  Cursor cur(data, size);
  std::array<char, 4> magic;
  uint32_t version = 0;
  if (!cur.ReadBytes(magic.data(), magic.size()) || magic != kMagic ||
      !cur.ReadU32(&version)) {
    return 0;
  }
  return version;
}

Status WriteSnapshot(const Snapshot& snapshot, const std::string& path) {
  const std::vector<uint8_t> bytes = EncodeSnapshot(snapshot);
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::NotFound("snapshot: cannot open '" + tmp + "' for writing");
  }
  const size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  const bool flushed = std::fclose(f) == 0;
  if (written != bytes.size() || !flushed) {
    std::remove(tmp.c_str());
    return Status::Internal("snapshot: short write to '" + tmp + "'");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("snapshot: cannot rename '" + tmp + "' to '" + path + "'");
  }
  return Status::OK();
}

StatusOr<Snapshot> ReadSnapshot(const std::string& path) {
  // Admin loads name the path over the wire, so nothing about it is
  // trusted: O_NONBLOCK keeps a FIFO from blocking the event loop, and only
  // a regular file's size is used to size the buffer (ext4 reports LONG_MAX
  // as a directory's end offset).
  const int fd = ::open(path.c_str(), O_RDONLY | O_NONBLOCK | O_CLOEXEC);
  if (fd < 0) {
    return Status::NotFound("snapshot: cannot open '" + path + "'");
  }
  struct stat st {};
  if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
    ::close(fd);
    return Status::InvalidArgument("snapshot: '" + path + "' is not a regular file");
  }
  std::vector<uint8_t> bytes(static_cast<size_t>(st.st_size));
  size_t got = 0;
  while (got < bytes.size()) {
    const ssize_t n = ::read(fd, bytes.data() + got, bytes.size() - got);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    got += static_cast<size_t>(n);
  }
  ::close(fd);
  if (got != bytes.size()) {
    return Status::Internal("snapshot: short read from '" + path + "'");
  }
  return DecodeSnapshot(bytes.data(), bytes.size());
}

}  // namespace stpt::serve
