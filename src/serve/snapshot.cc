#include "serve/snapshot.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <new>
#include <span>

#include "grid/consumption_matrix.h"
#include "serve/snapshot_internal.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define STPT_CRC32_CLMUL 1
#endif

namespace stpt::serve {
namespace {

constexpr std::array<char, 4> kMagic = {'S', 'T', 'P', 'T'};

/// Largest per-axis extent the container accepts. Guards the N = cx*cy*ct
/// allocation against absurd headers in corrupted or hostile files.
constexpr int64_t kMaxAxis = 1 << 20;
constexpr uint64_t kMaxCells = uint64_t{1} << 33;  // 64 GiB of doubles
constexpr uint32_t kMaxAlgorithmLen = 256;

// Fixed fields of the header: magic, version, dims, algorithm-name length,
// five f64 metadata fields, t_train and the cell count.
constexpr size_t kHeaderFixedBytes = 4 + 4 + 12 + 4 + 40 + 4 + 8;

static_assert(internal::kMaxContainerBytes ==
              kHeaderFixedBytes + 4 + kMaxAlgorithmLen + sizeof(double) * kMaxCells);

// --- little-endian primitives ----------------------------------------------
//
// Scalar fields are composed byte by byte, so they are host-endianness
// independent. On little-endian hosts the in-memory doubles already are the
// f64 matrix section, which is then checksummed and written in place.

/// Sequential writer into a buffer sized up front.
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
    for (double v : values) F64(v);
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

#ifdef STPT_CRC32_CLMUL

// --- CRC-32 by carry-less multiplication -------------------------------------
//
// Folding after Gopal et al., "Fast CRC Computation for Generic Polynomials
// Using PCLMULQDQ Instruction" (Intel, 2009). A 16-byte block followed by d
// bits of message enters the CRC only through block·x^d mod P, so it may be
// replaced by the product of each of its 64-bit halves with a constant
// x^k mod P, XORed into the block 128 or 512 bits later. Four lanes fold 64
// bytes per step, then collapse into one 16-byte block, whose register the
// table path computes from a zero register.

/// x^n mod P as a reflected CRC-32 register, shifted one bit left because
/// the carry-less product of two reflected operands comes out one bit short.
constexpr int64_t FoldConstant(int n) {
  uint32_t r = 0x80000000u;  // x^0
  for (int i = 0; i < n; ++i) r = (r & 1) ? 0xEDB88320u ^ (r >> 1) : r >> 1;
  return static_cast<int64_t>(uint64_t{r} << 1);
}

// Folding a block m blocks forward multiplies its low (earlier) half by
// x^(128m+32) mod P and its high half by x^(128m-32) mod P.
constexpr int64_t kFold4Low = FoldConstant(4 * 128 + 32);
constexpr int64_t kFold4High = FoldConstant(4 * 128 - 32);
constexpr int64_t kFold1Low = FoldConstant(128 + 32);
constexpr int64_t kFold1High = FoldConstant(128 - 32);

inline __m128i Load16(const uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// Moves block x forward by the distance `k` encodes: its low half times
/// k's low constant, XOR its high half times k's high constant.
__attribute__((target("pclmul"))) inline __m128i Fold(__m128i x, __m128i k) {
  return _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                       _mm_clmulepi64_si128(x, k, 0x11));
}

__attribute__((target("pclmul"))) uint32_t Crc32UpdateFolding(
    uint32_t crc, const uint8_t* p, size_t n) {
  if (n >= 64) {
    // The register enters as an XOR into the first four message bytes.
    __m128i x0 = _mm_xor_si128(Load16(p), _mm_cvtsi32_si128(static_cast<int>(crc)));
    __m128i x1 = Load16(p + 16);
    __m128i x2 = Load16(p + 32);
    __m128i x3 = Load16(p + 48);
    p += 64;
    n -= 64;
    const __m128i by64 = _mm_set_epi64x(kFold4High, kFold4Low);
    for (; n >= 64; p += 64, n -= 64) {
      x0 = _mm_xor_si128(Fold(x0, by64), Load16(p));
      x1 = _mm_xor_si128(Fold(x1, by64), Load16(p + 16));
      x2 = _mm_xor_si128(Fold(x2, by64), Load16(p + 32));
      x3 = _mm_xor_si128(Fold(x3, by64), Load16(p + 48));
    }
    const __m128i by16 = _mm_set_epi64x(kFold1High, kFold1Low);
    __m128i x = _mm_xor_si128(Fold(x0, by16), x1);
    x = _mm_xor_si128(Fold(x, by16), x2);
    x = _mm_xor_si128(Fold(x, by16), x3);
    for (; n >= 16; p += 16, n -= 16) x = _mm_xor_si128(Fold(x, by16), Load16(p));
    std::array<uint8_t, 16> block;
    _mm_storeu_si128(reinterpret_cast<__m128i*>(block.data()), x);
    crc = internal::Crc32UpdateSlice16(0, block.data(), block.size());
  }
  return internal::Crc32UpdateSlice16(crc, p, n);
}

#endif  // STPT_CRC32_CLMUL

/// Folds `n` bytes into the CRC register `crc` on the path chosen once per
/// process: the folding path where the CPU has it, else slice-by-16.
uint32_t Crc32Update(uint32_t crc, const uint8_t* p, size_t n) {
  static const internal::Crc32UpdateFn update = internal::Crc32UpdateClmul() != nullptr
                                                    ? internal::Crc32UpdateClmul()
                                                    : &internal::Crc32UpdateSlice16;
  return update(crc, p, n);
}

/// A container in the three pieces it is written from, in file order: the
/// header (every field before the f64 release section), the release section
/// and the CRC-32 trailer. The CRC folds over each piece where it lies. On
/// little-endian hosts the release section is the matrix's own storage, so
/// nothing is staged; big-endian hosts, whose in-memory doubles are not the
/// container bytes, encode a copy. A Container must not outlive the
/// matrix it was built from.
class Container {
 public:
  Container(const SnapshotMeta& meta, const grid::ConsumptionMatrix& sanitized);
  Container(const Container&) = delete;
  Container& operator=(const Container&) = delete;

  std::array<std::span<const uint8_t>, 3> pieces() const {
    return {header_, release_, trailer_};
  }
  size_t size() const { return header_.size() + release_.size() + trailer_.size(); }

 private:
  std::vector<uint8_t> header_;
  std::vector<uint8_t> release_copy_;  // big-endian hosts only
  std::span<const uint8_t> release_;
  std::array<uint8_t, 4> trailer_{};
};

Container::Container(const SnapshotMeta& meta, const grid::ConsumptionMatrix& sanitized) {
  const grid::Dims& dims = sanitized.dims();
  const std::string& algo = meta.algorithm;
  const std::vector<double>& cells = sanitized.data();
  header_.resize(kHeaderFixedBytes + algo.size());
  Writer w(header_.data());
  w.Bytes(kMagic.data(), kMagic.size());
  w.U32(kSnapshotVersion);
  w.I32(dims.cx);
  w.I32(dims.cy);
  w.I32(dims.ct);
  w.U32(static_cast<uint32_t>(algo.size()));
  w.Bytes(algo.data(), algo.size());
  w.F64(meta.eps_total);
  w.F64(meta.eps_pattern);
  w.F64(meta.eps_sanitize);
  w.F64(meta.norm_min);
  w.F64(meta.norm_max);
  w.I32(meta.t_train);
  w.U64(cells.size());
  if constexpr (std::endian::native == std::endian::little) {
    release_ = {reinterpret_cast<const uint8_t*>(cells.data()), sizeof(double) * cells.size()};
  } else {
    release_copy_.resize(sizeof(double) * cells.size());
    Writer(release_copy_.data()).F64Array(cells);
    release_ = release_copy_;
  }
  uint32_t crc = Crc32Update(internal::kCrc32Init, header_.data(), header_.size());
  crc = Crc32Update(crc, release_.data(), release_.size());
  Writer(trailer_.data()).U32(crc ^ internal::kCrc32Init);
}

/// Writes every byte of `pieces` to `fd`, resuming after a short write or
/// EINTR: Linux moves at most 2 GiB - 4 KiB per call.
bool WriteAll(int fd, const std::array<std::span<const uint8_t>, 3>& pieces) {
  std::array<iovec, 3> iov;
  for (size_t i = 0; i < iov.size(); ++i) {
    iov[i].iov_base = const_cast<uint8_t*>(pieces[i].data());
    iov[i].iov_len = pieces[i].size();
  }
  size_t next = 0;  // the first iovec with bytes left
  while (true) {
    while (next < iov.size() && iov[next].iov_len == 0) ++next;
    if (next == iov.size()) return true;
    const ssize_t n = ::writev(fd, &iov[next], static_cast<int>(iov.size() - next));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    for (size_t left = static_cast<size_t>(n); left > 0; ++next) {
      const size_t step = std::min(left, iov[next].iov_len);
      iov[next].iov_base = static_cast<uint8_t*>(iov[next].iov_base) + step;
      iov[next].iov_len -= step;
      left -= step;
      if (iov[next].iov_len != 0) break;
    }
  }
}

Status Truncated() {
  return Status::InvalidArgument("snapshot: truncated container");
}

}  // namespace

namespace internal {

uint32_t Crc32UpdateSlice16(uint32_t crc, const uint8_t* p, size_t n) {
  // kCrcTables[0] is the classic byte-at-a-time table of the IEEE 802.3
  // reflected polynomial, and kCrcTables[k] carries a byte's entry through k
  // further zero bytes, so one step folds 16 input bytes with 16 independent
  // lookups. Indexing by byte keeps it endian-independent.
  const auto& t = kCrcTables;
  for (; n >= 16; n -= 16, p += 16) {
    crc = t[15][(p[0] ^ crc) & 0xFF] ^ t[14][(p[1] ^ (crc >> 8)) & 0xFF] ^
          t[13][(p[2] ^ (crc >> 16)) & 0xFF] ^ t[12][p[3] ^ (crc >> 24)] ^
          t[11][p[4]] ^ t[10][p[5]] ^ t[9][p[6]] ^ t[8][p[7]] ^
          t[7][p[8]] ^ t[6][p[9]] ^ t[5][p[10]] ^ t[4][p[11]] ^
          t[3][p[12]] ^ t[2][p[13]] ^ t[1][p[14]] ^ t[0][p[15]];
  }
  for (; n > 0; --n, ++p) crc = t[0][(crc ^ *p) & 0xFF] ^ (crc >> 8);
  return crc;
}

Crc32UpdateFn Crc32UpdateClmul() {
#ifdef STPT_CRC32_CLMUL
  if (__builtin_cpu_supports("pclmul")) return &Crc32UpdateFolding;
#endif
  return nullptr;
}

}  // namespace internal

uint32_t Crc32(const void* data, size_t n) {
  return Crc32Update(internal::kCrc32Init, static_cast<const uint8_t*>(data), n) ^
         internal::kCrc32Init;
}

Snapshot Snapshot::FromMatrix(const grid::ConsumptionMatrix& sanitized,
                              SnapshotMeta meta) {
  Snapshot snap;
  const grid::ConsumptionMatrix::Extrema extrema = sanitized.MinMax();
  meta.norm_min = extrema.min;
  meta.norm_max = extrema.max;
  snap.meta = std::move(meta);
  snap.sanitized = sanitized;
  snap.prefix = grid::PrefixSum3D(sanitized).raw();
  return snap;
}

std::vector<uint8_t> EncodeSnapshot(const Snapshot& snapshot) {
  const Container container(snapshot.meta, snapshot.sanitized);
  std::vector<uint8_t> out;
  out.reserve(container.size());
  for (const std::span<const uint8_t> piece : container.pieces()) {
    out.insert(out.end(), piece.begin(), piece.end());
  }
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
  return WriteSnapshot(snapshot.meta, snapshot.sanitized, path);
}

Status WriteSnapshot(const SnapshotMeta& meta, const grid::ConsumptionMatrix& sanitized,
                     const std::string& path) {
  const Container container(meta, sanitized);
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
  if (fd < 0) {
    return Status::NotFound("snapshot: cannot open '" + tmp + "' for writing");
  }
  const bool written = WriteAll(fd, container.pieces());
  const bool closed = ::close(fd) == 0;
  if (!written || !closed) {
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
  // A longer file cannot decode, and its size must not drive an allocation.
  if (static_cast<uint64_t>(st.st_size) > internal::kMaxContainerBytes) {
    ::close(fd);
    return Status::InvalidArgument("snapshot: '" + path + "' is larger than any container (" +
                                   std::to_string(internal::kMaxContainerBytes) + " bytes)");
  }
  std::vector<uint8_t> bytes;
  try {
    bytes.resize(static_cast<size_t>(st.st_size));
  } catch (const std::bad_alloc&) {
    ::close(fd);
    return Status::ResourceExhausted("snapshot: cannot allocate " +
                                     std::to_string(st.st_size) + " bytes to read '" +
                                     path + "'");
  }
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
