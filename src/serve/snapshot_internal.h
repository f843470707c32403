#ifndef STPT_SERVE_SNAPSHOT_INTERNAL_H_
#define STPT_SERVE_SNAPSHOT_INTERNAL_H_

// Internals of serve/snapshot.cc that tests reach directly: the CRC-32
// paths behind serve::Crc32 in running form, so each can be checked against
// a reference, and the container size cap. Not part of the serving API.

#include <cstddef>
#include <cstdint>

namespace stpt::serve::internal {

/// The largest container the decoder accepts: 80 bytes of fixed fields, a
/// 256-byte algorithm name and 2^33 cells of 8 bytes. ReadSnapshot refuses
/// a longer file before allocating for it.
inline constexpr uint64_t kMaxContainerBytes = 80 + 256 + 8 * (uint64_t{1} << 33);

/// The CRC-32 register before the first byte. The checksum of a message is
/// its final register XOR kCrc32Init, and folding a message in pieces gives
/// the register of the whole.
inline constexpr uint32_t kCrc32Init = 0xFFFFFFFFu;

/// Folds `n` bytes into the register `crc` and returns the new register.
using Crc32UpdateFn = uint32_t (*)(uint32_t crc, const uint8_t* p, size_t n);

/// The portable path: slice-by-16 tables.
uint32_t Crc32UpdateSlice16(uint32_t crc, const uint8_t* p, size_t n);

/// The PCLMULQDQ folding path, or nullptr when the platform or the CPU
/// (by CPUID) lacks the instruction. Crc32 takes it whenever it exists.
Crc32UpdateFn Crc32UpdateClmul();

}  // namespace stpt::serve::internal

#endif  // STPT_SERVE_SNAPSHOT_INTERNAL_H_
