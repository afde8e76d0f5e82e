// CRC-32C kernel using the SSE4.2 `crc32` instruction, which computes
// exactly the Castagnoli polynomial. Compiled as its own translation
// unit with -msse4.2; only ever called after runtime CPUID detection
// (see the crc32c.cc dispatch).

#if defined(__x86_64__) && defined(MEDVAULT_HAVE_SSE42_CRC32C)

#include <nmmintrin.h>

#include <cstring>

#include "common/crc32c_kernels.h"

namespace medvault::crc32c::internal {

uint32_t ExtendSse42(uint32_t init_crc, const char* data, size_t n) {
  const auto* p = reinterpret_cast<const unsigned char*>(data);
  uint64_t crc = init_crc ^ 0xffffffffu;
  // Byte steps up to an 8-byte boundary, so the main loop's loads never
  // straddle a cache line.
  while (n > 0 && (reinterpret_cast<uintptr_t>(p) & 7) != 0) {
    crc = _mm_crc32_u8(static_cast<uint32_t>(crc), *p++);
    n--;
  }
  while (n >= 8) {
    uint64_t word;
    memcpy(&word, p, 8);
    crc = _mm_crc32_u64(crc, word);
    p += 8;
    n -= 8;
  }
  while (n > 0) {
    crc = _mm_crc32_u8(static_cast<uint32_t>(crc), *p++);
    n--;
  }
  return static_cast<uint32_t>(crc) ^ 0xffffffffu;
}

}  // namespace medvault::crc32c::internal

#endif  // __x86_64__ && MEDVAULT_HAVE_SSE42_CRC32C
