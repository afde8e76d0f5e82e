#ifndef MEDVAULT_COMMON_CRC32C_KERNELS_H_
#define MEDVAULT_COMMON_CRC32C_KERNELS_H_

// Internal CRC-32C kernels behind the dispatched crc32c::Extend. Exposed
// so the differential tests and benches can pin a specific
// implementation; application code should use common/crc32c.h.

#include <cstddef>
#include <cstdint>

namespace medvault::crc32c::internal {

/// Same contract as crc32c::Extend.
using ExtendFn = uint32_t (*)(uint32_t init_crc, const char* data, size_t n);

/// Portable fallback: byte-at-a-time table loop. Correct on every target.
uint32_t ExtendTable(uint32_t init_crc, const char* data, size_t n);

#if defined(__x86_64__) && defined(MEDVAULT_HAVE_SSE42_CRC32C)
/// SSE4.2 `crc32` kernel, eight bytes per instruction (requires SSE4.2
/// at runtime).
uint32_t ExtendSse42(uint32_t init_crc, const char* data, size_t n);
#endif

/// The kernel the process-wide dispatch selected (honors
/// MEDVAULT_FORCE_SCALAR and CPU detection).
ExtendFn ActiveExtend();

}  // namespace medvault::crc32c::internal

#endif  // MEDVAULT_COMMON_CRC32C_KERNELS_H_
