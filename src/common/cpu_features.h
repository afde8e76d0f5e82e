#ifndef MEDVAULT_COMMON_CPU_FEATURES_H_
#define MEDVAULT_COMMON_CPU_FEATURES_H_

namespace medvault {

/// Instruction-set extensions the dispatched kernels (CRC32C framing,
/// SHA-256, AES) can use, probed once at startup (CPUID on x86-64,
/// getauxval on ARM/AArch64).
struct CpuFeatures {
  bool ssse3 = false;
  bool sse41 = false;
  bool sse42 = false;    ///< x86 SSE4.2 (the crc32 instruction)
  bool aes_ni = false;   ///< x86 AES-NI or ARMv8 AES
  bool sha_ni = false;   ///< x86 SHA extensions or ARMv8 SHA-2
};

/// Cached runtime detection result.
const CpuFeatures& GetCpuFeatures();

/// True when the MEDVAULT_FORCE_SCALAR environment variable is set to a
/// non-empty value other than "0" — pins every dispatched kernel (CRC32C,
/// SHA-256, AES) to its portable fallback for differential testing. Read
/// once at first use.
bool ForceScalarKernels();

}  // namespace medvault

#endif  // MEDVAULT_COMMON_CPU_FEATURES_H_
