#ifndef MEDVAULT_CRYPTO_SHA256_H_
#define MEDVAULT_CRYPTO_SHA256_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/slice.h"

namespace medvault::crypto {

/// Size in bytes of a SHA-256 digest.
constexpr size_t kDigestSize = 32;

/// Incremental SHA-256 (FIPS 180-4), implemented from scratch.
///
///   Sha256 h;
///   h.Update("abc");
///   std::string digest = h.Finish();   // 32 raw bytes
///
/// Finish() may be called once; the object is then exhausted.
///
/// The block compression is dispatched once per process: a SHA-NI
/// kernel on x86-64 CPUs that support it, otherwise a word-aligned
/// scalar fallback (see crypto/sha256_kernels.h). Set the
/// MEDVAULT_FORCE_SCALAR environment variable to pin the fallback.
class Sha256 {
 public:
  Sha256() { Reset(); }

  Sha256(const Sha256&) = default;
  Sha256& operator=(const Sha256&) = default;

  /// Re-initializes to the empty-message state.
  void Reset();

  /// Absorbs `data`.
  void Update(const Slice& data);

  /// Returns the 32-byte digest of everything absorbed so far.
  std::string Finish();

  /// Same, written into `digest` (no allocation).
  void Finish(uint8_t digest[kDigestSize]);

 private:
  uint32_t state_[8];
  uint64_t total_len_;
  uint8_t buffer_[64];
  size_t buffer_len_;
};

/// One-shot convenience: SHA-256(data).
std::string Sha256Digest(const Slice& data);

/// SHA-256(a || b) — common in Merkle/hash-chain code.
std::string Sha256Concat(const Slice& a, const Slice& b);

}  // namespace medvault::crypto

#endif  // MEDVAULT_CRYPTO_SHA256_H_
