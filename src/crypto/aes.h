#ifndef MEDVAULT_CRYPTO_AES_H_
#define MEDVAULT_CRYPTO_AES_H_

#include <cstddef>
#include <cstdint>

#include "common/result.h"
#include "common/slice.h"

namespace medvault::crypto {

/// AES block size in bytes.
constexpr size_t kAesBlockSize = 16;
/// Key sizes supported.
constexpr size_t kAes128KeySize = 16;
constexpr size_t kAes256KeySize = 32;

/// AES-128/256 block cipher (FIPS 197) built from scratch. The round
/// transform is dispatched once per process: AES-NI kernels on x86-64
/// CPUs that support them, otherwise the table-free byte-oriented
/// scalar implementation (MEDVAULT_FORCE_SCALAR pins the fallback). The
/// AES-256 key schedule is dispatched the same way (aeskeygenassist).
/// This class is the raw primitive; use AesCtr / Aead for actual data,
/// never ECB-style direct block calls.
class Aes {
 public:
  Aes() = default;

  Aes(const Aes&) = default;
  Aes& operator=(const Aes&) = default;

  /// Expands a 16- or 32-byte key. Any other length is rejected.
  Status Init(const Slice& key);

  bool initialized() const { return rounds_ != 0; }

  /// Overwrites the round keys and returns to the uninitialized state.
  void Clear();

  /// Encrypts exactly one 16-byte block, in != out allowed to alias.
  void EncryptBlock(const uint8_t in[16], uint8_t out[16]) const;

  /// Encrypts `nblocks` consecutive 16-byte blocks (ECB over the span;
  /// callers supply unique blocks, e.g. CTR counter runs). The AES-NI
  /// kernel pipelines four blocks at a time, which is where the CTR /
  /// AEAD throughput comes from.
  void EncryptBlocks(const uint8_t* in, uint8_t* out, size_t nblocks) const;

  /// Decrypts exactly one 16-byte block.
  void DecryptBlock(const uint8_t in[16], uint8_t out[16]) const;

 private:
  // Round keys: up to 15 rounds (AES-256) * 16 bytes each, plus initial.
  uint8_t round_keys_[15 + 1][16] = {};
  int rounds_ = 0;  // 10 for AES-128, 14 for AES-256; 0 = uninitialized
};

}  // namespace medvault::crypto

#endif  // MEDVAULT_CRYPTO_AES_H_
