#ifndef MEDVAULT_CRYPTO_AES_KERNELS_H_
#define MEDVAULT_CRYPTO_AES_KERNELS_H_

// Internal AES round kernels behind the dispatched public Aes class.
// Exposed so the differential tests and benches can pin a specific
// implementation; application code should use crypto/aes.h.

#include <cstddef>
#include <cstdint>

namespace medvault::crypto::internal {

/// True when the process-wide dispatch selected the AES-NI kernels
/// (honors MEDVAULT_FORCE_SCALAR and CPU detection).
bool AesAccelerated();

/// FIPS 197 key expansion of a 16- or 32-byte key into
/// key_size / 4 + 7 round keys. Portable; correct on every target.
void AesExpandKeyScalar(const uint8_t* key, size_t key_size,
                        uint8_t round_keys[][16]);

#if defined(__x86_64__) && defined(MEDVAULT_HAVE_AES_NI)
/// AES-256 key expansion via aeskeygenassist: the same 15 round keys as
/// AesExpandKeyScalar(key, 32, ...).
void AesNiExpandKey256(const uint8_t key[32], uint8_t round_keys[][16]);

/// Encrypts `nblocks` 16-byte blocks with the expanded round keys
/// (`rounds` is 10 for AES-128, 14 for AES-256), four blocks pipelined
/// per iteration. in == out aliasing allowed.
void AesNiEncryptBlocks(const uint8_t round_keys[][16], int rounds,
                        const uint8_t* in, uint8_t* out, size_t nblocks);

/// Decrypts one block via the equivalent inverse cipher (aesimc applied
/// to the encryption round keys on the fly).
void AesNiDecryptBlock(const uint8_t round_keys[][16], int rounds,
                       const uint8_t in[16], uint8_t out[16]);
#endif

}  // namespace medvault::crypto::internal

#endif  // MEDVAULT_CRYPTO_AES_KERNELS_H_
