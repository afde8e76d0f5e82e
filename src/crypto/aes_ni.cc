// AES block kernels using x86 AES-NI. Compiled as its own translation
// unit with -maes -mssse3; only ever called after runtime CPUID
// detection (see aes.cc dispatch). The kernels consume and produce the
// same byte-array round keys as the portable code.

#if defined(__x86_64__) && defined(MEDVAULT_HAVE_AES_NI)

#include <immintrin.h>

#include "crypto/aes_kernels.h"

namespace medvault::crypto::internal {

namespace {

inline __m128i LoadKey(const uint8_t rk[16]) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(rk));
}

// One step of the Intel AES-256 schedule (AES-NI white paper, fig. 28):
// `assist` is aeskeygenassist of the previous odd round key, with its
// RotWord/SubWord/Rcon word broadcast by `shuffle`.
template <int kShuffle>
inline __m128i ExpandStep(__m128i prev, __m128i assist) {
  assist = _mm_shuffle_epi32(assist, kShuffle);
  __m128i t = _mm_slli_si128(prev, 4);
  prev = _mm_xor_si128(prev, t);
  t = _mm_slli_si128(t, 4);
  prev = _mm_xor_si128(prev, t);
  t = _mm_slli_si128(t, 4);
  prev = _mm_xor_si128(prev, t);
  return _mm_xor_si128(prev, assist);
}

template <int kRcon>
inline void ExpandPair(__m128i* even, __m128i* odd) {
  *even = ExpandStep<0xff>(*even, _mm_aeskeygenassist_si128(*odd, kRcon));
  *odd = ExpandStep<0xaa>(*odd, _mm_aeskeygenassist_si128(*even, 0));
}

inline void StoreKey(uint8_t rk[16], __m128i k) {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(rk), k);
}

}  // namespace

void AesNiExpandKey256(const uint8_t key[32], uint8_t round_keys[][16]) {
  __m128i even = _mm_loadu_si128(reinterpret_cast<const __m128i*>(key));
  __m128i odd = _mm_loadu_si128(reinterpret_cast<const __m128i*>(key + 16));
  StoreKey(round_keys[0], even);
  StoreKey(round_keys[1], odd);
  ExpandPair<0x01>(&even, &odd);
  StoreKey(round_keys[2], even);
  StoreKey(round_keys[3], odd);
  ExpandPair<0x02>(&even, &odd);
  StoreKey(round_keys[4], even);
  StoreKey(round_keys[5], odd);
  ExpandPair<0x04>(&even, &odd);
  StoreKey(round_keys[6], even);
  StoreKey(round_keys[7], odd);
  ExpandPair<0x08>(&even, &odd);
  StoreKey(round_keys[8], even);
  StoreKey(round_keys[9], odd);
  ExpandPair<0x10>(&even, &odd);
  StoreKey(round_keys[10], even);
  StoreKey(round_keys[11], odd);
  ExpandPair<0x20>(&even, &odd);
  StoreKey(round_keys[12], even);
  StoreKey(round_keys[13], odd);
  // Round key 14 is the last: only the even half of a final pair.
  even = ExpandStep<0xff>(even, _mm_aeskeygenassist_si128(odd, 0x40));
  StoreKey(round_keys[14], even);
}

void AesNiEncryptBlocks(const uint8_t round_keys[][16], int rounds,
                        const uint8_t* in, uint8_t* out, size_t nblocks) {
  __m128i rk[15];
  for (int r = 0; r <= rounds; r++) rk[r] = LoadKey(round_keys[r]);

  // Four independent blocks per iteration keep the AES unit's pipeline
  // full (aesenc latency ~4 cycles, throughput 1/cycle).
  while (nblocks >= 4) {
    __m128i b0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(in));
    __m128i b1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + 16));
    __m128i b2 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + 32));
    __m128i b3 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + 48));
    b0 = _mm_xor_si128(b0, rk[0]);
    b1 = _mm_xor_si128(b1, rk[0]);
    b2 = _mm_xor_si128(b2, rk[0]);
    b3 = _mm_xor_si128(b3, rk[0]);
    for (int r = 1; r < rounds; r++) {
      b0 = _mm_aesenc_si128(b0, rk[r]);
      b1 = _mm_aesenc_si128(b1, rk[r]);
      b2 = _mm_aesenc_si128(b2, rk[r]);
      b3 = _mm_aesenc_si128(b3, rk[r]);
    }
    b0 = _mm_aesenclast_si128(b0, rk[rounds]);
    b1 = _mm_aesenclast_si128(b1, rk[rounds]);
    b2 = _mm_aesenclast_si128(b2, rk[rounds]);
    b3 = _mm_aesenclast_si128(b3, rk[rounds]);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out), b0);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 16), b1);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 32), b2);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 48), b3);
    in += 64;
    out += 64;
    nblocks -= 4;
  }
  while (nblocks > 0) {
    __m128i b = _mm_loadu_si128(reinterpret_cast<const __m128i*>(in));
    b = _mm_xor_si128(b, rk[0]);
    for (int r = 1; r < rounds; r++) b = _mm_aesenc_si128(b, rk[r]);
    b = _mm_aesenclast_si128(b, rk[rounds]);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out), b);
    in += 16;
    out += 16;
    nblocks--;
  }
}

void AesNiDecryptBlock(const uint8_t round_keys[][16], int rounds,
                       const uint8_t in[16], uint8_t out[16]) {
  // Equivalent inverse cipher: aesdec wants InvMixColumns-transformed
  // round keys; transform on the fly (decryption is off the hot path —
  // CTR mode only ever encrypts counter blocks).
  __m128i b = _mm_loadu_si128(reinterpret_cast<const __m128i*>(in));
  b = _mm_xor_si128(b, LoadKey(round_keys[rounds]));
  for (int r = rounds - 1; r >= 1; r--) {
    b = _mm_aesdec_si128(b, _mm_aesimc_si128(LoadKey(round_keys[r])));
  }
  b = _mm_aesdeclast_si128(b, LoadKey(round_keys[0]));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out), b);
}

}  // namespace medvault::crypto::internal

#endif  // __x86_64__ && MEDVAULT_HAVE_AES_NI
