#include "crypto/ctr.h"

#include <algorithm>
#include <cstring>

namespace medvault::crypto {

namespace {

/// Counter blocks generated (and encrypted) per kernel call: enough for
/// the AES-NI kernel to pipeline, small enough to stay on the stack.
constexpr size_t kCtrBatchBlocks = 64;

inline void XorInto(char* out, const char* in, const uint8_t* keystream,
                    size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t a, b;
    memcpy(&a, in + i, 8);
    memcpy(&b, keystream + i, 8);
    a ^= b;
    memcpy(out + i, &a, 8);
  }
  for (; i < n; i++) {
    out[i] = static_cast<char>(in[i] ^ keystream[i]);
  }
}

}  // namespace

void CtrXor(const Aes& aes, const char* nonce, const char* in, size_t n,
            char* out) {
  uint8_t counter[16];
  memcpy(counter, nonce, 16);

  uint8_t counters[kCtrBatchBlocks * 16];
  uint8_t keystream[kCtrBatchBlocks * 16];
  size_t off = 0;
  while (off < n) {
    const size_t remaining = n - off;
    const size_t blocks =
        std::min(kCtrBatchBlocks, (remaining + 15) / 16);
    for (size_t b = 0; b < blocks; b++) {
      memcpy(counters + b * 16, counter, 16);
      // Increment low 64 bits big-endian.
      for (int i = 15; i >= 8; i--) {
        if (++counter[i] != 0) break;
      }
    }
    aes.EncryptBlocks(counters, keystream, blocks);
    const size_t chunk = std::min(blocks * 16, remaining);
    XorInto(out + off, in + off, keystream, chunk);
    off += chunk;
  }
}

Status AesCtr::Init(const Slice& key) { return aes_.Init(key); }

Result<std::string> AesCtr::Crypt(const Slice& nonce,
                                  const Slice& input) const {
  if (!aes_.initialized()) {
    return Status::FailedPrecondition("AesCtr not initialized");
  }
  if (nonce.size() != kCtrNonceSize) {
    return Status::InvalidArgument("CTR nonce must be 16 bytes");
  }
  std::string out(input.size(), '\0');
  CtrXor(aes_, nonce.data(), input.data(), input.size(), out.data());
  return out;
}

}  // namespace medvault::crypto
