#include "crypto/hmac.h"

#include <cstring>

namespace medvault::crypto {

namespace {
constexpr size_t kBlockSize = 64;
}  // namespace

void HmacSha256Key::Init(const Slice& key) {
  uint8_t block[kBlockSize] = {};
  if (key.size() > kBlockSize) {
    Sha256 h;
    h.Update(key);
    h.Finish(block);
  } else if (!key.empty()) {
    memcpy(block, key.data(), key.size());
  }
  const Slice block_slice(reinterpret_cast<const char*>(block), kBlockSize);
  for (uint8_t& b : block) b ^= 0x36;
  inner_.Reset();
  inner_.Update(block_slice);
  for (uint8_t& b : block) b ^= 0x36 ^ 0x5c;
  outer_.Reset();
  outer_.Update(block_slice);
  SecureWipe(block, sizeof(block));
}

void HmacSha256Key::Finish(Sha256* inner, uint8_t tag[kDigestSize]) const {
  uint8_t inner_digest[kDigestSize];
  inner->Finish(inner_digest);
  Sha256 outer = outer_;
  outer.Update(
      Slice(reinterpret_cast<const char*>(inner_digest), kDigestSize));
  outer.Finish(tag);
}

std::string HmacSha256Key::Mac(const Slice& message) const {
  Sha256 h = Begin();
  h.Update(message);
  std::string tag(kDigestSize, '\0');
  Finish(&h, reinterpret_cast<uint8_t*>(tag.data()));
  return tag;
}

void HmacSha256Key::Clear() {
  SecureWipe(&inner_, sizeof(inner_));
  SecureWipe(&outer_, sizeof(outer_));
}

std::string HmacSha256(const Slice& key, const Slice& message) {
  return HmacSha256Key(key).Mac(message);
}

bool ConstantTimeEqual(const Slice& a, const Slice& b) {
  if (a.size() != b.size()) return false;
  unsigned char diff = 0;
  for (size_t i = 0; i < a.size(); i++) {
    diff |= static_cast<unsigned char>(a[i]) ^ static_cast<unsigned char>(b[i]);
  }
  return diff == 0;
}

void SecureWipe(void* data, size_t n) {
  // memset called through a volatile function pointer: the compiler
  // cannot prove the callee is memset, so it cannot drop the call as a
  // dead store, and the wipe still runs at memset speed.
  static void* (*const volatile wipe)(void*, int, size_t) = &memset;
  wipe(data, 0, n);
}

}  // namespace medvault::crypto
