#include "crypto/hkdf.h"

#include <algorithm>
#include <cstring>

#include "crypto/hmac.h"
#include "crypto/sha256.h"

namespace medvault::crypto {

namespace {

/// RFC 5869: an absent salt is a string of HashLen zeros. Every
/// zero-salt Extract (each Aead::Init, each per-record index key) keys
/// HMAC with it, so its pads are absorbed once per process.
const HmacSha256Key& ZeroSaltKey() {
  static const HmacSha256Key key(std::string(kDigestSize, '\0'));
  return key;
}

}  // namespace

std::string HkdfExtract(const Slice& salt, const Slice& ikm) {
  if (salt.empty()) return ZeroSaltKey().Mac(ikm);
  return HmacSha256(salt, ikm);
}

Result<std::string> HkdfExpand(const Slice& prk, const Slice& info,
                               size_t length) {
  if (length > 255 * kDigestSize) {
    return Status::InvalidArgument("HKDF output length too large");
  }
  // T(i) = HMAC(PRK, T(i-1) || info || i), streamed into the prepared
  // key: the pads are absorbed once for all blocks.
  const HmacSha256Key key(prk);
  std::string okm(length, '\0');
  uint8_t t[kDigestSize] = {};
  size_t t_len = 0;
  size_t off = 0;
  for (uint8_t counter = 1; off < length; counter++) {
    Sha256 h = key.Begin();
    h.Update(Slice(reinterpret_cast<const char*>(t), t_len));
    h.Update(info);
    h.Update(Slice(reinterpret_cast<const char*>(&counter), 1));
    key.Finish(&h, t);
    t_len = kDigestSize;
    const size_t take = std::min(kDigestSize, length - off);
    memcpy(okm.data() + off, t, take);
    off += take;
  }
  return okm;
}

Result<std::string> HkdfSha256(const Slice& ikm, const Slice& salt,
                               const Slice& info, size_t length) {
  std::string prk = HkdfExtract(salt, ikm);
  return HkdfExpand(prk, info, length);
}

}  // namespace medvault::crypto
