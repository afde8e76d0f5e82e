#ifndef MEDVAULT_CRYPTO_HMAC_H_
#define MEDVAULT_CRYPTO_HMAC_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/slice.h"
#include "crypto/sha256.h"

namespace medvault::crypto {

/// An HMAC-SHA256 key with its per-key work done once: the hash states
/// after absorbing the ipad and opad blocks (RFC 2104). Each MAC then
/// costs only the message's own compressions plus one outer block, with
/// no pad recomputation and no allocation on the raw-buffer path.
///
///   HmacSha256Key key(secret);
///   Sha256 h = key.Begin();      // streaming: absorb pieces in place
///   h.Update(part1); h.Update(part2);
///   uint8_t tag[kDigestSize];
///   key.Finish(&h, tag);
///
/// The midstates are key material: owners that hold one long-lived call
/// Clear() when done with it.
class HmacSha256Key {
 public:
  HmacSha256Key() = default;
  explicit HmacSha256Key(const Slice& key) { Init(key); }

  /// Any key length; keys longer than the 64-byte block are hashed first.
  void Init(const Slice& key);

  /// A hash with the inner pad already absorbed: Update() it with the
  /// message, then pass it to Finish().
  Sha256 Begin() const { return inner_; }

  /// Completes the MAC over everything `inner` absorbed since Begin().
  void Finish(Sha256* inner, uint8_t tag[kDigestSize]) const;

  /// One-shot: the 32-byte tag of `message`.
  std::string Mac(const Slice& message) const;

  /// Overwrites both midstates.
  void Clear();

 private:
  Sha256 inner_;
  Sha256 outer_;
};

/// HMAC-SHA256 (RFC 2104). Returns a 32-byte tag.
std::string HmacSha256(const Slice& key, const Slice& message);

/// Constant-time equality of two byte strings (length leak only).
/// Use for all MAC/tag comparisons.
bool ConstantTimeEqual(const Slice& a, const Slice& b);

/// Best-effort in-memory shredding of key material: zeroes `n` bytes in
/// a way the compiler cannot remove as a dead store.
void SecureWipe(void* data, size_t n);

}  // namespace medvault::crypto

#endif  // MEDVAULT_CRYPTO_HMAC_H_
