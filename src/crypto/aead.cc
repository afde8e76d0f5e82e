#include "crypto/aead.h"

#include <cstring>

#include "common/coding.h"
#include "crypto/ctr.h"
#include "crypto/hkdf.h"

namespace medvault::crypto {

Status Aead::Init(const Slice& key) {
  if (key.size() != kAes256KeySize) {
    return Status::InvalidArgument("AEAD key must be 32 bytes");
  }
  if (initialized_) Clear();
  MEDVAULT_ASSIGN_OR_RETURN(std::string okm,
                            HkdfSha256(key, Slice(), "medvault-aead-v1", 64));
  Status s = cipher_.Init(Slice(okm.data(), 32));
  mac_.Init(Slice(okm.data() + 32, 32));
  SecureWipe(okm.data(), okm.size());
  MEDVAULT_RETURN_IF_ERROR(s);
  initialized_ = true;
  return Status::OK();
}

void Aead::Clear() {
  cipher_.Clear();
  mac_.Clear();
  initialized_ = false;
}

void Aead::ComputeTag(const Slice& nonce, const Slice& ciphertext,
                      const Slice& aad, uint8_t tag[kDigestSize]) const {
  char aad_len[8];
  EncodeFixed64(aad_len, aad.size());
  Sha256 h = mac_.Begin();
  h.Update(Slice(aad_len, sizeof(aad_len)));
  h.Update(aad);
  h.Update(nonce);
  h.Update(ciphertext);
  mac_.Finish(&h, tag);
}

Result<std::string> Aead::Seal(const Slice& nonce, const Slice& plaintext,
                               const Slice& aad) const {
  if (!initialized_) return Status::FailedPrecondition("Aead not initialized");
  if (nonce.size() != kCtrNonceSize) {
    return Status::InvalidArgument("AEAD nonce must be 16 bytes");
  }
  // nonce || ciphertext || tag, each written in place.
  std::string out(kOverhead + plaintext.size(), '\0');
  char* ciphertext = out.data() + kCtrNonceSize;
  memcpy(out.data(), nonce.data(), kCtrNonceSize);
  CtrXor(cipher_, nonce.data(), plaintext.data(), plaintext.size(),
         ciphertext);
  ComputeTag(nonce, Slice(ciphertext, plaintext.size()), aad,
             reinterpret_cast<uint8_t*>(ciphertext + plaintext.size()));
  return out;
}

Result<std::string> Aead::Open(const Slice& sealed, const Slice& aad) const {
  if (!initialized_) return Status::FailedPrecondition("Aead not initialized");
  if (sealed.size() < kOverhead) {
    return Status::TamperDetected("sealed blob shorter than AEAD overhead");
  }
  Slice nonce(sealed.data(), kCtrNonceSize);
  Slice ciphertext(sealed.data() + kCtrNonceSize,
                   sealed.size() - kOverhead);
  Slice tag(sealed.data() + sealed.size() - kDigestSize, kDigestSize);

  uint8_t expected[kDigestSize];
  ComputeTag(nonce, ciphertext, aad, expected);
  if (!ConstantTimeEqual(
          Slice(reinterpret_cast<const char*>(expected), kDigestSize), tag)) {
    return Status::TamperDetected("AEAD tag mismatch");
  }
  std::string plaintext(ciphertext.size(), '\0');
  CtrXor(cipher_, nonce.data(), ciphertext.data(), ciphertext.size(),
         plaintext.data());
  return plaintext;
}

}  // namespace medvault::crypto
