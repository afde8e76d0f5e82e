#include "crypto/wots.h"

#include <cstring>

#include "common/coding.h"
#include "crypto/sha256.h"
#include "crypto/sha256_kernels.h"

namespace medvault::crypto {

namespace {

constexpr char kChainTag[] = "wots-chain";
constexpr size_t kChainTagLen = sizeof(kChainTag) - 1;

/// SHA-256 initial hash value (FIPS 180-4 §5.3.3): each chain step is
/// one whole message, compressed starting from it.
constexpr uint32_t kSha256Init[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                     0xa54ff53a, 0x510e527f, 0x9b05688c,
                                     0x1f83d9ab, 0x5be0cd19};

/// PRF for secret chain derivation: HMAC(secret_seed, "wots-sk" || leaf
/// || chain), written straight into `out` (kN bytes).
void DeriveChainSecret(const HmacSha256Key& secret_key, uint32_t leaf_index,
                       int chain_index, uint8_t* out) {
  char msg[15] = {'w', 'o', 't', 's', '-', 's', 'k'};
  EncodeFixed32(msg + 7, leaf_index);
  EncodeFixed32(msg + 11, static_cast<uint32_t>(chain_index));
  Sha256 h = secret_key.Begin();
  h.Update(Slice(msg, sizeof(msg)));
  secret_key.Finish(&h, out);
}

}  // namespace

Wots::ChainHasher::ChainHasher(const Slice& public_seed,
                               uint32_t leaf_index) {
  // Message: tag || public seed || leaf(4) || chain(4) || step(4) ||
  // value(kN); then 0x80, zeros, and the 64-bit big-endian bit length.
  const size_t message_len = kChainTagLen + public_seed.size() + 12 + kN;
  const size_t padded_len = (message_len + 1 + 8 + 63) / 64 * 64;
  blocks_.assign(padded_len, '\0');
  char* p = blocks_.data();
  memcpy(p, kChainTag, kChainTagLen);
  memcpy(p + kChainTagLen, public_seed.data(), public_seed.size());
  EncodeFixed32(p + kChainTagLen + public_seed.size(), leaf_index);
  chain_offset_ = kChainTagLen + public_seed.size() + 4;
  p[message_len] = static_cast<char>(0x80);
  const uint64_t bits = static_cast<uint64_t>(message_len) * 8;
  for (int i = 0; i < 8; i++) {
    p[padded_len - 1 - i] = static_cast<char>(bits >> (8 * i));
  }
}

void Wots::ChainHasher::Run(int chain_index, int start, int steps,
                            uint8_t* value) {
  char* addr = blocks_.data() + chain_offset_;
  uint8_t* in_value = reinterpret_cast<uint8_t*>(addr + 8);
  EncodeFixed32(addr, static_cast<uint32_t>(chain_index));
  memcpy(in_value, value, kN);
  const internal::Sha256BlockFn compress = internal::ActiveSha256Kernel();
  const auto* blocks = reinterpret_cast<const uint8_t*>(blocks_.data());
  const size_t nblocks = blocks_.size() / 64;
  for (int j = start; j < start + steps; j++) {
    EncodeFixed32(addr + 4, static_cast<uint32_t>(j));
    uint32_t state[8];
    memcpy(state, kSha256Init, sizeof(state));
    compress(state, blocks, nblocks);
    // The digest becomes the next step's input value.
    for (int w = 0; w < 8; w++) {
      in_value[4 * w + 0] = static_cast<uint8_t>(state[w] >> 24);
      in_value[4 * w + 1] = static_cast<uint8_t>(state[w] >> 16);
      in_value[4 * w + 2] = static_cast<uint8_t>(state[w] >> 8);
      in_value[4 * w + 3] = static_cast<uint8_t>(state[w]);
    }
  }
  memcpy(value, in_value, kN);
}

Wots::Wots(const Slice& secret_seed, const Slice& public_seed,
           uint32_t leaf_index)
    : Wots(HmacSha256Key(secret_seed), public_seed, leaf_index) {}

Wots::Wots(const HmacSha256Key& secret_key, const Slice& public_seed,
           uint32_t leaf_index)
    : hasher_(public_seed, leaf_index) {
  for (int i = 0; i < kLen; i++) {
    DeriveChainSecret(secret_key, leaf_index, i, secret_chains_[i]);
  }
}

Result<std::vector<int>> Wots::Digits(const Slice& digest) {
  if (digest.size() != kN) {
    return Status::InvalidArgument("WOTS signs 32-byte digests only");
  }
  std::vector<int> digits;
  digits.reserve(kLen);
  // Message digits: two base-16 digits per byte.
  for (int i = 0; i < kN; i++) {
    auto byte = static_cast<unsigned char>(digest[i]);
    digits.push_back(byte >> 4);
    digits.push_back(byte & 0xf);
  }
  // Checksum: sum of (w-1 - digit), encoded base-w in kLen2 digits.
  int checksum = 0;
  for (int d : digits) checksum += (kW - 1) - d;
  for (int i = kLen2 - 1; i >= 0; i--) {
    digits.push_back((checksum >> (4 * i)) & 0xf);
  }
  return digits;
}

std::string Wots::PublicKey() const {
  Sha256 h;
  h.Update("wots-pk");
  uint8_t top[kN];
  for (int i = 0; i < kLen; i++) {
    memcpy(top, secret_chains_[i], kN);
    hasher_.Run(i, 0, kW - 1, top);
    h.Update(Slice(reinterpret_cast<const char*>(top), kN));
  }
  return h.Finish();
}

Result<Wots::Signature> Wots::Sign(const Slice& digest) const {
  MEDVAULT_ASSIGN_OR_RETURN(std::vector<int> digits, Digits(digest));
  Signature sig;
  sig.reserve(kLen);
  for (int i = 0; i < kLen; i++) {
    std::string value(reinterpret_cast<const char*>(secret_chains_[i]), kN);
    hasher_.Run(i, 0, digits[i], reinterpret_cast<uint8_t*>(value.data()));
    sig.push_back(std::move(value));
  }
  return sig;
}

Result<std::string> Wots::PublicKeyFromSignature(const Slice& digest,
                                                 const Signature& sig,
                                                 const Slice& public_seed,
                                                 uint32_t leaf_index) {
  if (static_cast<int>(sig.size()) != kLen) {
    return Status::InvalidArgument("WOTS signature has wrong chain count");
  }
  MEDVAULT_ASSIGN_OR_RETURN(std::vector<int> digits, Digits(digest));
  ChainHasher hasher(public_seed, leaf_index);
  Sha256 h;
  h.Update("wots-pk");
  uint8_t top[kN];
  for (int i = 0; i < kLen; i++) {
    if (sig[i].size() != kN) {
      return Status::InvalidArgument("WOTS signature chain has wrong size");
    }
    memcpy(top, sig[i].data(), kN);
    hasher.Run(i, digits[i], (kW - 1) - digits[i], top);
    h.Update(Slice(reinterpret_cast<const char*>(top), kN));
  }
  return h.Finish();
}

Status Wots::Verify(const Slice& digest, const Signature& sig,
                    const Slice& public_key, const Slice& public_seed,
                    uint32_t leaf_index) {
  MEDVAULT_ASSIGN_OR_RETURN(
      std::string pk,
      PublicKeyFromSignature(digest, sig, public_seed, leaf_index));
  if (!ConstantTimeEqual(pk, public_key)) {
    return Status::TamperDetected("WOTS signature does not verify");
  }
  return Status::OK();
}

std::string Wots::EncodeSignature(const Signature& sig) {
  std::string out;
  out.reserve(sig.size() * kN);
  for (const std::string& chain : sig) out.append(chain);
  return out;
}

Result<Wots::Signature> Wots::DecodeSignature(const Slice& data) {
  if (data.size() != static_cast<size_t>(kLen) * kN) {
    return Status::InvalidArgument("encoded WOTS signature has wrong size");
  }
  Signature sig;
  sig.reserve(kLen);
  for (int i = 0; i < kLen; i++) {
    sig.emplace_back(data.data() + i * kN, kN);
  }
  return sig;
}

}  // namespace medvault::crypto
