// WOTS+ and XMSS-style hash-based signature tests: correctness,
// forgery resistance, state discipline, serialization, golden bytes, and
// rebuilding a signer from its stored leaves.

#include <gtest/gtest.h>

#include <string>

#include "common/hex.h"
#include "crypto/sha256.h"
#include "crypto/wots.h"
#include "crypto/xmss.h"

namespace medvault::crypto {
namespace {

constexpr char kSecretSeed[] = "wots-secret-seed-for-tests";
constexpr char kPublicSeed[] = "wots-public-seed-for-tests";

// ---- WOTS -------------------------------------------------------------------

TEST(WotsTest, SignVerifyRoundTrip) {
  Wots wots(kSecretSeed, kPublicSeed, 0);
  std::string digest = Sha256Digest("message");
  auto sig = wots.Sign(digest);
  ASSERT_TRUE(sig.ok());
  EXPECT_EQ(sig->size(), static_cast<size_t>(Wots::kLen));
  EXPECT_TRUE(
      Wots::Verify(digest, *sig, wots.PublicKey(), kPublicSeed, 0).ok());
}

TEST(WotsTest, WrongMessageFails) {
  Wots wots(kSecretSeed, kPublicSeed, 0);
  auto sig = wots.Sign(Sha256Digest("message"));
  ASSERT_TRUE(sig.ok());
  EXPECT_TRUE(Wots::Verify(Sha256Digest("other"), *sig, wots.PublicKey(),
                           kPublicSeed, 0)
                  .IsTamperDetected());
}

TEST(WotsTest, WrongLeafIndexFails) {
  Wots wots(kSecretSeed, kPublicSeed, 3);
  std::string digest = Sha256Digest("message");
  auto sig = wots.Sign(digest);
  ASSERT_TRUE(sig.ok());
  EXPECT_FALSE(
      Wots::Verify(digest, *sig, wots.PublicKey(), kPublicSeed, 4).ok());
}

TEST(WotsTest, TamperedChainValueFails) {
  Wots wots(kSecretSeed, kPublicSeed, 0);
  std::string digest = Sha256Digest("message");
  auto sig = wots.Sign(digest);
  ASSERT_TRUE(sig.ok());
  (*sig)[10][0] ^= 1;
  EXPECT_TRUE(Wots::Verify(digest, *sig, wots.PublicKey(), kPublicSeed, 0)
                  .IsTamperDetected());
}

TEST(WotsTest, ChecksumPreventsDigitIncreaseForgery) {
  // The classic Winternitz attack: advancing a signature chain signs a
  // "larger digit" message. The checksum chains must catch this: a
  // forged signature built by hashing sig chains forward must fail.
  Wots wots(kSecretSeed, kPublicSeed, 0);
  std::string digest = Sha256Digest("target");
  auto sig = wots.Sign(digest);
  ASSERT_TRUE(sig.ok());
  // "Advance" chain 0 by one step (what an attacker can compute freely).
  Sha256 h;
  h.Update("wots-chain");
  h.Update(kPublicSeed);
  // (we don't know the exact digit; just perturb with a hash)
  (*sig)[0] = Sha256Digest((*sig)[0]);
  EXPECT_FALSE(
      Wots::Verify(digest, *sig, wots.PublicKey(), kPublicSeed, 0).ok());
}

TEST(WotsTest, SignatureSerializationRoundTrip) {
  Wots wots(kSecretSeed, kPublicSeed, 7);
  auto sig = wots.Sign(Sha256Digest("message"));
  ASSERT_TRUE(sig.ok());
  std::string encoded = Wots::EncodeSignature(*sig);
  EXPECT_EQ(encoded.size(), static_cast<size_t>(Wots::kLen) * Wots::kN);
  auto decoded = Wots::DecodeSignature(encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, *sig);
  EXPECT_TRUE(
      Wots::DecodeSignature("too short").status().IsInvalidArgument());
}

TEST(WotsTest, RejectsNonDigestMessages) {
  Wots wots(kSecretSeed, kPublicSeed, 0);
  EXPECT_TRUE(wots.Sign("not 32 bytes").status().IsInvalidArgument());
}

TEST(WotsTest, DifferentLeavesHaveDifferentKeys) {
  Wots a(kSecretSeed, kPublicSeed, 0);
  Wots b(kSecretSeed, kPublicSeed, 1);
  EXPECT_NE(a.PublicKey(), b.PublicKey());
}

// ---- XMSS -------------------------------------------------------------------

class XmssTest : public ::testing::Test {
 protected:
  static constexpr int kHeight = 3;  // 8 signatures
  XmssSigner signer_{kSecretSeed, kPublicSeed, kHeight};
};

TEST_F(XmssTest, SignVerifyRoundTrip) {
  auto sig = signer_.Sign("audit checkpoint 1");
  ASSERT_TRUE(sig.ok());
  EXPECT_TRUE(XmssSigner::Verify("audit checkpoint 1", *sig,
                                 signer_.public_key(), kPublicSeed, kHeight)
                  .ok());
}

TEST_F(XmssTest, EachSignatureUsesFreshLeaf) {
  auto s1 = signer_.Sign("m1");
  auto s2 = signer_.Sign("m2");
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(s1->leaf_index, 0u);
  EXPECT_EQ(s2->leaf_index, 1u);
  EXPECT_EQ(signer_.SignaturesUsed(), 2u);
  EXPECT_EQ(signer_.SignaturesRemaining(), 6u);
}

TEST_F(XmssTest, ExhaustionRefusesToSign) {
  for (int i = 0; i < 8; i++) {
    ASSERT_TRUE(signer_.Sign("m" + std::to_string(i)).ok());
  }
  EXPECT_TRUE(signer_.Sign("one too many").status().IsFailedPrecondition());
}

TEST_F(XmssTest, AllLeavesVerify) {
  for (int i = 0; i < 8; i++) {
    std::string msg = "message-" + std::to_string(i);
    auto sig = signer_.Sign(msg);
    ASSERT_TRUE(sig.ok());
    EXPECT_TRUE(XmssSigner::Verify(msg, *sig, signer_.public_key(),
                                   kPublicSeed, kHeight)
                    .ok())
        << "leaf " << i;
  }
}

TEST_F(XmssTest, WrongMessageFails) {
  auto sig = signer_.Sign("genuine");
  ASSERT_TRUE(sig.ok());
  EXPECT_TRUE(XmssSigner::Verify("forged", *sig, signer_.public_key(),
                                 kPublicSeed, kHeight)
                  .IsTamperDetected());
}

TEST_F(XmssTest, TamperedAuthPathFails) {
  auto sig = signer_.Sign("msg");
  ASSERT_TRUE(sig.ok());
  for (size_t i = 0; i < sig->auth_path.size(); i++) {
    XmssSignature tampered = *sig;
    tampered.auth_path[i][0] ^= 1;
    EXPECT_FALSE(XmssSigner::Verify("msg", tampered, signer_.public_key(),
                                    kPublicSeed, kHeight)
                     .ok())
        << "auth path level " << i;
  }
}

TEST_F(XmssTest, WrongPublicKeyFails) {
  auto sig = signer_.Sign("msg");
  ASSERT_TRUE(sig.ok());
  XmssSigner other("other-secret", kPublicSeed, kHeight);
  EXPECT_TRUE(XmssSigner::Verify("msg", *sig, other.public_key(),
                                 kPublicSeed, kHeight)
                  .IsTamperDetected());
}

TEST_F(XmssTest, WrongHeightRejected) {
  auto sig = signer_.Sign("msg");
  ASSERT_TRUE(sig.ok());
  EXPECT_TRUE(XmssSigner::Verify("msg", *sig, signer_.public_key(),
                                 kPublicSeed, kHeight + 1)
                  .IsTamperDetected());
}

TEST_F(XmssTest, StateRestoreNeverRewinds) {
  ASSERT_TRUE(signer_.Sign("m0").ok());
  ASSERT_TRUE(signer_.Sign("m1").ok());
  // Rewinding would reuse one-time keys — must be refused.
  EXPECT_TRUE(signer_.RestoreState(1).IsInvalidArgument());
  EXPECT_TRUE(signer_.RestoreState(2).ok());   // no-op
  EXPECT_TRUE(signer_.RestoreState(5).ok());   // skip ahead is safe
  auto sig = signer_.Sign("m5");
  ASSERT_TRUE(sig.ok());
  EXPECT_EQ(sig->leaf_index, 5u);
  EXPECT_TRUE(signer_.RestoreState(100).IsInvalidArgument());  // beyond cap
}

TEST_F(XmssTest, DeterministicKeyGeneration) {
  // Same seeds -> same public key: a vault reopened later keeps its
  // signer identity.
  XmssSigner again(kSecretSeed, kPublicSeed, kHeight);
  EXPECT_EQ(again.public_key(), signer_.public_key());
}

TEST_F(XmssTest, SignatureSerializationRoundTrip) {
  auto sig = signer_.Sign("serialize me");
  ASSERT_TRUE(sig.ok());
  std::string encoded = sig->Encode();
  auto decoded = XmssSignature::Decode(encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->leaf_index, sig->leaf_index);
  EXPECT_EQ(decoded->wots_signature, sig->wots_signature);
  EXPECT_EQ(decoded->auth_path, sig->auth_path);
  EXPECT_TRUE(XmssSigner::Verify("serialize me", *decoded,
                                 signer_.public_key(), kPublicSeed, kHeight)
                  .ok());
}

TEST_F(XmssTest, DecodeRejectsGarbage) {
  EXPECT_FALSE(XmssSignature::Decode("").ok());
  EXPECT_FALSE(XmssSignature::Decode("garbage bytes here").ok());
  auto sig = signer_.Sign("x");
  ASSERT_TRUE(sig.ok());
  std::string enc = sig->Encode();
  enc += "trailing";
  EXPECT_FALSE(XmssSignature::Decode(enc).ok());
}


TEST_F(XmssTest, FromLeavesMatchesSeedSigner) {
  XmssSigner rebuilt(kSecretSeed, kPublicSeed, kHeight, signer_.leaves());
  EXPECT_EQ(rebuilt.public_key(), signer_.public_key());
  EXPECT_EQ(rebuilt.leaves(), signer_.leaves());
  EXPECT_EQ(rebuilt.leaves().size(), size_t{1} << kHeight);
  // Same leaf, same message: byte-identical signatures.
  for (int i = 0; i < 3; i++) {
    auto a = signer_.Sign("m" + std::to_string(i));
    auto b = rebuilt.Sign("m" + std::to_string(i));
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->Encode(), b->Encode());
  }
}

TEST_F(XmssTest, ForeignLeavesNeverVerifyUnderGenuineRoot) {
  // Leaves from another secret build a signer with another root; what
  // it signs does not verify under this signer's public key.
  XmssSigner other("other-secret", kPublicSeed, kHeight);
  XmssSigner spliced(kSecretSeed, kPublicSeed, kHeight, other.leaves());
  EXPECT_NE(spliced.public_key(), signer_.public_key());
  auto sig = spliced.Sign("msg");
  ASSERT_TRUE(sig.ok());
  EXPECT_TRUE(XmssSigner::Verify("msg", *sig, signer_.public_key(),
                                 kPublicSeed, kHeight)
                  .IsTamperDetected());
}

// Golden vectors: public keys and signature bytes pinned to the output
// of the original allocating implementation (Sha256 object per chain
// step, HMAC re-keyed per chain secret), so an optimization of key
// generation or signing can never change what a vault has published.
// A 26-byte public seed (chain input spans two blocks with the length
// in the second) and a 32-byte one (the vault's shape); leaf 5, so the
// auth path takes both left and right siblings.
TEST(XmssGoldenTest, PublicKeyAndSignatureBytesAreStable) {
  struct Golden {
    std::string public_seed;
    const char* public_key;
    const char* signature_sha256;
    const char* signature_head;  ///< first 48 encoded bytes
  };
  const Golden goldens[] = {
      {kPublicSeed,
       "71e0b045bc2489a4bc21b57d248b6d21ef6a5f579b9e19e1455de17ed6eec838",
       "44046805152834e03dc0a887c051029a90aef643cb724f728eeab54e273e46af",
       "05000000e010ea0921c4bcee308bf2c3b13a0edcc506be40bcd3fd2c8102b6dd83e6"
       "c71127224fcbdc9bcc6fb3aca974"},
      {Sha256Digest("golden-public-seed"),
       "a4414c3aff143478aa38d923510f4e35b83b3ed105aa35fdcadbe5905041d138",
       "3d1530f032690e0fae23b6d9d9817996f565050a327baaf1b184dc73ca42db35",
       "05000000e010217a073df9f6c37d0670b58d83ae765ef543e1df8e779bb621cb3148"
       "5652f9ae4fcbdc9bcc6fb3aca974"},
  };
  for (const Golden& g : goldens) {
    XmssSigner signer(kSecretSeed, g.public_seed, 4);
    EXPECT_EQ(HexEncode(signer.public_key()), g.public_key);
    ASSERT_TRUE(signer.RestoreState(5).ok());
    auto sig = signer.Sign("golden checkpoint");
    ASSERT_TRUE(sig.ok());
    const std::string encoded = sig->Encode();
    EXPECT_EQ(encoded.size(), 2283u);
    EXPECT_EQ(HexEncode(Slice(encoded.data(), 48)), g.signature_head);
    EXPECT_EQ(HexEncode(Sha256Digest(encoded)), g.signature_sha256);
    EXPECT_TRUE(XmssSigner::Verify("golden checkpoint", *sig,
                                   signer.public_key(), g.public_seed, 4)
                    .ok());
  }
}

}  // namespace
}  // namespace medvault::crypto
