// Unit tests for the crypto substrate: SHA-256, HMAC, HKDF, HMAC-DRBG,
// AES, AES-CTR, and the AEAD composition — against published test
// vectors where they exist.

#include <gtest/gtest.h>

#include <string>

#include "common/hex.h"
#include "crypto/aead.h"
#include "crypto/aes.h"
#include "crypto/ctr.h"
#include "crypto/drbg.h"
#include "crypto/hkdf.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"

namespace medvault::crypto {
namespace {

std::string FromHex(const std::string& hex) {
  auto r = HexDecode(hex);
  EXPECT_TRUE(r.ok()) << hex;
  return r.ValueOr("");
}

// ---- SHA-256 (FIPS 180-4 vectors) ------------------------------------------

TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(HexEncode(Sha256Digest(Slice())),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(HexEncode(Sha256Digest("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(HexEncode(Sha256Digest(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 h;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; i++) h.Update(chunk);
  EXPECT_EQ(HexEncode(h.Finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  std::string msg = "the quick brown fox jumps over the lazy dog";
  for (size_t split = 0; split <= msg.size(); split += 7) {
    Sha256 h;
    h.Update(Slice(msg.data(), split));
    h.Update(Slice(msg.data() + split, msg.size() - split));
    EXPECT_EQ(h.Finish(), Sha256Digest(msg)) << "split=" << split;
  }
}

TEST(Sha256Test, PaddingBoundaries) {
  // Lengths around the 55/56/64 byte padding boundaries.
  for (size_t len : {54u, 55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u}) {
    std::string msg(len, 'x');
    std::string d1 = Sha256Digest(msg);
    Sha256 h;
    for (char c : msg) h.Update(Slice(&c, 1));
    EXPECT_EQ(h.Finish(), d1) << "len=" << len;
  }
}

TEST(Sha256Test, ResetRestartsState) {
  Sha256 h;
  h.Update("garbage");
  h.Reset();
  h.Update("abc");
  EXPECT_EQ(HexEncode(h.Finish()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

// ---- HMAC-SHA256 (RFC 4231 vectors) -----------------------------------------

TEST(HmacTest, Rfc4231Case1) {
  std::string key(20, '\x0b');
  EXPECT_EQ(HexEncode(HmacSha256(key, "Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacTest, Rfc4231Case2) {
  EXPECT_EQ(HexEncode(HmacSha256("Jefe", "what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacTest, Rfc4231Case6LongKey) {
  std::string key(131, '\xaa');
  EXPECT_EQ(HexEncode(HmacSha256(
                key, "Test Using Larger Than Block-Size Key - Hash Key First")),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacTest, KeySensitivity) {
  EXPECT_NE(HmacSha256("key1", "msg"), HmacSha256("key2", "msg"));
  EXPECT_NE(HmacSha256("key", "msg1"), HmacSha256("key", "msg2"));
}

TEST(ConstantTimeEqualTest, Behaviour) {
  EXPECT_TRUE(ConstantTimeEqual("same", "same"));
  EXPECT_FALSE(ConstantTimeEqual("same", "sane"));
  EXPECT_FALSE(ConstantTimeEqual("short", "longer"));
  EXPECT_TRUE(ConstantTimeEqual("", ""));
}

// ---- HKDF (RFC 5869 vectors) -------------------------------------------------

TEST(HkdfTest, Rfc5869Case1) {
  std::string ikm = FromHex("0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b");
  std::string salt = FromHex("000102030405060708090a0b0c");
  std::string info = FromHex("f0f1f2f3f4f5f6f7f8f9");
  auto okm = HkdfSha256(ikm, salt, info, 42);
  ASSERT_TRUE(okm.ok());
  EXPECT_EQ(HexEncode(*okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

TEST(HkdfTest, Rfc5869Case3EmptySaltInfo) {
  std::string ikm = FromHex("0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b");
  auto okm = HkdfSha256(ikm, Slice(), Slice(), 42);
  ASSERT_TRUE(okm.ok());
  EXPECT_EQ(HexEncode(*okm),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d"
            "9d201395faa4b61a96c8");
}

TEST(HkdfTest, RejectsOversizedOutput) {
  auto okm = HkdfSha256("ikm", Slice(), Slice(), 255 * 32 + 1);
  EXPECT_TRUE(okm.status().IsInvalidArgument());
}

TEST(HkdfTest, DistinctInfoYieldsIndependentKeys) {
  auto k1 = HkdfSha256("master", Slice(), "purpose-a", 32);
  auto k2 = HkdfSha256("master", Slice(), "purpose-b", 32);
  ASSERT_TRUE(k1.ok());
  ASSERT_TRUE(k2.ok());
  EXPECT_NE(*k1, *k2);
}

// ---- HMAC-DRBG -----------------------------------------------------------------

TEST(DrbgTest, DeterministicForSameSeed) {
  HmacDrbg a("seed"), b("seed");
  EXPECT_EQ(a.Generate(64), b.Generate(64));
  EXPECT_EQ(a.Generate(17), b.Generate(17));
}

TEST(DrbgTest, StreamAdvances) {
  HmacDrbg drbg("seed");
  EXPECT_NE(drbg.Generate(32), drbg.Generate(32));
}

TEST(DrbgTest, DifferentSeedsDiffer) {
  HmacDrbg a("seed1"), b("seed2");
  EXPECT_NE(a.Generate(32), b.Generate(32));
}

TEST(DrbgTest, ReseedChangesStream) {
  HmacDrbg a("seed"), b("seed");
  a.Generate(32);
  b.Generate(32);
  a.Reseed("fresh entropy");
  EXPECT_NE(a.Generate(32), b.Generate(32));
}

TEST(DrbgTest, OutputLooksUniform) {
  HmacDrbg drbg("statistical-check");
  std::string bytes = drbg.Generate(100000);
  int ones = 0;
  for (char c : bytes) ones += __builtin_popcount(static_cast<uint8_t>(c));
  double ratio = static_cast<double>(ones) / (bytes.size() * 8);
  EXPECT_GT(ratio, 0.49);
  EXPECT_LT(ratio, 0.51);
}

// ---- AES (FIPS 197 vectors) -----------------------------------------------------

TEST(AesTest, Fips197Aes128) {
  Aes aes;
  ASSERT_TRUE(aes.Init(FromHex("000102030405060708090a0b0c0d0e0f")).ok());
  std::string pt = FromHex("00112233445566778899aabbccddeeff");
  uint8_t ct[16];
  aes.EncryptBlock(reinterpret_cast<const uint8_t*>(pt.data()), ct);
  EXPECT_EQ(HexEncode(Slice(reinterpret_cast<char*>(ct), 16)),
            "69c4e0d86a7b0430d8cdb78070b4c55a");
  uint8_t back[16];
  aes.DecryptBlock(ct, back);
  EXPECT_EQ(std::string(reinterpret_cast<char*>(back), 16), pt);
}

TEST(AesTest, Fips197Aes256) {
  Aes aes;
  ASSERT_TRUE(
      aes.Init(FromHex("000102030405060708090a0b0c0d0e0f"
                       "101112131415161718191a1b1c1d1e1f"))
          .ok());
  std::string pt = FromHex("00112233445566778899aabbccddeeff");
  uint8_t ct[16];
  aes.EncryptBlock(reinterpret_cast<const uint8_t*>(pt.data()), ct);
  EXPECT_EQ(HexEncode(Slice(reinterpret_cast<char*>(ct), 16)),
            "8ea2b7ca516745bfeafc49904b496089");
  uint8_t back[16];
  aes.DecryptBlock(ct, back);
  EXPECT_EQ(std::string(reinterpret_cast<char*>(back), 16), pt);
}

TEST(AesTest, RejectsBadKeySizes) {
  Aes aes;
  EXPECT_TRUE(aes.Init("short").IsInvalidArgument());
  EXPECT_TRUE(aes.Init(std::string(24, 'k')).IsInvalidArgument());  // AES-192
  EXPECT_FALSE(aes.initialized());
}

// ---- AES-CTR (NIST SP 800-38A F.5.1) ----------------------------------------------

TEST(CtrTest, NistSp80038aAes128Ctr) {
  AesCtr ctr;
  ASSERT_TRUE(ctr.Init(FromHex("2b7e151628aed2a6abf7158809cf4f3c")).ok());
  std::string nonce = FromHex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff");
  std::string pt = FromHex(
      "6bc1bee22e409f96e93d7e117393172a"
      "ae2d8a571e03ac9c9eb76fac45af8e51"
      "30c81c46a35ce411e5fbc1191a0a52ef"
      "f69f2445df4f9b17ad2b417be66c3710");
  auto ct = ctr.Crypt(nonce, pt);
  ASSERT_TRUE(ct.ok());
  EXPECT_EQ(HexEncode(*ct),
            "874d6191b620e3261bef6864990db6ce"
            "9806f66b7970fdff8617187bb9fffdff"
            "5ae4df3edbd5d35e5b4f09020db03eab"
            "1e031dda2fbe03d1792170a0f3009cee");
}

TEST(CtrTest, CryptIsItsOwnInverse) {
  AesCtr ctr;
  ASSERT_TRUE(ctr.Init(std::string(32, 'k')).ok());
  std::string nonce(16, 'n');
  std::string pt = "not a multiple of sixteen bytes!!";
  auto ct = ctr.Crypt(nonce, pt);
  ASSERT_TRUE(ct.ok());
  EXPECT_NE(*ct, pt);
  auto back = ctr.Crypt(nonce, *ct);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, pt);
}

TEST(CtrTest, RejectsBadNonce) {
  AesCtr ctr;
  ASSERT_TRUE(ctr.Init(std::string(32, 'k')).ok());
  EXPECT_TRUE(ctr.Crypt("short", "data").status().IsInvalidArgument());
}

TEST(CtrTest, EmptyInputYieldsEmptyOutput) {
  AesCtr ctr;
  ASSERT_TRUE(ctr.Init(std::string(32, 'k')).ok());
  auto out = ctr.Crypt(std::string(16, 'n'), Slice());
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->empty());
}

// ---- AEAD ---------------------------------------------------------------------------

class AeadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(aead_.Init(std::string(32, 'K')).ok());
  }
  Aead aead_;
  std::string nonce_ = std::string(16, 'N');
};

TEST_F(AeadTest, SealOpenRoundTrip) {
  auto sealed = aead_.Seal(nonce_, "secret medical note", "record-aad");
  ASSERT_TRUE(sealed.ok());
  EXPECT_EQ(sealed->size(), 19 + Aead::kOverhead);
  auto opened = aead_.Open(*sealed, "record-aad");
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(*opened, "secret medical note");
}

TEST_F(AeadTest, EveryCiphertextByteFlipIsDetected) {
  auto sealed = aead_.Seal(nonce_, "payload", "aad");
  ASSERT_TRUE(sealed.ok());
  for (size_t i = 0; i < sealed->size(); i++) {
    std::string tampered = *sealed;
    tampered[i] ^= 0x01;
    EXPECT_TRUE(aead_.Open(tampered, "aad").status().IsTamperDetected())
        << "byte " << i << " flip not detected";
  }
}

TEST_F(AeadTest, WrongAadRejected) {
  auto sealed = aead_.Seal(nonce_, "payload", "aad-1");
  ASSERT_TRUE(sealed.ok());
  EXPECT_TRUE(aead_.Open(*sealed, "aad-2").status().IsTamperDetected());
}

TEST_F(AeadTest, TruncatedBlobRejected) {
  auto sealed = aead_.Seal(nonce_, "payload", "aad");
  ASSERT_TRUE(sealed.ok());
  std::string truncated = sealed->substr(0, Aead::kOverhead - 1);
  EXPECT_TRUE(aead_.Open(truncated, "aad").status().IsTamperDetected());
}

TEST_F(AeadTest, EmptyPlaintextWorks) {
  auto sealed = aead_.Seal(nonce_, Slice(), "aad");
  ASSERT_TRUE(sealed.ok());
  auto opened = aead_.Open(*sealed, "aad");
  ASSERT_TRUE(opened.ok());
  EXPECT_TRUE(opened->empty());
}

TEST_F(AeadTest, DifferentKeysCannotOpen) {
  auto sealed = aead_.Seal(nonce_, "payload", "aad");
  ASSERT_TRUE(sealed.ok());
  Aead other;
  ASSERT_TRUE(other.Init(std::string(32, 'X')).ok());
  EXPECT_TRUE(other.Open(*sealed, "aad").status().IsTamperDetected());
}

TEST_F(AeadTest, RejectsBadKeyAndNonceSizes) {
  Aead bad;
  EXPECT_TRUE(bad.Init("short").IsInvalidArgument());
  EXPECT_TRUE(
      aead_.Seal("shortnonce", "pt", "aad").status().IsInvalidArgument());
}

// ---- Golden vectors ---------------------------------------------------------
//
// Byte-exact outputs recorded from the original (per-call HKDF, scalar key
// schedule, copy-then-MAC) implementation. Every sealed blob, key-ref and
// derived key on disk depends on these bytes staying put for the 30-year
// retention horizon, so any optimisation of Aead/HMAC/HKDF must reproduce
// them exactly — on every dispatched kernel (the suite also runs under
// MEDVAULT_FORCE_SCALAR=1).

// Deterministic test bytes: out[i] = i * mul + add (mod 256).
std::string Pattern(size_t n, unsigned mul, unsigned add) {
  std::string out(n, '\0');
  for (size_t i = 0; i < n; i++) {
    out[i] = static_cast<char>((i * mul + add) & 0xff);
  }
  return out;
}

TEST(GoldenTest, AeadSealIsByteIdenticalAcrossLengths) {
  struct Golden {
    size_t length;
    const char* sha256_of_sealed;
  };
  const Golden kGolden[] = {
      {0, "0d97873e9ea2144dd008713cc6c669c4a7851845d9e2dcc606fe510bb33d53b9"},
      {1, "42409e0429b759a38f222f3574027e8e9711722fd99d885e297256d3cdfba17f"},
      {15, "d0656931c5eee1b3b589887a3c78ed5b075010f4b149b4503a505f2f24dd8c2a"},
      {16, "ff3b69a4d7112039e0904e3b11edd99348f2fc5b0d9f9aaa542a8b1df081d7cc"},
      {17, "0617643b0f69b4d0f00ba9f675f5ff795c6df32cf15cc246fa497690e157302d"},
      {63, "52e1a9acc97da4b66c8f3ec62e1fe30f88586ed320147d21cbf424fe022a95ef"},
      {64, "040b3279fd9b1af12952641a0aa2787b9b270d4eb01eec0bade847d7523aa979"},
      {65, "61c13b84b503cd53977fb96ffc3bd1bf1c6bf3161b3a81554c9f06f814b69add"},
      {1024,
       "eb3c325f1d914d8fee6fb0b4a956597d042fd794875398456e23eee9986e730c"},
      {4099,
       "9f6270214749e2f5237517545c264abea90c331b6b3ecefa4bb3174b2ab211e6"},
  };
  Aead aead;
  ASSERT_TRUE(aead.Init(Pattern(32, 1, 0)).ok());
  const std::string nonce = Pattern(16, 1, 0xa0);
  const std::string aad = "medvault-golden-aad";
  for (const Golden& g : kGolden) {
    const std::string plaintext = Pattern(g.length, 7, 3);
    auto sealed = aead.Seal(nonce, plaintext, aad);
    ASSERT_TRUE(sealed.ok()) << g.length;
    ASSERT_EQ(sealed->size(), g.length + Aead::kOverhead);
    EXPECT_EQ(HexEncode(Sha256Digest(*sealed)), g.sha256_of_sealed)
        << "sealed bytes changed at length " << g.length;
    auto opened = aead.Open(*sealed, aad);
    ASSERT_TRUE(opened.ok()) << g.length;
    EXPECT_EQ(*opened, plaintext);
  }
}

TEST(GoldenTest, AeadSealShortBlobsVerbatim) {
  // The short blobs in full, so a failure shows which part moved
  // (nonce | ciphertext | tag).
  struct Golden {
    size_t length;
    const char* sealed_hex;
  };
  const Golden kGolden[] = {
      {0,
       "a0a1a2a3a4a5a6a7a8a9aaabacadaeaf3340f0e831c9ed67695c3198f07c21f1"
       "50d998733dcee367fba5eb7b39d370a7"},
      {1,
       "a0a1a2a3a4a5a6a7a8a9aaabacadaeaf3f0f63da43e71bdb370c584cb0222a69"
       "f8f137fd436bf0cc2b81a2ee34df823c78"},
      {15,
       "a0a1a2a3a4a5a6a7a8a9aaabacadaeaf3f8f67687c20155ca83f31ada0834e24"
       "d37d81a0915992121aefd6265b296c8b836c6f447a30b87c0b2ece5be22b7e"},
      {16,
       "a0a1a2a3a4a5a6a7a8a9aaabacadaeaf3f8f67687c20155ca83f31ada0834edb"
       "9bd1529dc786c13d362961d96f7a437026b4df188597c303e0788809d67a16f2"},
      {17,
       "a0a1a2a3a4a5a6a7a8a9aaabacadaeaf3f8f67687c20155ca83f31ada0834edb"
       "6567ce97a31a94073836a1137400a32d4f32baf839de5e2f08b1ad7bb40afaac"
       "21"},
  };
  Aead aead;
  ASSERT_TRUE(aead.Init(Pattern(32, 1, 0)).ok());
  for (const Golden& g : kGolden) {
    auto sealed = aead.Seal(Pattern(16, 1, 0xa0), Pattern(g.length, 7, 3),
                            "medvault-golden-aad");
    ASSERT_TRUE(sealed.ok());
    EXPECT_EQ(HexEncode(*sealed), g.sealed_hex) << g.length;
  }
}

TEST(GoldenTest, HmacSha256ShortAndLongKeys) {
  // Key lengths straddle the 64-byte block: empty, short, exactly one
  // block, and longer (hashed first).
  struct Golden {
    size_t key_len;
    size_t msg_len;
    const char* tag_hex;
  };
  const Golden kGolden[] = {
      {0, 0,
       "b613679a0814d9ec772f95d778c35fc5ff1697c493715653c6c712144292c5ad"},
      {1, 55,
       "2a8d1e16526165d467733ba7512d85ed5d9fec016b9f3eeec746f61e8ebfdcaf"},
      {20, 64,
       "bd00da82f041eaebbeac49d49a2c7616263f3fe3e79341b153bc41af8b27e774"},
      {32, 3,
       "ffb87b4a6edc04d0db6c86a9570a863c8c35b5bf30e44c36fff0b2c2ec33e7ff"},
      {64, 200,
       "aea8116058015dc46abfcc32621bc1f7e7c327c89dd914a4c046651eb33e407c"},
      {65, 1,
       "30347ca2de023c7285a9c6fa122646c3a13c0c5b8f6af7d7c5c4c32b2226e07e"},
      {131, 1000,
       "300d977f27e92b54492cfb8e9d77e3d173b62f146526eefffb8a125e4e2341c3"},
  };
  for (const Golden& g : kGolden) {
    EXPECT_EQ(HexEncode(HmacSha256(Pattern(g.key_len, 13, 5),
                                   Pattern(g.msg_len, 3, 1))),
              g.tag_hex)
        << "key_len=" << g.key_len << " msg_len=" << g.msg_len;
  }
}

TEST(GoldenTest, HkdfSha256EmptyAndNonEmptySalt) {
  struct Golden {
    size_t ikm_len;
    size_t salt_len;  // 0 = absent salt (RFC 5869: HashLen zeros)
    size_t info_len;
    size_t out_len;
    const char* okm_hex;
  };
  const Golden kGolden[] = {
      {32, 0, 16, 64,
       "7e09f31ec3ff2176902e6b89d12d39a1aaff5825f76a6658a82fca749b043961"
       "1f4b355a47ccc6235d2721364e0a0bc0272dd528b704648ba6a881916ef6aa5f"},
      {32, 0, 0, 1,
       "e9"},
      {32, 4, 9, 32,
       "6cb35e550d0dd07c6eae3187cc4845fe71b90c6619e67d7464f230f8afe83bfc"},
      {22, 80, 30, 100,
       "f6ddf43a3e98d77a6e77dba7641046cd78a32eab820b541ff4bdc5eed898eea8"
       "aea1ff71e593a77f6ddc2a92ce07f4a1d99b8d89b05d4cb77f9b82098b52dc48"
       "2f9d745d7d385618932e834a321a9a98787915ceb38655b4f3311d0f779d6fba"
       "8e4c608c"},
      {100, 64, 5, 255,
       "34afadca9b3c5d45c7dc8e098f3994fee2cee26d52b89b1e2617753f9b3c5733"
       "2df23eac0afd6887c17998f3152bc191afb58b1137d7cc2edc8f122e737619a4"
       "25f4b4c718a65985c144c3ce142f68a7b51dc6b9cc32410ed9fb4014b0293401"
       "187045e400001ea82ea7fa176edca7e5297f5fe968b042a8a6732525c2c3fe60"
       "f9c5a344248864fa610a35d67a5f9c6272a575a5136fe949fa0dfde39123d097"
       "4439e9937092f62e26a6f096598f273157d87d62e457ee791981cdc36f2cb38e"
       "6c1555f702d3b6f88ff36310f4dbaa514e8cceff70e7615b590a119089fd3ec5"
       "f2848f79280ceca0c6f6067af22beb22b3f395554f79a7180a69ee1ceee88e"},
  };
  for (const Golden& g : kGolden) {
    auto okm = HkdfSha256(Pattern(g.ikm_len, 11, 7), Pattern(g.salt_len, 5, 9),
                          Pattern(g.info_len, 17, 2), g.out_len);
    ASSERT_TRUE(okm.ok());
    EXPECT_EQ(HexEncode(*okm), g.okm_hex)
        << "ikm=" << g.ikm_len << " salt=" << g.salt_len
        << " out=" << g.out_len;
  }
}

}  // namespace
}  // namespace medvault::crypto
