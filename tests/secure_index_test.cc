// Secure index tests: blinded search, privacy of on-disk bytes, secure
// deletion of postings via crypto-shredding, persistence.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "common/coding.h"
#include "core/keystore.h"
#include "core/secure_index.h"
#include "storage/log_reader.h"
#include "storage/log_writer.h"
#include "storage/mem_env.h"

namespace medvault::core {
namespace {

class SecureIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    keystore_ = std::make_unique<KeyStore>(&env_, "keys.db",
                                           std::string(32, 'M'), "seed");
    ASSERT_TRUE(keystore_->Open().ok());
    OpenIndex();
  }

  void OpenIndex() {
    index_ = std::make_unique<SecureIndex>(&env_, "index.log",
                                           std::string(32, 'I'),
                                           keystore_.get());
    ASSERT_TRUE(index_->Open().ok());
  }

  void AddRecord(const std::string& id,
                 const std::vector<std::string>& terms) {
    ASSERT_TRUE(keystore_->CreateKey(id).ok());
    ASSERT_TRUE(index_->AddPostings(id, terms).ok());
  }

  // One on-disk posting: blinded term, record key-ref, sealed record id.
  struct RawPosting {
    std::string blind, key_ref, sealed;
  };

  std::vector<RawPosting> ReadRawPostings() {
    std::unique_ptr<storage::SequentialFile> src;
    EXPECT_TRUE(env_.NewSequentialFile("index.log", &src).ok());
    storage::log::Reader reader(std::move(src));
    std::vector<RawPosting> out;
    std::string record;
    while (reader.ReadRecord(&record)) {
      Slice in = record;
      RawPosting p;
      EXPECT_TRUE(GetLengthPrefixedString(&in, &p.blind) &&
                  GetLengthPrefixedString(&in, &p.key_ref) &&
                  GetLengthPrefixedString(&in, &p.sealed));
      out.push_back(std::move(p));
    }
    return out;
  }

  // Rewrites the posting log with validly framed (CRC-correct) postings,
  // so only the index's own authentication can catch the edit, then
  // reopens the index over it.
  void RewriteAndReopen(const std::vector<RawPosting>& postings) {
    index_.reset();
    std::unique_ptr<storage::WritableFile> dest;
    ASSERT_TRUE(env_.NewWritableFile("index.log", &dest).ok());
    storage::log::Writer writer(std::move(dest));
    for (const RawPosting& p : postings) {
      std::string entry;
      PutLengthPrefixed(&entry, p.blind);
      PutLengthPrefixed(&entry, p.key_ref);
      PutLengthPrefixed(&entry, p.sealed);
      ASSERT_TRUE(writer.AddRecord(entry).ok());
    }
    ASSERT_TRUE(writer.Sync().ok());
    ASSERT_TRUE(writer.Close().ok());
    OpenIndex();
  }

  storage::MemEnv env_;
  std::unique_ptr<KeyStore> keystore_;
  std::unique_ptr<SecureIndex> index_;
};

TEST_F(SecureIndexTest, SearchFindsIndexedRecords) {
  AddRecord("r-1", {"cancer", "chemo"});
  AddRecord("r-2", {"diabetes"});
  AddRecord("r-3", {"cancer"});

  auto hits = index_->Search("cancer");
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits->size(), 2u);
  EXPECT_NE(std::find(hits->begin(), hits->end(), "r-1"), hits->end());
  EXPECT_NE(std::find(hits->begin(), hits->end(), "r-3"), hits->end());

  hits = index_->Search("diabetes");
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits->size(), 1u);
  EXPECT_EQ((*hits)[0], "r-2");
}

TEST_F(SecureIndexTest, SearchIsCaseInsensitive) {
  AddRecord("r-1", {"Cancer"});
  auto hits = index_->Search("CANCER");
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits->size(), 1u);
}

TEST_F(SecureIndexTest, UnknownTermReturnsEmpty) {
  AddRecord("r-1", {"cancer"});
  auto hits = index_->Search("nonexistent");
  ASSERT_TRUE(hits.ok());
  EXPECT_TRUE(hits->empty());
}

TEST_F(SecureIndexTest, DuplicatePostingsDeduplicatedInResults) {
  AddRecord("r-1", {"cancer", "cancer"});
  ASSERT_TRUE(index_->AddPostings("r-1", {"cancer"}).ok());  // re-index
  auto hits = index_->Search("cancer");
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits->size(), 1u);
  EXPECT_EQ(index_->TotalPostingCount(), 3u);
}

TEST_F(SecureIndexTest, RawIndexBytesLeakNoKeywordsOrIds) {
  AddRecord("r-1", {"cancer", "hiv", "oncology"});
  std::string raw;
  ASSERT_TRUE(storage::ReadFileToString(&env_, "index.log", &raw).ok());
  EXPECT_EQ(raw.find("cancer"), std::string::npos);
  EXPECT_EQ(raw.find("hiv"), std::string::npos);
  EXPECT_EQ(raw.find("oncology"), std::string::npos);
  EXPECT_EQ(raw.find("r-1"), std::string::npos);
}

TEST_F(SecureIndexTest, CryptoShreddingKillsPostings) {
  AddRecord("r-1", {"cancer"});
  AddRecord("r-2", {"cancer"});
  EXPECT_EQ(index_->LivePostingCount(), 2u);

  ASSERT_TRUE(keystore_->DestroyKey("r-1").ok());
  auto hits = index_->Search("cancer");
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits->size(), 1u);
  EXPECT_EQ((*hits)[0], "r-2");
  EXPECT_EQ(index_->LivePostingCount(), 1u);
  EXPECT_EQ(index_->DeadPostingCount(), 1u);
}

TEST_F(SecureIndexTest, AddPostingsRequiresLiveKey) {
  ASSERT_TRUE(keystore_->CreateKey("r-1").ok());
  ASSERT_TRUE(keystore_->DestroyKey("r-1").ok());
  EXPECT_TRUE(
      index_->AddPostings("r-1", {"term"}).IsKeyDestroyed());
  EXPECT_TRUE(index_->AddPostings("ghost", {"term"}).IsNotFound());
}

TEST_F(SecureIndexTest, PersistsAcrossReopen) {
  AddRecord("r-1", {"cancer", "chemo"});
  index_.reset();
  OpenIndex();
  auto hits = index_->Search("chemo");
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits->size(), 1u);
  EXPECT_EQ((*hits)[0], "r-1");
}

TEST_F(SecureIndexTest, ShreddingBeforeReopenStillKillsPostings) {
  AddRecord("r-1", {"cancer"});
  ASSERT_TRUE(keystore_->DestroyKey("r-1").ok());
  index_.reset();
  OpenIndex();
  auto hits = index_->Search("cancer");
  ASSERT_TRUE(hits.ok());
  EXPECT_TRUE(hits->empty());
  EXPECT_EQ(index_->DeadPostingCount(), 1u);
}

TEST_F(SecureIndexTest, TermCountLeaksOnlyCardinality) {
  AddRecord("r-1", {"a1", "b2", "c3"});
  AddRecord("r-2", {"a1"});
  EXPECT_EQ(index_->TermCount(), 3u);
  EXPECT_EQ(index_->TotalPostingCount(), 4u);
}

TEST_F(SecureIndexTest, DifferentIndexMasterKeysAreDisjoint) {
  AddRecord("r-1", {"cancer"});
  // An index with a different blinding key cannot find the postings.
  SecureIndex other(&env_, "index.log", std::string(32, 'Z'),
                    keystore_.get());
  ASSERT_TRUE(other.Open().ok());
  auto hits = other.Search("cancer");
  ASSERT_TRUE(hits.ok());
  EXPECT_TRUE(hits->empty());
}

TEST_F(SecureIndexTest, FlippedSealedIdIsTamperNotDeletion) {
  AddRecord("r-1", {"cancer"});
  AddRecord("r-2", {"cancer", "flu"});
  std::vector<RawPosting> postings = ReadRawPostings();
  ASSERT_EQ(postings.size(), 3u);
  // Flip one ciphertext byte of r-2's "cancer" posting (after the nonce).
  postings[1].sealed[16] ^= 0x01;
  RewriteAndReopen(postings);
  EXPECT_TRUE(index_->Search("cancer").status().IsTamperDetected());
  EXPECT_TRUE(index_->SearchAll({"flu", "cancer"}).status().IsTamperDetected());
  EXPECT_TRUE(index_->VerifyIntegrity().IsTamperDetected());
  // Postings of other terms are untouched.
  auto flu = index_->Search("flu");
  ASSERT_TRUE(flu.ok());
  EXPECT_EQ(*flu, std::vector<RecordId>{"r-2"});
}

TEST_F(SecureIndexTest, KeyRefCopiedUnderAnotherBlindIsTamper) {
  AddRecord("r-1", {"cancer"});
  AddRecord("r-2", {"flu"});
  const std::vector<RawPosting> honest = ReadRawPostings();
  ASSERT_EQ(honest.size(), 2u);
  const RawPosting& cancer = honest[0];
  const RawPosting& flu = honest[1];

  // r-1's whole posting replayed under "flu": its id is sealed with the
  // "cancer" blind as associated data, so it cannot open under "flu".
  RewriteAndReopen({cancer, flu, RawPosting{flu.blind, cancer.key_ref,
                                            cancer.sealed}});
  EXPECT_TRUE(index_->Search("flu").status().IsTamperDetected());

  // r-1's key-ref grafted onto r-2's sealed id: resolves to r-1, whose
  // index key cannot open a blob sealed under r-2's.
  RewriteAndReopen({cancer, RawPosting{flu.blind, cancer.key_ref,
                                       flu.sealed}});
  EXPECT_TRUE(index_->Search("flu").status().IsTamperDetected());

  // The honest log still searches clean.
  RewriteAndReopen(honest);
  auto hits = index_->Search("flu");
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(*hits, std::vector<RecordId>{"r-2"});
}

TEST_F(SecureIndexTest, SearchAllKeepsPostingOrderOfRarestTerm) {
  AddRecord("r-3", {"common", "rare"});
  AddRecord("r-1", {"common", "common"});
  AddRecord("r-2", {"common", "rare"});
  AddRecord("r-4", {"common", "rare"});
  auto hits = index_->SearchAll({"common", "rare"});
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(*hits, (std::vector<RecordId>{"r-3", "r-2", "r-4"}));
}

}  // namespace
}  // namespace medvault::core
