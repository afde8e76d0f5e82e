// Property tests for shard placement: routing must be a pure, stable,
// well-balanced function of the id bytes, and the persisted shard count
// must be enforced at open — if any of these break, records silently
// become unreachable (the worst failure mode a medical archive can
// have, worse than a crash).

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "core/shard_router.h"
#include "core/sharded_vault.h"
#include "storage/mem_env.h"

namespace medvault::core {
namespace {

TEST(ShardRouterTest, FingerprintMatchesPublishedFnv1aVectors) {
  // Golden FNV-1a 64-bit values from the reference specification. If
  // someone "optimizes" the hash, placement of every existing vault
  // changes — these pin the exact function.
  EXPECT_EQ(ShardRouter::Fingerprint(""), 14695981039346656037ULL);
  EXPECT_EQ(ShardRouter::Fingerprint("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(ShardRouter::Fingerprint("foobar"), 0x85944171f73967e8ULL);
}

TEST(ShardRouterTest, PlacementIsDeterministicAcrossRouterInstances) {
  // Placement may depend only on (id bytes, shard count) — never on
  // process state, iteration order, or instance identity.
  ShardRouter a(8);
  ShardRouter b(8);
  for (int i = 0; i < 1000; ++i) {
    std::string id = "pat-" + std::to_string(i * 7919);
    EXPECT_EQ(a.ShardOf(id), b.ShardOf(id)) << id;
    EXPECT_LT(a.ShardOf(id), 8u);
  }
}

TEST(ShardRouterTest, PlacementIsUniformWithinTenPercent) {
  // 100k realistic patient ids over 4 shards: each shard must receive
  // its fair share ±10%, or hot shards defeat the point of sharding.
  constexpr uint32_t kShards = 4;
  constexpr int kIds = 100000;
  ShardRouter router(kShards);
  std::vector<int> counts(kShards, 0);
  for (int i = 0; i < kIds; ++i) {
    counts[router.ShardOf("patient-" + std::to_string(i))]++;
  }
  const double expected = static_cast<double>(kIds) / kShards;
  for (uint32_t k = 0; k < kShards; ++k) {
    EXPECT_GT(counts[k], expected * 0.9) << "shard " << k << " starved";
    EXPECT_LT(counts[k], expected * 1.1) << "shard " << k << " hot";
  }
}

TEST(ShardRouterTest, RecordIdRoundTripsThroughPrefix) {
  for (uint32_t k : {0u, 1u, 7u, 63u, 1023u}) {
    std::string id = ShardRouter::RecordIdPrefix(k) + "-42";
    uint32_t parsed = 0;
    ASSERT_TRUE(ShardRouter::ShardOfRecordId(id, &parsed)) << id;
    EXPECT_EQ(parsed, k);
  }
}

TEST(ShardRouterTest, RejectsIdsThatDoNotNameAShard) {
  uint32_t shard = 0;
  // Plain unsharded ids and near-miss spellings must not be misrouted.
  EXPECT_FALSE(ShardRouter::ShardOfRecordId("r-1", &shard));
  EXPECT_FALSE(ShardRouter::ShardOfRecordId("", &shard));
  EXPECT_FALSE(ShardRouter::ShardOfRecordId("s-r-1", &shard));
  EXPECT_FALSE(ShardRouter::ShardOfRecordId("sX-r-1", &shard));
  EXPECT_FALSE(ShardRouter::ShardOfRecordId("s3r-1", &shard));
  EXPECT_FALSE(ShardRouter::ShardOfRecordId("s3-x-1", &shard));
  EXPECT_FALSE(ShardRouter::ShardOfRecordId("shard-3", &shard));
}

TEST(ShardRouterTest, ManifestRoundTripsAndSurvivesReopen) {
  storage::MemEnv env;
  ASSERT_TRUE(env.CreateDirIfMissing("root").ok());
  ASSERT_TRUE(ShardRouter::WriteManifest(&env, "root", 6).ok());
  auto count = ShardRouter::ReadManifest(&env, "root");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 6u);
}

TEST(ShardRouterTest, MissingManifestIsNotFound) {
  storage::MemEnv env;
  auto count = ShardRouter::ReadManifest(&env, "nowhere");
  EXPECT_TRUE(count.status().IsNotFound());
}

ShardedVaultOptions BaseOptions(storage::Env* env, const Clock* clock,
                                uint32_t shards) {
  ShardedVaultOptions options;
  options.env = env;
  options.dir = "sharded";
  options.clock = clock;
  options.master_key = std::string(32, 'M');
  options.entropy = "router-test-entropy";
  options.num_shards = shards;
  options.signer_height = 4;
  return options;
}

TEST(ShardRouterTest, OpenRefusesShardCountMismatch) {
  storage::MemEnv env;
  ManualClock clock{1000000};
  {
    auto vault = ShardedVault::Open(BaseOptions(&env, &clock, 4));
    ASSERT_TRUE(vault.ok()) << vault.status().ToString();
  }
  // Same directory, different count: must refuse with a message that
  // names both counts — an operator typo here must not scramble routing.
  auto wrong = ShardedVault::Open(BaseOptions(&env, &clock, 8));
  ASSERT_FALSE(wrong.ok());
  EXPECT_TRUE(wrong.status().IsInvalidArgument());
  EXPECT_NE(wrong.status().message().find("4"), std::string::npos);
  EXPECT_NE(wrong.status().message().find("8"), std::string::npos);
  EXPECT_NE(wrong.status().message().find("mismatch"), std::string::npos);
  // The correct count still opens.
  auto right = ShardedVault::Open(BaseOptions(&env, &clock, 4));
  EXPECT_TRUE(right.ok()) << right.status().ToString();
}

TEST(ShardRouterTest, PlacementSurvivesVaultReopen) {
  storage::MemEnv env;
  ManualClock clock{1000000};
  std::map<std::string, RecordId> created;
  {
    auto opened = ShardedVault::Open(BaseOptions(&env, &clock, 4));
    ASSERT_TRUE(opened.ok());
    auto vault = std::move(*opened);
    ASSERT_TRUE(
        vault->RegisterPrincipal("boot", {"admin-r", Role::kAdmin, "Root"})
            .ok());
    ASSERT_TRUE(vault
                    ->RegisterPrincipal("admin-r",
                                        {"dr-a", Role::kPhysician, "Dr A"})
                    .ok());
    for (int p = 0; p < 12; ++p) {
      std::string pat = "pat-" + std::to_string(p);
      ASSERT_TRUE(vault
                      ->RegisterPrincipal("admin-r",
                                          {pat, Role::kPatient, pat})
                      .ok());
      ASSERT_TRUE(vault->AssignCare("admin-r", "dr-a", pat).ok());
      auto id = vault->CreateRecord("dr-a", pat, "text/plain",
                                    "note for " + pat, {}, "hipaa-6y");
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      created[pat] = *id;
    }
    ASSERT_TRUE(vault->SyncAll().ok());
  }
  // Reopen: every record must still be reachable through routing alone,
  // and each id's embedded shard must equal the patient's hash shard.
  auto reopened = ShardedVault::Open(BaseOptions(&env, &clock, 4));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto vault = std::move(*reopened);
  for (const auto& [pat, id] : created) {
    uint32_t embedded = 0;
    ASSERT_TRUE(ShardRouter::ShardOfRecordId(id, &embedded)) << id;
    EXPECT_EQ(embedded, vault->router().ShardOf(pat)) << pat;
    auto read = vault->ReadRecord("dr-a", id);
    EXPECT_TRUE(read.ok()) << id << ": " << read.status().ToString();
  }
}

// Every file under `dir` (any depth) with its bytes.
std::map<std::string, std::string> Listing(storage::Env* env,
                                           const std::string& dir) {
  std::map<std::string, std::string> out;
  std::vector<std::string> children;
  if (!env->GetChildren(dir, &children).ok()) return out;
  for (const std::string& child : children) {
    const std::string path = dir + "/" + child;
    std::string bytes;
    if (storage::ReadFileToString(env, path, &bytes).ok()) out[path] = bytes;
    out.merge(Listing(env, path));
  }
  return out;
}

VaultOptions PlainOptions(storage::Env* env, const Clock* clock,
                          const std::string& dir) {
  VaultOptions options;
  options.env = env;
  options.dir = dir;
  options.clock = clock;
  options.master_key = std::string(32, 'M');
  options.entropy = "router-test-entropy";
  options.signer_height = 4;
  return options;
}

TEST(ShardRouterTest, ShardedOpenRefusesPlainVaultDirectory) {
  storage::MemEnv env;
  ManualClock clock{1000000};
  {
    auto plain = Vault::Open(PlainOptions(&env, &clock, "sharded"));
    ASSERT_TRUE(plain.ok()) << plain.status().ToString();
    ASSERT_TRUE(
        (*plain)->RegisterPrincipal("boot", {"admin-r", Role::kAdmin, "R"})
            .ok());
  }
  const auto before = Listing(&env, "sharded");
  ASSERT_TRUE(before.count("sharded/state.log"));

  auto sharded = ShardedVault::Open(BaseOptions(&env, &clock, 2));
  ASSERT_FALSE(sharded.ok());
  EXPECT_TRUE(sharded.status().IsFailedPrecondition())
      << sharded.status().ToString();
  EXPECT_EQ(Listing(&env, "sharded"), before);
}

TEST(ShardRouterTest, PlainOpenRefusesShardedRoot) {
  storage::MemEnv env;
  ManualClock clock{1000000};
  {
    auto sharded = ShardedVault::Open(BaseOptions(&env, &clock, 2));
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
    ASSERT_TRUE(
        (*sharded)->RegisterPrincipal("boot", {"admin-r", Role::kAdmin, "R"})
            .ok());
  }
  const auto before = Listing(&env, "sharded");
  ASSERT_TRUE(before.count("sharded/shards.meta"));

  auto plain = Vault::Open(PlainOptions(&env, &clock, "sharded"));
  ASSERT_FALSE(plain.ok());
  EXPECT_TRUE(plain.status().IsFailedPrecondition())
      << plain.status().ToString();
  EXPECT_EQ(Listing(&env, "sharded"), before);
}

}  // namespace
}  // namespace medvault::core
