#include "core/shard_router.h"

#include <algorithm>
#include <charconv>
#include <thread>

#include "crypto/hkdf.h"

namespace medvault::core {

namespace {

constexpr char kManifestName[] = "/shards.meta";
constexpr char kManifestMagic[] = "medvault-shards v1\n";

}  // namespace

uint64_t ShardRouter::Fingerprint(const std::string& id) {
  // FNV-1a, 64-bit: offset basis / prime per the published spec.
  uint64_t h = 14695981039346656037ULL;
  for (unsigned char c : id) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string ShardRouter::ShardDir(const std::string& root, uint32_t shard) {
  return root + "/shard-" + std::to_string(shard);
}

std::string ShardRouter::RecordIdPrefix(uint32_t shard) {
  std::string prefix = "s";
  prefix += std::to_string(shard);
  prefix += "-r";
  return prefix;
}

bool ShardRouter::ShardOfRecordId(const RecordId& record_id,
                                  uint32_t* shard) {
  // "s<digits>-r-<n>": parse the digits, then demand the "-r-" spine so
  // arbitrary "s..." strings are not misrouted.
  if (record_id.size() < 5 || record_id[0] != 's') return false;
  const char* first = record_id.data() + 1;
  const char* last = record_id.data() + record_id.size();
  uint32_t k = 0;
  auto [ptr, ec] = std::from_chars(first, last, k, 10);
  if (ec != std::errc() || ptr == first) return false;
  if (last - ptr < 3 || ptr[0] != '-' || ptr[1] != 'r' || ptr[2] != '-') {
    return false;
  }
  *shard = k;
  return true;
}

std::string ShardRouter::ConsentIdPrefix(uint32_t shard) {
  std::string prefix = "s";
  prefix += std::to_string(shard);
  prefix += "-cg";
  return prefix;
}

bool ShardRouter::ShardOfConsentId(const std::string& grant_id,
                                   uint32_t* shard) {
  // "s<digits>-cg-<n>": same shape as ShardOfRecordId with a "-cg-"
  // spine, so unsharded "cg-<n>" ids never misroute.
  if (grant_id.size() < 6 || grant_id[0] != 's') return false;
  const char* first = grant_id.data() + 1;
  const char* last = grant_id.data() + grant_id.size();
  uint32_t k = 0;
  auto [ptr, ec] = std::from_chars(first, last, k, 10);
  if (ec != std::errc() || ptr == first) return false;
  if (last - ptr < 4 || ptr[0] != '-' || ptr[1] != 'c' || ptr[2] != 'g' ||
      ptr[3] != '-') {
    return false;
  }
  *shard = k;
  return true;
}

Result<std::string> ShardRouter::ShardMasterKey(const Slice& master_key,
                                                uint32_t shard) {
  return crypto::HkdfSha256(master_key, Slice(),
                            "medvault-shard-master-" + std::to_string(shard),
                            32);
}

Result<std::string> ShardRouter::ShardEntropy(const Slice& entropy,
                                              uint32_t shard) {
  return crypto::HkdfSha256(entropy, Slice(),
                            "medvault-shard-entropy-" + std::to_string(shard),
                            64);
}

unsigned ShardRouter::FanOutThreads(unsigned requested, uint32_t num_shards) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return std::min<unsigned>(num_shards, hw != 0 ? hw : 1);
}

Status ShardRouter::OpenLayout(storage::Env* env, const std::string& root,
                               uint32_t num_shards) {
  // The shard count is part of the vault's identity: it is persisted at
  // first open and any later open must present the same count, because
  // both the placement hash and the id prefixes bake it in.
  auto persisted = ReadManifest(env, root);
  if (persisted.ok()) {
    if (*persisted != num_shards) {
      return Status::InvalidArgument(
          "shard-count mismatch: vault at '" + root + "' was created with " +
          std::to_string(*persisted) + " shards but open requested " +
          std::to_string(num_shards) +
          "; resharding requires migration, not reopening");
    }
    return Status::OK();
  }
  if (!persisted.status().IsNotFound()) return persisted.status();
  if (env->FileExists(root + "/state.log")) {
    return Status::FailedPrecondition(
        "'" + root +
        "' holds a plain vault (state.log, no shards.meta); it cannot be "
        "opened as a sharded vault");
  }
  MEDVAULT_RETURN_IF_ERROR(env->CreateDirIfMissing(root));
  return WriteManifest(env, root, num_shards);
}

Status ShardRouter::RefusePlainVaultAt(storage::Env* env,
                                       const std::string& dir) {
  if (!env->FileExists(dir + kManifestName)) return Status::OK();
  return Status::FailedPrecondition(
      "'" + dir +
      "' is a sharded vault root (shards.meta); open it as a sharded vault");
}

Status ShardRouter::WriteManifest(storage::Env* env, const std::string& root,
                                  uint32_t num_shards) {
  std::string contents = kManifestMagic;
  contents += "count=" + std::to_string(num_shards) + "\n";
  // Write-new-then-rename: a power cut during the write leaves at worst
  // a torn .tmp that no reader ever opens — the manifest itself is
  // either absent (rewritten on next open) or complete. A torn manifest
  // must never wedge the vault.
  const std::string path = root + kManifestName;
  const std::string tmp = path + ".tmp";
  MEDVAULT_RETURN_IF_ERROR(
      storage::WriteStringToFile(env, contents, tmp, /*sync=*/true));
  return env->RenameFile(tmp, path);
}

Result<uint32_t> ShardRouter::ReadManifest(storage::Env* env,
                                           const std::string& root) {
  const std::string path = root + kManifestName;
  if (!env->FileExists(path)) {
    return Status::NotFound("no shard manifest at " + path);
  }
  std::string contents;
  MEDVAULT_RETURN_IF_ERROR(storage::ReadFileToString(env, path, &contents));
  const std::string magic = kManifestMagic;
  if (contents.compare(0, magic.size(), magic) != 0) {
    return Status::Corruption("bad shard manifest magic in " + path);
  }
  const std::string key = "count=";
  size_t pos = contents.find(key, magic.size());
  if (pos == std::string::npos) {
    return Status::Corruption("shard manifest missing count in " + path);
  }
  const char* first = contents.data() + pos + key.size();
  const char* last = contents.data() + contents.size();
  uint32_t count = 0;
  auto [ptr, ec] = std::from_chars(first, last, count, 10);
  if (ec != std::errc() || ptr == first || count == 0) {
    return Status::Corruption("malformed shard count in " + path);
  }
  return count;
}

}  // namespace medvault::core
