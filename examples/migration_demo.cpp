// Migration & retention demo: a record with 30-year retention survives
// a hardware refresh via verifiable migration, is backed up off-site,
// and is finally disposed of with a signed certificate.

#include <cstdio>
#include <string>

#include "common/clock.h"
#include "common/hex.h"
#include "core/backup.h"
#include "core/migration.h"
#include "core/sharded_vault.h"
#include "storage/mem_env.h"

using medvault::HexEncode;
using medvault::ManualClock;
using medvault::Slice;
using medvault::core::BackupManager;
using medvault::core::Migrator;
using medvault::core::RetentionManager;
using medvault::core::Role;
using medvault::core::ShardedVault;
using medvault::core::ShardedVaultOptions;

namespace {

// One shard per generation, so shard(0) holds the keys and the receipt.
std::unique_ptr<ShardedVault> OpenVault(medvault::storage::Env* env,
                                        const ManualClock* clock,
                                        const std::string& system,
                                        const std::string& entropy) {
  ShardedVaultOptions options;
  options.env = env;
  options.dir = "vault";
  options.clock = clock;
  options.master_key = std::string(32, 'G');
  options.entropy = entropy;
  options.signer_height = 4;
  options.system_id = system;
  auto vault = std::move(ShardedVault::Open(options)).value();
  (void)vault->RegisterPrincipal("boot", {"admin", Role::kAdmin, "IT"});
  (void)vault->RegisterPrincipal("admin",
                                 {"dr-a", Role::kPhysician, "Dr A"});
  (void)vault->RegisterPrincipal("admin",
                                 {"aud", Role::kAuditor, "Auditor"});
  (void)vault->RegisterPrincipal("admin",
                                 {"worker-9", Role::kPatient, "Worker 9"});
  (void)vault->AssignCare("admin", "dr-a", "worker-9");
  return vault;
}

}  // namespace

int main() {
  ManualClock clock(0);
  medvault::storage::MemEnv gen1_disk, gen2_disk, offsite;

  // Year 0: an OSHA exposure record — must be kept 30 years.
  auto gen1 = OpenVault(&gen1_disk, &clock, "ehr-gen1", "entropy-gen1");
  auto id = gen1->CreateRecord(
      "dr-a", "worker-9", "text/plain",
      "Occupational exposure: asbestos, 2.1 f/cc, duration 6h.",
      {"asbestos", "exposure"}, "osha-30y");
  printf("year 0: created %s under osha-30y\n", id->c_str());

  // Year 3: off-site backup.
  clock.AdvanceYears(3);
  auto manifest = BackupManager::Backup(gen1->shard(0), "admin", &offsite,
                                        "offsite");
  printf("year 3: off-site backup %s (%zu files), verify: %s\n",
         manifest->backup_id.c_str(), manifest->files.size(),
         BackupManager::Verify(&offsite, "offsite", *manifest)
             .ToString()
             .c_str());

  // Year 10: early disposal attempt is refused.
  clock.AdvanceYears(7);
  auto early = gen1->DisposeRecord("admin", *id);
  printf("year 10: disposal attempt -> %s\n",
         early.status().ToString().c_str());

  // Year 12: hardware refresh. Verifiable migration to gen2.
  clock.AdvanceYears(2);
  auto gen2 = OpenVault(&gen2_disk, &clock, "ehr-gen2", "entropy-gen2");
  auto receipts = Migrator::MigrateSharded(gen1.get(), gen2.get(), "admin");
  const auto& receipt = receipts->front();  // one receipt per shard
  printf("year 12: migrated %llu records / %llu versions, root=%s...\n",
         static_cast<unsigned long long>(receipt.record_count),
         static_cast<unsigned long long>(receipt.version_count),
         HexEncode(Slice(receipt.content_root.data(), 6)).c_str());
  printf("         dual-signed receipt verifies: %s\n",
         Migrator::VerifyReceipt(receipt, gen1->shard(0), gen2->shard(0))
             .ToString()
             .c_str());

  // The record reads identically on the new system; custody continues.
  auto record = gen2->ReadRecord("dr-a", *id);
  printf("         gen2 serves: \"%.40s...\"\n",
         record->plaintext.c_str());
  auto chain = gen2->GetCustodyChain("aud", *id);
  printf("         custody chain: %zu events across 2 systems\n",
         chain->size());

  // Year 31: retention expired. Disposal succeeds with a certificate.
  clock.AdvanceYears(19);
  auto cert = gen2->DisposeRecord("admin", *id);
  const medvault::core::Vault* signer = gen2->shard(0);
  printf("year 31: disposed. certificate by %s under %s, verifies: %s\n",
         cert->authorizer.c_str(), cert->policy.c_str(),
         RetentionManager::VerifyCertificate(
             *cert, signer->SignerPublicKey(), signer->SignerPublicSeed(),
             signer->SignerHeight())
             .ToString()
             .c_str());
  printf("         read after disposal -> %s\n",
         gen2->ReadRecord("dr-a", *id).status().ToString().c_str());
  const medvault::Status verified = gen2->VerifyEverything();
  printf("         remaining state verifies: %s\n",
         verified.ToString().c_str());
  return verified.ok() ? 0 : 1;
}
