// Quickstart: open a vault, store a record, read it back, verify the
// audit trail. The minimal end-to-end tour of the public API.

#include <cstdio>
#include <string>

#include "common/clock.h"
#include "core/sharded_vault.h"
#include "storage/mem_env.h"

using medvault::core::Role;
using medvault::core::ShardedVault;
using medvault::core::ShardedVaultOptions;

int main() {
  // A vault needs an Env (filesystem), a clock, a 32-byte master key,
  // and an entropy seed (in production: from an HSM / OS entropy); a
  // fresh directory (no shards.meta yet) becomes a single-shard store.
  medvault::storage::MemEnv env;
  medvault::SystemClock clock;

  ShardedVaultOptions options;
  options.env = &env;
  options.dir = "demo-vault";
  options.clock = &clock;
  options.master_key = std::string(32, 'K');  // demo only!
  options.entropy = "quickstart-entropy-seed";
  options.num_shards =
      medvault::core::ShardRouter::ReadManifest(&env, options.dir).ValueOr(1);
  options.signer_height = 4;

  auto vault_or = ShardedVault::Open(options);
  if (!vault_or.ok()) {
    fprintf(stderr, "open failed: %s\n",
            vault_or.status().ToString().c_str());
    return 1;
  }
  auto vault = std::move(vault_or).value();
  const std::string& signer = vault->shard(0)->SignerPublicKey();
  printf("vault opened; signer public key fingerprint: %02x%02x%02x...\n",
         static_cast<unsigned char>(signer[0]),
         static_cast<unsigned char>(signer[1]),
         static_cast<unsigned char>(signer[2]));

  // Register a minimal cast: one admin, one physician, one patient.
  (void)vault->RegisterPrincipal("boot", {"admin", Role::kAdmin, "Admin"});
  (void)vault->RegisterPrincipal("admin",
                                 {"dr-lee", Role::kPhysician, "Dr. Lee"});
  (void)vault->RegisterPrincipal("admin",
                                 {"pat-44", Role::kPatient, "Patient 44"});
  (void)vault->AssignCare("admin", "dr-lee", "pat-44");

  // Store a record (encrypted, versioned, indexed, audited).
  auto id = vault->CreateRecord(
      "dr-lee", "pat-44", "text/plain",
      "Patient presents with seasonal influenza; rest and fluids.",
      {"influenza"}, "hipaa-6y");
  if (!id.ok()) {
    fprintf(stderr, "create failed: %s\n", id.status().ToString().c_str());
    return 1;
  }
  printf("created record %s\n", id->c_str());

  // Read it back.
  auto record = vault->ReadRecord("dr-lee", *id);
  printf("read back: \"%s\"\n", record->plaintext.c_str());

  // Keyword search goes through the blinded index.
  auto hits = vault->SearchKeyword("dr-lee", "influenza");
  printf("search 'influenza' -> %zu hit(s)\n", hits->size());

  // The patient may read their own record; a stranger may not.
  (void)vault->RegisterPrincipal("admin",
                                 {"dr-who", Role::kPhysician, "Dr. Who"});
  auto denied = vault->ReadRecord("dr-who", *id);
  printf("unrelated physician read -> %s\n",
         denied.status().ToString().c_str());

  // Everything above — including the denial — is in the audit trail.
  (void)vault->RegisterPrincipal("admin",
                                 {"auditor", Role::kAuditor, "Auditor"});
  auto trail = vault->ReadAuditTrail("auditor", "");
  printf("audit trail has %zu events; verification: %s\n", trail->size(),
         vault->VerifyAudit().ToString().c_str());

  // Full integrity check: records + audit + custody chains.
  const medvault::Status verified = vault->VerifyEverything();
  printf("verify everything: %s\n", verified.ToString().c_str());
  return verified.ok() ? 0 : 1;
}
