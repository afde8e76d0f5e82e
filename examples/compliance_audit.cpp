// Compliance audit: an external auditor retains signed checkpoints,
// later proves individual events, and catches a malicious insider who
// edits raw storage bytes and attempts to rewrite the audit history.

#include <cstdio>
#include <string>

#include "common/clock.h"
#include "common/hex.h"
#include "core/sharded_vault.h"
#include "sim/adversary.h"
#include "storage/mem_env.h"

using medvault::HexEncode;
using medvault::ManualClock;
using medvault::Slice;
using medvault::core::AuditLog;
using medvault::core::Role;
using medvault::core::ShardedVault;
using medvault::core::ShardedVaultOptions;

int main() {
  medvault::storage::MemEnv env;
  ManualClock clock(1000000);

  // One shard: a single audit chain, whose log the insider edits below.
  ShardedVaultOptions options;
  options.env = &env;
  options.dir = "vault";
  options.clock = &clock;
  options.master_key = std::string(32, 'C');
  options.entropy = "audit-demo-entropy";
  options.signer_height = 4;
  auto vault = std::move(ShardedVault::Open(options)).value();
  medvault::core::Vault* shard = vault->shard(0);

  (void)vault->RegisterPrincipal("boot", {"admin", Role::kAdmin, "IT"});
  (void)vault->RegisterPrincipal("admin",
                                 {"dr-a", Role::kPhysician, "Dr A"});
  (void)vault->RegisterPrincipal("admin",
                                 {"auditor", Role::kAuditor, "Auditor"});
  (void)vault->RegisterPrincipal("admin", {"pat-1", Role::kPatient, "P1"});
  (void)vault->AssignCare("admin", "dr-a", "pat-1");

  // Normal operation: records accumulate, the auditor periodically
  // retains signed tree heads (off-site — here: a local variable).
  for (int i = 0; i < 5; i++) {
    (void)vault->CreateRecord("dr-a", "pat-1", "text/plain",
                              "visit note " + std::to_string(i),
                              {"checkup"}, "hipaa-6y");
  }
  // The auditor keeps this (one signed checkpoint per shard).
  const auto retained = vault->CheckpointAudit()->front();
  printf("auditor retains checkpoint: size=%llu root=%s...\n",
         static_cast<unsigned long long>(retained.tree_size),
         HexEncode(Slice(retained.root.data(), 6)).c_str());

  for (int i = 5; i < 9; i++) {
    (void)vault->CreateRecord("dr-a", "pat-1", "text/plain",
                              "visit note " + std::to_string(i),
                              {"checkup"}, "hipaa-6y");
  }

  // 1. Routine verification: on-disk bytes, hash chain, signatures.
  printf("\n[1] full audit verification:   %s\n",
         vault->VerifyAudit().ToString().c_str());
  // 2. Append-only proof against the retained head.
  printf("[2] consistency vs checkpoint: %s\n",
         shard->VerifyAuditAgainstTrusted(retained).ToString().c_str());

  // 3. Prove one specific event to a third party (O(log n) proof).
  auto proof = shard->audit()->ProveEvent(3);
  printf("[3] inclusion proof for event #3: %zu hashes, verifies: %s\n",
         proof->path.size(),
         AuditLog::VerifyEventProof(*proof, shard->audit()->Root())
             .ToString()
             .c_str());

  // --- Attack 1: insider flips bytes in the audit log -------------------
  medvault::sim::InsiderAdversary insider(&env, 99);
  (void)insider.TamperRandomBytes({vault->ShardDirPath(0) + "/audit.log"}, 3);
  printf("\n[attack] insider flips 3 bytes in audit.log\n");
  const medvault::Status flipped = vault->VerifyAudit();
  printf("detection: %s\n", flipped.ToString().c_str());

  // --- Attack 2: insider rewrites the whole log shorter ------------------
  // (Simulate with a fresh vault whose log lacks the retained history.)
  medvault::storage::MemEnv env2;
  ShardedVaultOptions options2 = options;
  options2.env = &env2;
  auto rewritten = std::move(ShardedVault::Open(options2)).value();
  (void)rewritten->RegisterPrincipal("boot",
                                     {"admin", Role::kAdmin, "IT"});
  printf("\n[attack] insider replaces the log with a clean, shorter one\n");
  printf("internal verification of forged log: %s  <- looks clean!\n",
         rewritten->VerifyAudit().ToString().c_str());
  const medvault::Status forged =
      rewritten->shard(0)->VerifyAuditAgainstTrusted(retained);
  printf("against auditor's retained head:     %s\n",
         forged.ToString().c_str());
  printf("\n=> externally retained checkpoints are what make the trail "
         "trustworthy.\n");
  // Both attacks must have been caught.
  return !flipped.ok() && !forged.ok() ? 0 : 1;
}
