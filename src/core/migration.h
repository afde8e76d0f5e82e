#ifndef MEDVAULT_CORE_MIGRATION_H_
#define MEDVAULT_CORE_MIGRATION_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "core/sharded_vault.h"
#include "core/vault.h"

namespace medvault::core {

/// Dual-signed proof that a migration was exact and complete (paper §3:
/// "the storage system must provide trustworthy and verifiable migration
/// mechanisms"; HIPAA §164.310(d)(2)(iv) exact-copy-before-movement).
///
/// `content_root` is a Merkle root over the SHA-256 of every migrated
/// version entry, computed *independently* by each side from its own
/// storage: equality proves the target holds byte-identical copies.
struct MigrationReceipt {
  std::string source_system;
  std::string target_system;
  uint64_t record_count = 0;
  uint64_t version_count = 0;
  std::string content_root;
  Timestamp completed_at = 0;

  std::string source_signature;  ///< source vault's XMSS signature
  std::string target_signature;  ///< target vault's XMSS signature

  std::string SignedPayload() const;
  std::string Encode() const;
  static Result<MigrationReceipt> Decode(const Slice& data);
};

/// Executes verifiable migrations between two vaults.
class Migrator {
 public:
  /// Moves every record (versions, keys, custody chains, metadata) from
  /// `source` to `target`, verifies the copy cryptographically, and
  /// returns the dual-signed receipt. `actor` must hold kMigrate on both
  /// vaults. The target must not already contain any of the records.
  ///
  /// Disposed records migrate too: their ciphertext and tombstoned keys
  /// carry over, so the (unreadable) history and custody chain survive.
  static Result<MigrationReceipt> Migrate(Vault* source, Vault* target,
                                          const PrincipalId& actor);

  /// Verifies a receipt against a vault (either side) and both
  /// signatures.
  static Status VerifyReceipt(const MigrationReceipt& receipt, Vault* source,
                              Vault* target);

  /// Sharded migration: moves every shard of `source` into the matching
  /// shard of `target` (the counts must be equal — placement hashes bake
  /// the count in, so resharding-while-migrating would scatter ids away
  /// from where the router expects them). Each shard pair produces its
  /// own dual-signed receipt, returned in shard order. A quarantined
  /// shard on either side is refused (FailedPrecondition) before any
  /// shard is touched. On a mid-way failure the receipts of
  /// already-migrated shards are lost but their shards remain verifiably
  /// migrated (re-running fails AlreadyExists on those, by Migrate's own
  /// guard).
  static Result<std::vector<MigrationReceipt>> MigrateSharded(
      ShardedVault* source, ShardedVault* target, const PrincipalId& actor);
};

}  // namespace medvault::core

#endif  // MEDVAULT_CORE_MIGRATION_H_
