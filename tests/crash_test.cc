// Crash matrix: a full record lifecycle (bootstrap → ingest → batch
// ingest → correction → checkpoint → crypto-shred) is killed by a
// simulated power cut at EVERY sanctioned I/O boundary, the unsynced
// bytes are dropped (or partially kept), and the vault is reopened.
//
// After every crash point the reopened vault must satisfy the recovery
// contract:
//   - Open succeeds (never a wedged store),
//   - the audit chain verifies end to end,
//   - every record acknowledged by a successful SyncAll is readable at
//     (at least) its acknowledged version — or crypto-shredded, but
//     only if its disposal had been started,
//   - NO partial record is visible: everything the catalog lists is
//     either fully readable or a disposed tombstone,
//   - blinded search still finds every acknowledged record,
//   - the vault accepts fresh ingest after recovery.
//
// The workload's first open generates the signer tree and appends its
// MAC-sealed leaf table to the state log, so the matrix also kills that
// append at every boundary: the reopened vault must end up with exactly
// one table and the same signer public key.
//
// The boundary count is discovered by one fault-free dry run; the
// matrix then replays the deterministic workload once per boundary per
// crash mode. See FaultInjectionEnv::PlanCrash and
// MemEnv::CrashAndRecover for the power-fail model.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/audit.h"
#include "core/replication.h"
#include "core/shard_router.h"
#include "core/sharded_vault.h"
#include "core/vault.h"
#include "crypto/xmss.h"
#include "storage/fault_env.h"
#include "storage/log_reader.h"
#include "storage/log_writer.h"
#include "storage/mem_env.h"

namespace medvault {
namespace {

using core::Role;
using core::ShardedVault;
using core::ShardedVaultOptions;
using core::ShardRouter;
using core::Vault;
using core::VaultOptions;

/// What the workload got durably acknowledged before the power cut.
/// Only SyncAll-acked state carries guarantees across a crash.
struct WorkloadTrace {
  /// record id -> minimum latest version the reopened vault must serve.
  std::map<std::string, uint32_t> acked;
  /// Acked records indexed under the "shared" keyword (search probe).
  std::vector<std::string> acked_shared;
  std::string disposal_id;         ///< the record the workload shreds
  bool disposal_started = false;   ///< DisposeRecord was entered
  bool disposal_acked = false;     ///< ...and a later SyncAll succeeded
  /// The record reachable by "dr" only through a break-glass grant
  /// (its patient has no treating clinician), and whether the grant
  /// was durably acknowledged — an acked grant must survive reopen via
  /// state-log replay at its ORIGINAL expiry.
  std::string breakglass_record;
  bool breakglass_acked = false;
  /// One record of patient "p" (for the revoked-consent probe below).
  std::string p_record;
  /// Patient-driven sharing: "spec" (a physician with NO care relation
  /// and no break-glass grant) reads q's sealed record only through q's
  /// consent grant. Grants and revocations ride the state log exactly
  /// like break-glass: an acked grant must survive reopen at its
  /// original expiry, an acked revocation must stay revoked, and an
  /// acked crypto-shred must leave no live record-scoped grant behind.
  std::string consent_grant_id;    ///< q -> spec on the sealed record
  bool consent_grant_acked = false;
  std::string revoked_grant_id;    ///< p -> spec, patient-wide, revoked
  bool revoke_acked = false;
  std::string doomed_grant_id;     ///< p -> spec on the doomed record
  bool doomed_grant_acked = false;
  /// Checkpoints whose publication returned OK. AuditLog::Checkpoint
  /// syncs the frame before returning, so an OK return IS the ack: the
  /// reopened log must still carry each one verbatim.
  std::vector<core::SignedCheckpoint> acked_checkpoints;
};

VaultOptions Options(storage::Env* env, const Clock* clock) {
  VaultOptions options;
  options.env = env;
  options.dir = "vault";
  options.clock = clock;
  options.master_key = std::string(32, 'M');
  options.entropy = "crash-entropy";
  options.signer_height = 4;
  return options;
}

constexpr uint8_t kSignerLeavesKind = 9;  // kStateSignerLeaves

/// Every record of `dir`'s state log, kind byte first.
std::vector<std::string> StateRecords(storage::Env* env,
                                      const std::string& dir) {
  std::unique_ptr<storage::SequentialFile> file;
  EXPECT_TRUE(env->NewSequentialFile(dir + "/state.log", &file).ok());
  std::vector<std::string> records;
  if (file == nullptr) return records;
  storage::log::Reader reader(std::move(file));
  std::string record;
  while (reader.ReadRecord(&record)) records.push_back(record);
  return records;
}

bool IsSignerTable(const std::string& record) {
  return !record.empty() &&
         static_cast<uint8_t>(record[0]) == kSignerLeavesKind;
}

/// Signer leaf tables in `dir`'s state log. The tree is generated once
/// per vault, so a recovered vault holds exactly one.
size_t SignerTables(storage::Env* env, const std::string& dir) {
  const std::vector<std::string> records = StateRecords(env, dir);
  return std::count_if(records.begin(), records.end(), IsSignerTable);
}

/// Rewrites `dir`'s state log without its leaf tables (durably): the
/// directory a build without leaf tables leaves behind.
void StripSignerTables(storage::Env* env, const std::string& dir) {
  std::vector<std::string> records = StateRecords(env, dir);
  records.erase(
      std::remove_if(records.begin(), records.end(), IsSignerTable),
      records.end());
  std::unique_ptr<storage::WritableFile> file;
  ASSERT_TRUE(env->NewWritableFile(dir + "/state.log", &file).ok());
  storage::log::Writer writer(std::move(file));
  for (const std::string& r : records) ASSERT_TRUE(writer.AddRecord(r).ok());
  ASSERT_TRUE(writer.Sync().ok());
}

/// The signer public key of a fault-free vault with Options().
const std::string& ReferencePublicKey() {
  static const std::string key = [] {
    storage::MemEnv env;
    ManualClock clock(1000000);
    auto vault = Vault::Open(Options(&env, &clock));
    EXPECT_TRUE(vault.ok()) << vault.status().ToString();
    return vault.ok() ? (*vault)->SignerPublicKey() : std::string();
  }();
  return key;
}

/// Runs the lifecycle workload until it completes or the planned crash
/// makes an operation fail. Every step bails on the first error — after
/// a power cut the process is gone, so nothing after the failing call
/// may execute. Records what a client would consider durable in
/// `trace`.
void RunWorkload(storage::Env* env, ManualClock* clock,
                 WorkloadTrace* trace) {
  auto opened = Vault::Open(Options(env, clock));
  if (!opened.ok()) return;
  Vault* vault = opened->get();

  if (!vault->RegisterPrincipal("boot", {"admin", Role::kAdmin, "A"}).ok())
    return;
  if (!vault->RegisterPrincipal("admin", {"dr", Role::kPhysician, "D"}).ok())
    return;
  if (!vault->RegisterPrincipal("admin", {"p", Role::kPatient, "P"}).ok())
    return;
  if (!vault->RegisterPrincipal("admin", {"ck", Role::kClerk, "C"}).ok())
    return;
  // "q" deliberately has no treating clinician: only break-glass opens
  // their records to dr.
  if (!vault->RegisterPrincipal("admin", {"q", Role::kPatient, "Q"}).ok())
    return;
  // "spec" has no care relation with anyone: only patient consent
  // grants open records to them.
  if (!vault->RegisterPrincipal("admin", {"spec", Role::kPhysician, "S"})
           .ok())
    return;
  if (!vault->AssignCare("admin", "dr", "p").ok()) return;
  if (!vault->SyncAll().ok()) return;

  // Ingest: one single create plus a batched pair.
  auto r1 = vault->CreateRecord("dr", "p", "text/plain",
                                "alpha clinical note", {"alpha", "shared"},
                                "hipaa-6y");
  if (!r1.ok()) return;
  trace->p_record = *r1;
  auto batch = vault->CreateRecordsBatch(
      "dr", {{"p", "text/plain", "beta result", {"beta", "shared"},
              "hipaa-6y"},
             {"p", "text/plain", "gamma scan", {"gamma", "shared"},
              "hipaa-6y"}});
  if (!batch.ok()) return;
  if (vault->SyncAll().ok()) {
    trace->acked[*r1] = 1;
    for (const auto& id : *batch) trace->acked[id] = 1;
    trace->acked_shared = {*r1, (*batch)[0], (*batch)[1]};
  }

  // Correction: r1 gains version 2.
  if (!vault
           ->CorrectRecord("dr", *r1, "alpha clinical note, corrected",
                           "transcription error", {"alpha", "shared"})
           .ok())
    return;
  if (vault->SyncAll().ok()) trace->acked[*r1] = 2;

  // Break-glass: the clerk registers a record for the clinician-less
  // patient, then dr breaks glass. Record and grant are acked by the
  // same SyncAll; from then on the reopened vault must honor the grant
  // (it rides the state log — a grant living only in memory would be
  // silently revoked by the power cut while the audit trail claims
  // emergency access was active).
  auto sealed = vault->CreateRecord("ck", "q", "text/plain",
                                    "sealed note for q", {"sealed"},
                                    "hipaa-6y");
  if (!sealed.ok()) return;
  trace->breakglass_record = *sealed;
  // 10 years: outlives the disposal step's 2-year clock jump below.
  if (!vault->BreakGlass("dr", "q", "crash-matrix emergency",
                         10 * kMicrosPerYear)
           .ok())
    return;
  if (vault->SyncAll().ok()) {
    trace->acked[*sealed] = 1;
    trace->breakglass_acked = true;
  }

  // Consent: q delegates their sealed record to spec (10 years, so the
  // disposal step's 2-year jump cannot age it out), and p issues then
  // immediately revokes a patient-wide grant. Both ride the state log.
  auto shared_grant = vault->GrantConsent("q", "spec", *sealed,
                                          "second opinion",
                                          10 * kMicrosPerYear);
  if (!shared_grant.ok()) return;
  trace->consent_grant_id = shared_grant->grant_id;
  if (vault->SyncAll().ok()) trace->consent_grant_acked = true;

  auto broad_grant = vault->GrantConsent("p", "spec", "", "care transfer",
                                         10 * kMicrosPerYear);
  if (!broad_grant.ok()) return;
  trace->revoked_grant_id = broad_grant->grant_id;
  if (!vault->RevokeConsent("p", broad_grant->grant_id).ok()) return;
  if (vault->SyncAll().ok()) trace->revoke_acked = true;

  auto mid_checkpoint = vault->CheckpointAudit();
  if (!mid_checkpoint.ok()) return;
  trace->acked_checkpoints.push_back(*mid_checkpoint);

  // Disposal: a short-retention record, aged out, then crypto-shredded.
  auto doomed = vault->CreateRecord("dr", "p", "text/plain",
                                    "delta short-lived", {"delta"},
                                    "short-1y");
  if (!doomed.ok()) return;
  if (vault->SyncAll().ok()) trace->acked[*doomed] = 1;
  trace->disposal_id = *doomed;

  // A record-scoped grant on the doomed record: the crypto-shred below
  // must revoke it synchronously and durably.
  auto doomed_grant = vault->GrantConsent("p", "spec", *doomed,
                                          "short-lived share",
                                          10 * kMicrosPerYear);
  if (!doomed_grant.ok()) return;
  trace->doomed_grant_id = doomed_grant->grant_id;
  if (vault->SyncAll().ok()) trace->doomed_grant_acked = true;

  clock->AdvanceYears(2);

  trace->disposal_started = true;
  if (!vault->DisposeRecord("admin", *doomed).ok()) return;
  if (vault->SyncAll().ok()) trace->disposal_acked = true;

  // A second checkpoint after the shred: the matrix now also covers
  // crash points with one durable checkpoint behind them and another
  // in flight — including the window between the XMSS leaf reservation
  // (synced to the state log first) and the checkpoint frame's own
  // sync, where the power cut must WASTE the reserved leaf, never hand
  // it back for reuse.
  auto final_checkpoint = vault->CheckpointAudit();
  if (!final_checkpoint.ok()) return;
  trace->acked_checkpoints.push_back(*final_checkpoint);
}

/// Re-registers whatever part of the cast the crash erased. Individual
/// registrations may fail because the principal already exists — that
/// is fine; the probe that follows is what asserts.
void EnsureCast(Vault* vault) {
  (void)vault->RegisterPrincipal("boot", {"admin", Role::kAdmin, "A"});
  (void)vault->RegisterPrincipal("admin", {"dr", Role::kPhysician, "D"});
  (void)vault->RegisterPrincipal("admin", {"p", Role::kPatient, "P"});
  (void)vault->RegisterPrincipal("admin", {"ck", Role::kClerk, "C"});
  (void)vault->RegisterPrincipal("admin", {"q", Role::kPatient, "Q"});
  (void)vault->RegisterPrincipal("admin", {"spec", Role::kPhysician, "S"});
  (void)vault->AssignCare("admin", "dr", "p");
}

/// Asserts the full recovery contract on a post-crash env.
void CheckRecovered(storage::Env* env, ManualClock* clock,
                    const WorkloadTrace& trace, const std::string& label) {
  SCOPED_TRACE(label);
  auto reopened = Vault::Open(Options(env, clock));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  Vault* vault = reopened->get();

  EXPECT_TRUE(vault->VerifyAudit().ok());

  // The signer survives a crash anywhere, including during the leaf
  // table's append: same identity, and exactly one table on disk.
  EXPECT_EQ(vault->SignerPublicKey(), ReferencePublicKey());
  EXPECT_EQ(SignerTables(env, "vault"), 1u);

  // Published-checkpoint contract: every checkpoint whose publication
  // was acknowledged survives the crash verbatim, the reopened log
  // still proves append-only growth from it, and an inclusion proof
  // for an old event still verifies against its (now stale) root.
  for (const core::SignedCheckpoint& cp : trace.acked_checkpoints) {
    auto persisted = vault->audit()->CheckpointAt(cp.tree_size);
    ASSERT_TRUE(persisted.ok())
        << "acked checkpoint at size " << cp.tree_size
        << " lost: " << persisted.status().ToString();
    EXPECT_EQ(persisted->root, cp.root);
    EXPECT_EQ(persisted->signature, cp.signature);
    EXPECT_TRUE(vault->VerifyAuditAgainstTrusted(cp).ok());
    if (cp.tree_size > 0) {
      auto proof = vault->audit()->ProveEventAt(0, cp.tree_size);
      ASSERT_TRUE(proof.ok()) << proof.status().ToString();
      EXPECT_TRUE(core::AuditLog::VerifyEventProof(*proof, cp.root).ok());
    }
  }

  // XMSS leaf conservation: reserve-then-sign makes the spent-leaf
  // count durable BEFORE any signature exists, so no leaf visible in a
  // persisted checkpoint may sign twice or sit at/past the restored
  // signer position — wherever the power cut landed. Reuse would
  // forfeit the one-time scheme outright.
  std::set<uint32_t> used_leaves;
  for (const core::SignedCheckpoint& cp :
       vault->audit()->SnapshotCheckpoints()) {
    auto sig = crypto::XmssSignature::Decode(cp.signature);
    ASSERT_TRUE(sig.ok()) << sig.status().ToString();
    EXPECT_TRUE(used_leaves.insert(sig->leaf_index).second)
        << "XMSS leaf " << sig->leaf_index
        << " signs two persisted checkpoints";
    EXPECT_LT(sig->leaf_index, vault->signer()->SignaturesUsed())
        << "restored signer would re-sign with leaf " << sig->leaf_index;
  }

  // Every SyncAll-acked record must still be served at (at least) its
  // acked version; the shredded one must read as destroyed once the
  // disposal was acked, and may read either way while it was in flight.
  for (const auto& [id, version] : trace.acked) {
    // q's record is read as q themself: its survival must not depend
    // on the break-glass grant's (asserted separately below).
    const char* reader = id == trace.breakglass_record ? "q" : "dr";
    auto read = vault->ReadRecord(reader, id);
    if (id == trace.disposal_id && trace.disposal_started) {
      if (trace.disposal_acked) {
        EXPECT_TRUE(read.status().IsKeyDestroyed())
            << id << ": " << read.status().ToString();
      } else {
        EXPECT_TRUE(read.ok() || read.status().IsKeyDestroyed())
            << id << ": " << read.status().ToString();
      }
      continue;
    }
    ASSERT_TRUE(read.ok()) << id << ": " << read.status().ToString();
    EXPECT_GE(read->header.version, version) << id;
  }

  // No partial record: whatever the catalog lists is fully usable —
  // meta present, history walkable, latest version readable (or a
  // disposed tombstone).
  for (const auto& id : vault->ListRecordIds()) {
    auto meta = vault->GetRecordMeta(id);
    ASSERT_TRUE(meta.ok()) << id;
    // Read as the record's own patient: always authorized, even for
    // the break-glass patient whose grant may not have survived.
    const core::PrincipalId& reader = meta->patient_id;
    auto read = vault->ReadRecord(reader, id);
    if (meta->disposed) {
      EXPECT_TRUE(read.status().IsKeyDestroyed())
          << id << ": " << read.status().ToString();
      continue;
    }
    ASSERT_TRUE(read.ok()) << id << ": " << read.status().ToString();
    auto history = vault->RecordHistory(reader, id);
    ASSERT_TRUE(history.ok()) << id << ": " << history.status().ToString();
    EXPECT_EQ(history->size(), meta->latest_version) << id;
  }

  // An ACKED break-glass grant survives the crash: dr reads q's record
  // with no care relation, purely through the replayed grant, and the
  // grant table still counts it (at the original 10-year expiry — the
  // disposal step's 2-year jump must not have aged it out).
  if (trace.breakglass_acked) {
    auto emergency = vault->ReadRecord("dr", trace.breakglass_record);
    EXPECT_TRUE(emergency.ok())
        << "acked break-glass grant lost in crash: "
        << emergency.status().ToString();
    EXPECT_GE(vault->access()->ActiveGrantCount(clock->Now()), 1u);
  }

  // An ACKED consent grant survives the crash the same way: spec reads
  // q's sealed record with no care relation and no break-glass, purely
  // through the replayed grant — at its original 10-year expiry.
  if (trace.consent_grant_acked) {
    auto shared_read = vault->ReadRecord("spec", trace.breakglass_record);
    EXPECT_TRUE(shared_read.ok())
        << "acked consent grant " << trace.consent_grant_id
        << " lost in crash: " << shared_read.status().ToString();
    EXPECT_GE(vault->ActiveConsentCount(), 1u);
  }

  // An ACKED revocation stays revoked: spec has no remaining basis on
  // p's records, so the read must be refused (not a replayed grant
  // resurrecting the revoked patient-wide delegation).
  if (trace.revoke_acked) {
    auto dead = vault->ReadRecord("spec", trace.p_record);
    EXPECT_TRUE(dead.status().IsPermissionDenied())
        << "revoked consent grant " << trace.revoked_grant_id
        << " came back after crash: " << dead.status().ToString();
  }

  // An ACKED crypto-shred leaves no live record-scoped grant on the
  // shredded record — the grant dies with the key, durably.
  if (trace.doomed_grant_acked && trace.disposal_acked) {
    auto live = vault->ListConsents("p", "p");
    ASSERT_TRUE(live.ok()) << live.status().ToString();
    for (const auto& g : *live) {
      EXPECT_NE(g.record_id, trace.disposal_id)
          << "crypto-shred left record-scoped grant " << g.grant_id
          << " alive after crash";
    }
  }

  // Blinded search still finds every acked live record.
  if (!trace.acked_shared.empty()) {
    auto hits = vault->SearchKeyword("dr", "shared");
    ASSERT_TRUE(hits.ok()) << hits.status().ToString();
    for (const auto& id : trace.acked_shared) {
      EXPECT_NE(std::find(hits->begin(), hits->end(), id), hits->end())
          << "acked record " << id << " missing from search";
    }
  }

  // The recovered vault accepts fresh ingest end to end.
  EnsureCast(vault);
  auto fresh = vault->CreateRecord("dr", "p", "text/plain",
                                   "post-recovery note", {"fresh"},
                                   "hipaa-6y");
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  ASSERT_TRUE(vault->SyncAll().ok());
  EXPECT_TRUE(vault->ReadRecord("dr", *fresh).ok());

  // And a post-recovery checkpoint signs with a FRESH leaf — the
  // direct demonstration that a leaf reserved-but-wasted by the crash
  // is skipped, not recycled.
  auto fresh_checkpoint = vault->CheckpointAudit();
  ASSERT_TRUE(fresh_checkpoint.ok())
      << fresh_checkpoint.status().ToString();
  auto fresh_sig = crypto::XmssSignature::Decode(fresh_checkpoint->signature);
  ASSERT_TRUE(fresh_sig.ok());
  EXPECT_EQ(used_leaves.count(fresh_sig->leaf_index), 0u)
      << "post-recovery checkpoint reused XMSS leaf "
      << fresh_sig->leaf_index;
}

/// One fault-free pass to discover the boundary count; the workload is
/// deterministic, so every matrix run replays the same op sequence.
uint64_t CountBoundaries() {
  storage::MemEnv env;
  env.SetCrashTrackingEnabled(true);
  storage::FaultInjectionEnv fault(&env);
  ManualClock clock(1000000);
  WorkloadTrace trace;
  RunWorkload(&fault, &clock, &trace);
  // Sanity: the dry run must complete and ack everything, or the
  // matrix below would silently test a truncated workload.
  EXPECT_EQ(trace.acked.size(), 5u);
  EXPECT_TRUE(trace.disposal_acked);
  EXPECT_TRUE(trace.breakglass_acked);
  EXPECT_TRUE(trace.consent_grant_acked);
  EXPECT_TRUE(trace.revoke_acked);
  EXPECT_TRUE(trace.doomed_grant_acked);
  EXPECT_EQ(trace.acked_checkpoints.size(), 2u);
  return fault.ops();
}

void RunMatrix(storage::CrashMode mode) {
  const uint64_t boundaries = CountBoundaries();
  ASSERT_GT(boundaries, 0u);
  for (uint64_t k = 0; k < boundaries; k++) {
    storage::MemEnv env;
    env.SetCrashTrackingEnabled(true);
    storage::FaultInjectionEnv fault(&env);
    ManualClock clock(1000000);
    fault.PlanCrash(k);

    WorkloadTrace trace;
    RunWorkload(&fault, &clock, &trace);
    ASSERT_TRUE(fault.crashed()) << "boundary " << k << " never reached";

    env.CrashAndRecover(mode, /*seed=*/static_cast<uint32_t>(k));
    CheckRecovered(&env, &clock,
                   trace, "crash at boundary " + std::to_string(k));
  }
}

TEST(CrashMatrixTest, EveryBoundaryDropUnsynced) {
  RunMatrix(storage::CrashMode::kDropUnsynced);
}

TEST(CrashMatrixTest, EveryBoundaryKeepPartial) {
  RunMatrix(storage::CrashMode::kKeepPartial);
}

// A crash can also strike while recovery itself is writing (the
// reconciliation rewrite, the kRecovery audit entry, the final sync).
// Recovery must be idempotent: crash it at every boundary of a
// recovering open, recover again, and the contract must still hold.
// With `legacy`, the crashed directory first loses its signer leaf
// table, as if written by a build without one: the recovering open then
// also rebuilds the tree and appends the table, and is killed there too.
void RunRecoveryRecrash(bool legacy) {
  SCOPED_TRACE(legacy ? "legacy directory" : "current directory");
  // First crash: mid-lifecycle, somewhere that leaves real work for
  // recovery (two thirds through the workload).
  const uint64_t boundaries = CountBoundaries();
  const uint64_t first_crash = boundaries * 2 / 3;

  auto crash_mid_workload = [&](storage::MemEnv* env,
                                storage::FaultInjectionEnv* fault,
                                ManualClock* clock, WorkloadTrace* trace) {
    fault->PlanCrash(first_crash);
    RunWorkload(fault, clock, trace);
    ASSERT_TRUE(fault->crashed());
    env->CrashAndRecover(storage::CrashMode::kDropUnsynced, 0);
    if (legacy) {
      ASSERT_EQ(SignerTables(env, "vault"), 1u);
      StripSignerTables(env, "vault");
    }
    fault->Reset();
  };

  // Discover how many ops a recovering open performs after that crash.
  uint64_t recovery_ops = 0;
  {
    storage::MemEnv env;
    env.SetCrashTrackingEnabled(true);
    storage::FaultInjectionEnv fault(&env);
    ManualClock clock(1000000);
    WorkloadTrace trace;
    crash_mid_workload(&env, &fault, &clock, &trace);
    auto reopened = Vault::Open(Options(&fault, &clock));
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    recovery_ops = fault.ops();
    // The legacy open's boundaries include the table's append and sync.
    EXPECT_EQ(SignerTables(&env, "vault"), 1u);
  }

  for (uint64_t k = 0; k < recovery_ops; k++) {
    storage::MemEnv env;
    env.SetCrashTrackingEnabled(true);
    storage::FaultInjectionEnv fault(&env);
    ManualClock clock(1000000);
    WorkloadTrace trace;
    crash_mid_workload(&env, &fault, &clock, &trace);

    // Second power cut: during the recovering open.
    fault.PlanCrash(k);
    (void)Vault::Open(Options(&fault, &clock));
    ASSERT_TRUE(fault.crashed())
        << "recovery boundary " << k << " never reached";
    env.CrashAndRecover(storage::CrashMode::kDropUnsynced,
                        static_cast<uint32_t>(k) + 7919);
    CheckRecovered(&env, &clock, trace,
                   "re-crash at recovery boundary " + std::to_string(k));
  }
}

TEST(CrashMatrixTest, CrashDuringRecoveryIsIdempotent) {
  RunRecoveryRecrash(/*legacy=*/false);
  RunRecoveryRecrash(/*legacy=*/true);
}

// ---------------------------------------------------------------------------
// Cross-shard crash matrix
// ---------------------------------------------------------------------------
//
// A sharded vault has one commit point PER SHARD: SyncAll syncs shard 0,
// then shard 1, so a power cut can land exactly between the two — shard
// 0 has acknowledged its half of a cross-shard batch while shard 1's
// half is still volatile. The matrix below kills the workload at every
// I/O boundary (which includes every point between the shards' sync
// sequences) and demands per-shard recovery:
//   - each shard recovers independently to ITS acknowledged state,
//   - no shard lists a record id belonging to another shard, and no
//     listed record is partial (no cross-shard orphans),
//   - a shard that needed repair logs exactly one kRecovery audit
//     event for that open — and a subsequent clean reopen logs none.
//
// The workload runs with ingest_threads=1 (sequential fan-out in shard
// order): the crash matrix replays the exact same boundary sequence on
// every run, which parallel pool scheduling cannot guarantee.

ShardedVaultOptions ShardedOptions(storage::Env* env, const Clock* clock) {
  ShardedVaultOptions options;
  options.env = env;
  options.dir = "sharded";
  options.clock = clock;
  options.master_key = std::string(32, 'M');
  options.entropy = "sharded-crash-entropy";
  options.num_shards = 2;
  options.signer_height = 4;
  options.ingest_threads = 1;  // deterministic boundary sequence
  return options;
}

/// Shard `k`'s signer public key in a fault-free ShardedOptions() vault.
const std::string& ShardedReferencePublicKey(uint32_t k) {
  static const std::vector<std::string> keys = [] {
    storage::MemEnv env;
    ManualClock clock(1000000);
    auto vault = ShardedVault::Open(ShardedOptions(&env, &clock));
    EXPECT_TRUE(vault.ok()) << vault.status().ToString();
    std::vector<std::string> out(2);
    for (uint32_t s = 0; vault.ok() && s < 2; ++s) {
      out[s] = (*vault)->shard(s)->SignerPublicKey();
    }
    return out;
  }();
  return keys[k];
}

/// Two patient ids that hash to shard 0 and shard 1 respectively.
std::vector<std::string> PatientsPerShard() {
  ShardRouter router(2);
  std::vector<std::string> patients(2);
  std::vector<bool> found(2, false);
  for (int i = 0; !(found[0] && found[1]); ++i) {
    std::string candidate = "pat-" + std::to_string(i);
    uint32_t shard = router.ShardOf(candidate);
    if (!found[shard]) {
      patients[shard] = candidate;
      found[shard] = true;
    }
  }
  return patients;
}

void RunShardedWorkload(storage::Env* env, ManualClock* clock,
                        WorkloadTrace* trace) {
  auto opened = ShardedVault::Open(ShardedOptions(env, clock));
  if (!opened.ok()) return;
  ShardedVault* vault = opened->get();
  const std::vector<std::string> patients = PatientsPerShard();

  if (!vault->RegisterPrincipal("boot", {"admin", Role::kAdmin, "A"}).ok())
    return;
  if (!vault->RegisterPrincipal("admin", {"dr", Role::kPhysician, "D"}).ok())
    return;
  for (const std::string& patient : patients) {
    if (!vault
             ->RegisterPrincipal("admin", {patient, Role::kPatient, patient})
             .ok())
      return;
    if (!vault->AssignCare("admin", "dr", patient).ok()) return;
  }
  if (!vault->SyncAll().ok()) return;

  // One plain create per shard.
  auto r0 = vault->CreateRecord("dr", patients[0], "text/plain",
                                "alpha on shard zero", {"alpha", "shared"},
                                "hipaa-6y");
  if (!r0.ok()) return;
  auto r1 = vault->CreateRecord("dr", patients[1], "text/plain",
                                "beta on shard one", {"beta", "shared"},
                                "hipaa-6y");
  if (!r1.ok()) return;
  if (vault->SyncAll().ok()) {
    trace->acked[*r0] = 1;
    trace->acked[*r1] = 1;
  }

  // A batch spanning both shards: the canonical cross-shard-orphan
  // hazard. Acknowledged only by the SyncAll that covers both shards.
  auto batch = vault->CreateRecordsBatch(
      "dr", {{patients[0], "text/plain", "gamma spanning", {"shared"},
              "hipaa-6y"},
             {patients[1], "text/plain", "delta spanning", {"shared"},
              "hipaa-6y"}});
  if (!batch.ok()) return;
  if (vault->SyncAll().ok()) {
    for (const auto& id : *batch) trace->acked[id] = 1;
  }

  // A correction on shard 0 (exercises the shared cache purge too).
  if (!vault
           ->CorrectRecord("dr", *r0, "alpha, corrected", "typo",
                           {"alpha", "shared"})
           .ok())
    return;
  if (vault->SyncAll().ok()) trace->acked[*r0] = 2;
}

/// Counts kRecovery events in one shard's full audit trail.
int RecoveryEvents(Vault* shard) {
  auto trail = shard->ReadAuditTrail("admin", "");
  if (!trail.ok()) {
    ADD_FAILURE() << "audit trail unreadable: "
                  << trail.status().ToString();
    return -1;
  }
  int events = 0;
  for (const core::AuditEvent& event : *trail) {
    if (event.action == core::AuditAction::kRecovery) events++;
  }
  return events;
}

void CheckShardedRecovered(storage::Env* env, ManualClock* clock,
                           const WorkloadTrace& trace,
                           const std::string& label) {
  SCOPED_TRACE(label);
  std::vector<int> recovery_events(2, 0);
  {
    auto reopened = ShardedVault::Open(ShardedOptions(env, clock));
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    ShardedVault* vault = reopened->get();

    EXPECT_TRUE(vault->VerifyAudit().ok());

    // Each shard's signer survives a crash anywhere, including between
    // the shards' leaf-table appends in the first open.
    for (uint32_t k = 0; k < 2; ++k) {
      EXPECT_EQ(vault->shard(k)->SignerPublicKey(),
                ShardedReferencePublicKey(k));
      EXPECT_EQ(SignerTables(env, vault->ShardDirPath(k)), 1u)
          << "shard " << k;
    }

    // Acked records (including both halves of an acked cross-shard
    // batch) survive at no less than their acknowledged version.
    for (const auto& [id, version] : trace.acked) {
      auto read = vault->ReadRecord("dr", id);
      ASSERT_TRUE(read.ok()) << id << ": " << read.status().ToString();
      EXPECT_GE(read->header.version, version) << id;
    }

    // No cross-shard orphans: every listed id lives on the shard its
    // prefix names, and is fully usable there — regardless of whether
    // the sibling half of its batch survived on the other shard.
    for (uint32_t k = 0; k < 2; ++k) {
      for (const auto& id : vault->shard(k)->ListRecordIds()) {
        uint32_t embedded = 2;
        ASSERT_TRUE(ShardRouter::ShardOfRecordId(id, &embedded)) << id;
        EXPECT_EQ(embedded, k) << "record " << id << " on wrong shard";
        auto meta = vault->GetRecordMeta(id);
        ASSERT_TRUE(meta.ok()) << id;
        auto read = vault->ReadRecord("dr", id);
        if (meta->disposed) {
          // Recovery may tombstone an UNACKED record whose meta survived
          // a partial-media crash but whose version bytes did not
          // ("versions-lost") — same contract as the single-vault
          // matrix. Acked records can never take this branch: the acked
          // loop above already demanded a successful read.
          EXPECT_EQ(trace.acked.count(id), 0u)
              << "acked record " << id << " was tombstoned";
          EXPECT_TRUE(read.status().IsKeyDestroyed())
              << id << ": " << read.status().ToString();
          continue;
        }
        ASSERT_TRUE(read.ok()) << id << ": " << read.status().ToString();
        auto history = vault->RecordHistory("dr", id);
        ASSERT_TRUE(history.ok()) << id;
        EXPECT_EQ(history->size(), meta->latest_version) << id;
      }
    }

    // Re-register whatever part of the cast the crash erased (needed
    // both for the audit-trail reads below and the fresh ingest). Actor
    // "admin" works on every shard regardless of divergence: a shard
    // that lost the admin is back in bootstrap (anyone may register),
    // and a shard that kept it sees a legitimate admin actor.
    const std::vector<std::string> patients = PatientsPerShard();
    (void)vault->RegisterPrincipal("admin", {"admin", Role::kAdmin, "A"});
    (void)vault->RegisterPrincipal("admin", {"dr", Role::kPhysician, "D"});
    for (const std::string& patient : patients) {
      (void)vault->RegisterPrincipal("admin",
                                     {patient, Role::kPatient, patient});
      (void)vault->AssignCare("admin", "dr", patient);
    }

    // A repaired shard logs exactly one kRecovery event for this open;
    // an untouched shard logs none.
    for (uint32_t k = 0; k < 2; ++k) {
      recovery_events[k] = RecoveryEvents(vault->shard(k));
      ASSERT_GE(recovery_events[k], 0);
      EXPECT_LE(recovery_events[k], 1)
          << "shard " << k << " logged multiple recovery events";
    }

    // The recovered vault accepts fresh cross-shard ingest.
    auto fresh = vault->CreateRecordsBatch(
        "dr", {{patients[0], "text/plain", "post-crash zero", {}, "hipaa-6y"},
               {patients[1], "text/plain", "post-crash one", {}, "hipaa-6y"}});
    ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
    ASSERT_TRUE(vault->SyncAll().ok());
    for (const auto& id : *fresh) {
      EXPECT_TRUE(vault->ReadRecord("dr", id).ok()) << id;
    }
  }

  // Recovery is once-per-repair, not once-per-open: a clean reopen must
  // not append further kRecovery events on any shard.
  auto again = ShardedVault::Open(ShardedOptions(env, clock));
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  for (uint32_t k = 0; k < 2; ++k) {
    EXPECT_EQ(RecoveryEvents((*again)->shard(k)), recovery_events[k])
        << "clean reopen logged a recovery event on shard " << k;
  }
}

uint64_t CountShardedBoundaries() {
  storage::MemEnv env;
  env.SetCrashTrackingEnabled(true);
  storage::FaultInjectionEnv fault(&env);
  ManualClock clock(1000000);
  WorkloadTrace trace;
  RunShardedWorkload(&fault, &clock, &trace);
  EXPECT_EQ(trace.acked.size(), 4u);
  return fault.ops();
}

void RunShardedMatrix(storage::CrashMode mode) {
  const uint64_t boundaries = CountShardedBoundaries();
  ASSERT_GT(boundaries, 0u);
  for (uint64_t k = 0; k < boundaries; k++) {
    storage::MemEnv env;
    env.SetCrashTrackingEnabled(true);
    storage::FaultInjectionEnv fault(&env);
    ManualClock clock(1000000);
    fault.PlanCrash(k);

    WorkloadTrace trace;
    RunShardedWorkload(&fault, &clock, &trace);
    ASSERT_TRUE(fault.crashed()) << "boundary " << k << " never reached";

    env.CrashAndRecover(mode, /*seed=*/static_cast<uint32_t>(k));
    CheckShardedRecovered(&env, &clock, trace,
                          "sharded crash at boundary " + std::to_string(k));
  }
}

TEST(ShardedCrashMatrixTest, EveryBoundaryDropUnsynced) {
  RunShardedMatrix(storage::CrashMode::kDropUnsynced);
}

TEST(ShardedCrashMatrixTest, EveryBoundaryKeepPartial) {
  RunShardedMatrix(storage::CrashMode::kKeepPartial);
}

// ---------------------------------------------------------------------------
// Group-commit crash matrix
// ---------------------------------------------------------------------------
//
// The batched-durability path (CreateRecordsBatchDurable → GroupCommitter
// → one cross-shard sync wave) changes WHERE the commit points are: a
// whole batch is acknowledged by a single coalesced window instead of an
// explicit SyncAll per step. The matrix kills the workload at every I/O
// boundary — which now includes every boundary of a coalesced sync wave —
// and demands the same contract: everything acknowledged by a returned
// durable batch survives, shards recover independently, and a repaired
// shard logs at most one kRecovery event for the recovering open.
//
// ingest_threads=1 keeps the fan-out inline-sequential and window 0
// keeps the leader from sleeping, so every run replays the identical
// boundary sequence (FaultInjectionEnv's batch API stays inline-
// sequential precisely so each coalesced completion is one numbered
// boundary).

void RunDurableShardedWorkload(storage::Env* env, ManualClock* clock,
                               WorkloadTrace* trace) {
  auto opened = ShardedVault::Open(ShardedOptions(env, clock));
  if (!opened.ok()) return;
  ShardedVault* vault = opened->get();
  const std::vector<std::string> patients = PatientsPerShard();

  if (!vault->RegisterPrincipal("boot", {"admin", Role::kAdmin, "A"}).ok())
    return;
  if (!vault->RegisterPrincipal("admin", {"dr", Role::kPhysician, "D"}).ok())
    return;
  for (const std::string& patient : patients) {
    if (!vault
             ->RegisterPrincipal("admin", {patient, Role::kPatient, patient})
             .ok())
      return;
    if (!vault->AssignCare("admin", "dr", patient).ok()) return;
  }
  if (!vault->SyncAll().ok()) return;

  // A durable batch spanning both shards: OK return IS the ack — one
  // group-committed wave covered both shards' commit points.
  auto spanning = vault->CreateRecordsBatchDurable(
      "dr", {{patients[0], "text/plain", "alpha spanning", {"shared"},
              "hipaa-6y"},
             {patients[1], "text/plain", "beta spanning", {"shared"},
              "hipaa-6y"}});
  if (spanning.ok()) {
    for (const auto& id : *spanning) trace->acked[id] = 1;
  } else {
    return;
  }

  // A single-shard durable batch: the wave still runs across the vault,
  // so the crash can land between this shard's sync and the other's.
  auto single = vault->CreateRecordsBatchDurable(
      "dr", {{patients[1], "text/plain", "gamma single-shard", {"shared"},
              "hipaa-6y"}});
  if (single.ok()) {
    trace->acked[(*single)[0]] = 1;
  } else {
    return;
  }

  // A second spanning batch after the first acks, so the matrix covers
  // wave boundaries with durable state already on both shards.
  auto again = vault->CreateRecordsBatchDurable(
      "dr", {{patients[0], "text/plain", "delta spanning", {"shared"},
              "hipaa-6y"},
             {patients[1], "text/plain", "epsilon spanning", {"shared"},
              "hipaa-6y"}});
  if (again.ok()) {
    for (const auto& id : *again) trace->acked[id] = 1;
  }
}

uint64_t CountDurableShardedBoundaries() {
  storage::MemEnv env;
  env.SetCrashTrackingEnabled(true);
  storage::FaultInjectionEnv fault(&env);
  ManualClock clock(1000000);
  WorkloadTrace trace;
  RunDurableShardedWorkload(&fault, &clock, &trace);
  EXPECT_EQ(trace.acked.size(), 5u);
  return fault.ops();
}

void RunDurableShardedMatrix(storage::CrashMode mode) {
  const uint64_t boundaries = CountDurableShardedBoundaries();
  ASSERT_GT(boundaries, 0u);
  for (uint64_t k = 0; k < boundaries; k++) {
    storage::MemEnv env;
    env.SetCrashTrackingEnabled(true);
    storage::FaultInjectionEnv fault(&env);
    ManualClock clock(1000000);
    fault.PlanCrash(k);

    WorkloadTrace trace;
    RunDurableShardedWorkload(&fault, &clock, &trace);
    ASSERT_TRUE(fault.crashed()) << "boundary " << k << " never reached";

    env.CrashAndRecover(mode, /*seed=*/static_cast<uint32_t>(k));
    CheckShardedRecovered(
        &env, &clock, trace,
        "group-commit crash at boundary " + std::to_string(k));
  }
}

TEST(GroupCommitCrashMatrixTest, EveryWindowBoundaryDropUnsynced) {
  RunDurableShardedMatrix(storage::CrashMode::kDropUnsynced);
}

TEST(GroupCommitCrashMatrixTest, EveryWindowBoundaryKeepPartial) {
  RunDurableShardedMatrix(storage::CrashMode::kKeepPartial);
}

// ---------------------------------------------------------------------------
// Replicated group-commit crash matrix
// ---------------------------------------------------------------------------
//
// The durable workload again, now with a warm standby pulling a
// Merkle-verified batch after every acknowledged window. The primary is
// killed at every I/O boundary — including mid-window, between one
// shard's sync and the other's, and mid-cut — and the invariant is:
// the REPLICA is never ahead of the RECOVERED primary. Concretely,
// every audit head the standby applied must still be a prefix of the
// recovered primary's audit log (RootAt equality), because batches are
// cut only over synced bytes. The replica process survives the
// primary's power cut, so the surviving applier's state is what is
// checked.

void RunReplicatedDurableWorkload(storage::Env* env, ManualClock* clock,
                                  core::ShardedReplicaApplier* applier,
                                  WorkloadTrace* trace) {
  auto opened = ShardedVault::Open(ShardedOptions(env, clock));
  if (!opened.ok()) return;
  ShardedVault* vault = opened->get();
  core::ShardedReplicationSource source(vault);
  const std::vector<std::string> patients = PatientsPerShard();

  // Shipping failures are survivable (the crash lands mid-cut); the
  // applier just keeps its previous state.
  auto ship = [&] {
    auto cursors = applier->Cursors();
    if (!cursors.ok()) return;
    auto batches = source.CutAll(*cursors);
    if (!batches.ok()) return;
    (void)applier->ApplyAll(*batches);
  };

  if (!vault->RegisterPrincipal("boot", {"admin", Role::kAdmin, "A"}).ok())
    return;
  if (!vault->RegisterPrincipal("admin", {"dr", Role::kPhysician, "D"}).ok())
    return;
  for (const std::string& patient : patients) {
    if (!vault
             ->RegisterPrincipal("admin", {patient, Role::kPatient, patient})
             .ok())
      return;
    if (!vault->AssignCare("admin", "dr", patient).ok()) return;
  }
  if (!vault->SyncAll().ok()) return;
  ship();

  auto spanning = vault->CreateRecordsBatchDurable(
      "dr", {{patients[0], "text/plain", "alpha spanning", {"shared"},
              "hipaa-6y"},
             {patients[1], "text/plain", "beta spanning", {"shared"},
              "hipaa-6y"}});
  if (!spanning.ok()) return;
  for (const auto& id : *spanning) trace->acked[id] = 1;
  ship();

  auto single = vault->CreateRecordsBatchDurable(
      "dr", {{patients[1], "text/plain", "gamma single-shard", {"shared"},
              "hipaa-6y"}});
  if (!single.ok()) return;
  trace->acked[(*single)[0]] = 1;
  ship();
}

void RunReplicatedDurableMatrix(storage::CrashMode mode) {
  // Dry run for the boundary count, with shipping in the op stream.
  uint64_t boundaries = 0;
  {
    storage::MemEnv primary_mem;
    primary_mem.SetCrashTrackingEnabled(true);
    storage::FaultInjectionEnv fault(&primary_mem);
    storage::MemEnv replica_env;
    ManualClock clock(1000000);
    core::ShardedReplicaApplier::Options applier_options;
    applier_options.env = &replica_env;
    applier_options.dir = "standby";
    applier_options.entropy = "sharded-crash-entropy";
    applier_options.num_shards = 2;
    applier_options.apply_threads = 1;  // deterministic boundary sequence
    auto applier = core::ShardedReplicaApplier::Open(applier_options);
    ASSERT_TRUE(applier.ok());
    WorkloadTrace trace;
    RunReplicatedDurableWorkload(&fault, &clock, applier->get(), &trace);
    EXPECT_EQ(trace.acked.size(), 3u);
    EXPECT_EQ((*applier)->lag_bytes(), 0u);
    boundaries = fault.ops();
  }
  ASSERT_GT(boundaries, 0u);

  for (uint64_t k = 0; k < boundaries; k++) {
    SCOPED_TRACE("replicated window crash at boundary " + std::to_string(k));
    storage::MemEnv primary_mem;
    primary_mem.SetCrashTrackingEnabled(true);
    storage::FaultInjectionEnv fault(&primary_mem);
    storage::MemEnv replica_env;
    ManualClock clock(1000000);
    core::ShardedReplicaApplier::Options applier_options;
    applier_options.env = &replica_env;
    applier_options.dir = "standby";
    applier_options.entropy = "sharded-crash-entropy";
    applier_options.num_shards = 2;
    applier_options.apply_threads = 1;
    auto applier = core::ShardedReplicaApplier::Open(applier_options);
    ASSERT_TRUE(applier.ok());
    fault.PlanCrash(k);

    WorkloadTrace trace;
    RunReplicatedDurableWorkload(&fault, &clock, applier->get(), &trace);
    ASSERT_TRUE(fault.crashed()) << "boundary " << k << " never reached";
    ASSERT_EQ((*applier)->quarantined_shards(), 0u)
        << "a primary crash must read as lag on the standby, never tamper";

    primary_mem.CrashAndRecover(mode, /*seed=*/static_cast<uint32_t>(k));
    auto reopened = ShardedVault::Open(ShardedOptions(&primary_mem, &clock));
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();

    // Never ahead: every audit head the standby applied is a prefix of
    // the recovered primary's audit log. RootAt fails outright if the
    // standby's head were past the recovered end.
    for (uint32_t s = 0; s < 2; s++) {
      core::ReplicaApplier* shard = (*applier)->shard(s);
      ASSERT_NE(shard, nullptr);
      if (shard->last_audit_size() == 0) continue;
      auto root =
          (*reopened)->shard(s)->audit()->RootAt(shard->last_audit_size());
      ASSERT_TRUE(root.ok())
          << "standby shard " << s << " audit head at "
          << shard->last_audit_size()
          << " is past the recovered primary: " << root.status().ToString();
      EXPECT_EQ(*root, shard->last_audit_root())
          << "standby shard " << s
          << " applied an audit head the recovered primary never had";
    }

    // And the recovered primary ships the standby back to equality.
    core::ShardedReplicationSource source(reopened->get());
    for (int round = 0; round < 3; round++) {
      auto cursors = (*applier)->Cursors();
      ASSERT_TRUE(cursors.ok());
      auto batches = source.CutAll(*cursors);
      ASSERT_TRUE(batches.ok()) << batches.status().ToString();
      ASSERT_TRUE((*applier)->ApplyAll(*batches).ok());
      if ((*applier)->lag_bytes() == 0) break;
    }
    EXPECT_EQ((*applier)->lag_bytes(), 0u);
  }
}

TEST(ReplicatedGroupCommitCrashTest, StandbyNeverAheadDropUnsynced) {
  RunReplicatedDurableMatrix(storage::CrashMode::kDropUnsynced);
}

TEST(ReplicatedGroupCommitCrashTest, StandbyNeverAheadKeepPartial) {
  RunReplicatedDurableMatrix(storage::CrashMode::kKeepPartial);
}

}  // namespace
}  // namespace medvault
