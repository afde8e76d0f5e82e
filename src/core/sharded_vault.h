#ifndef MEDVAULT_CORE_SHARDED_VAULT_H_
#define MEDVAULT_CORE_SHARDED_VAULT_H_

#include <iterator>
#include <memory>
#include <shared_mutex>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "core/record_cache.h"
#include "core/group_commit.h"
#include "core/shard_router.h"
#include "core/vault.h"
#include "storage/env.h"

namespace medvault {
class WorkerPool;
}

namespace medvault::core {

/// How ShardedVault::Open treats shards with damaged media.
enum class OpenMode {
  /// Any shard that fails to open fails the whole open (historical
  /// behavior; the right default for integrity-first deployments).
  kStrict = 0,
  /// A shard that fails to open — or whose directory fails a structural
  /// scrub — is *quarantined* instead: the vault opens with that shard
  /// offline, healthy shards keep serving reads and writes, operations
  /// routed to a quarantined shard fail with kFailedPrecondition, and
  /// the shard can be repaired (BackupManager::Repair) and brought back
  /// with RejoinShard() without closing the vault. Availability for the
  /// many must survive media death of the few (paper §3: reliability).
  kDegraded = 1,
};

/// Configuration for opening a ShardedVault.
struct ShardedVaultOptions {
  storage::Env* env = nullptr;  ///< required
  std::string dir;              ///< required; sharded-vault root directory
  const Clock* clock = nullptr; ///< required
  /// 32 bytes. Each shard's key-wrapping master key is derived from it
  /// via HKDF("shard-master-<k>"), so shards form independent key
  /// domains: compromising one shard's wrapped-key log does not expose
  /// a sibling's.
  std::string master_key;
  /// Root entropy; per-shard DRBG/signer/index secrets derive from it
  /// via HKDF("shard-entropy-<k>"), so every shard has its own signer
  /// identity and blinding keys.
  std::string entropy;
  /// Fixed at first open and persisted in `<dir>/shards.meta`; a later
  /// open with a different count is refused (see ShardRouter).
  uint32_t num_shards = 1;
  int signer_height = 8;  ///< per shard
  std::string system_id = "medvault-sharded";
  bool require_dual_disposal = false;
  /// Byte budget of the shared authenticated read cache (0 disables).
  /// One RecordCache serves all shards: record ids are globally unique
  /// ("s<k>-r-<n>"), and a single LRU budget adapts to skewed traffic.
  size_t cache_bytes = 4u << 20;
  /// Worker threads for cross-shard ingest fan-out. 0 picks
  /// min(num_shards, hardware_concurrency); 1 forces inline sequential
  /// execution in shard order — fully deterministic, which the crash
  /// matrix requires to replay identical I/O boundary sequences.
  unsigned ingest_threads = 0;
  /// Metrics registry shared by the sharded wrapper ("sharded.*" op
  /// histograms) and every shard ("vault.*"). Not owned; null uses the
  /// process-wide obs::MetricsRegistry::Default().
  obs::MetricsRegistry* metrics = nullptr;
  /// Group-commit window (see GroupCommitter): how long a SyncAll
  /// leader lingers to gather concurrent committers before one sync
  /// wave fans out over all shards. This committer is the only
  /// coalescing point; shard vaults sync directly. 0 adds no latency;
  /// coalescing is then opportunistic only.
  uint64_t commit_window_micros = 0;
  /// Media-fault posture of Open — see OpenMode.
  OpenMode open_mode = OpenMode::kStrict;
};

namespace internal {
/// Calls `fn(s, k)` when `fn` takes the shard index, `fn(s)` otherwise
/// (ShardedVault's routing helpers).
template <typename Fn>
decltype(auto) CallOnShard(Fn& fn, Vault* s, uint32_t k) {
  if constexpr (std::is_invocable_v<Fn&, Vault*, uint32_t>) {
    return fn(s, k);
  } else {
    return fn(s);
  }
}
}  // namespace internal

/// The public engine (every entry point opens one; num_shards = 1 is a
/// single store): records are partitioned across N fully independent
/// Vault shards, each with its own segment store, catalog, keystore,
/// index, audit and provenance logs under `<dir>/shard-<k>/`, so writes
/// to different shards proceed in parallel — per-shard lock and log
/// domains instead of the single global ones that classically
/// bottleneck secure stores.
///
/// Placement: a record lives on the shard of its *patient*
/// (`ShardRouter::ShardOf(patient_id)`), so one patient's records —
/// the unit of clinical access — are colocated. Record ids embed the
/// shard ("s<k>-r-<n>"), making every record-id-keyed operation O(1)
/// routable without a directory service.
///
/// Cross-shard semantics:
///   * Principals are replicated to every shard (tiny and read-hot);
///     care, break-glass and consent live with the patient's records on
///     the patient's shard only. Searches, audit verification, and
///     work-list queries fan out and merge per-shard results.
///   * Each shard keeps its own audit chain, signer, and commit point;
///     crash recovery runs per shard, independently (a crash between
///     two shards' sync points recovers each shard to its own
///     acknowledged state — there are no cross-shard references to
///     orphan by construction).
///   * SyncAll runs one sync wave in which every healthy shard syncs
///     concurrently on the worker pool; a batch spanning shards is
///     acknowledged only by a wave that covered every shard.
///
/// Thread safety: router and pool are immutable after Open; the shard
/// slot table is guarded by a shared mutex because a degraded open can
/// leave slots empty (quarantined) and RejoinShard fills them later. A
/// slot only ever transitions null -> Vault* — an obtained Vault* stays
/// valid for the ShardedVault's lifetime — so readers take the shared
/// lock just long enough to load the pointer. All other mutable state
/// lives behind each shard's own lock, the shared cache's mutex, and
/// the pool's queue mutex, so concurrent callers enjoy true cross-shard
/// parallelism.
class ShardedVault {
 public:
  static Result<std::unique_ptr<ShardedVault>> Open(
      const ShardedVaultOptions& options);
  ~ShardedVault();

  ShardedVault(const ShardedVault&) = delete;
  ShardedVault& operator=(const ShardedVault&) = delete;

  // Each routed or fanned-out method is one call to OnShardOf (route by
  // record, patient, consent or disposal-request id) or OnEveryShard
  // (visit shards in index order and merge), so its body names its route.

  // ---- Administration ------------------------------------------------

  /// Replicated to every healthy shard, convergently: after a crash some
  /// shards may hold the principal and others not, so a shard's
  /// AlreadyExists counts as success and the fan-out keeps going.
  Status RegisterPrincipal(const PrincipalId& actor,
                           const Principal& principal) {
    return OnEveryShard([&](Vault* s) {
      Status status = s->RegisterPrincipal(actor, principal);
      return status.IsAlreadyExists() ? Status::OK() : status;
    });
  }
  /// Principals are on every shard; the first healthy one answers.
  Result<Principal> GetPrincipal(const PrincipalId& id) const {
    return OnShardOf(FirstHealthy{},
                     [&](Vault* s) { return s->access()->GetPrincipal(id); });
  }
  /// The kReadAudit gate, checked and audited by the first healthy
  /// shard, for audit acts that have no shard of their own.
  Status CheckAuditAccess(const PrincipalId& actor) const {
    return OnShardOf(FirstHealthy{},
                     [&](Vault* s) { return s->CheckAuditAccess(actor); });
  }
  /// Care is checked only against a record's own patient, whose shard
  /// holds the record, so the relation is written there alone.
  Status AssignCare(const PrincipalId& actor, const PrincipalId& clinician,
                    const PrincipalId& patient) {
    return OnShardOf(ByPatient{patient}, [&](Vault* s) {
      return s->AssignCare(actor, clinician, patient);
    });
  }
  Result<std::string> BreakGlass(const PrincipalId& clinician,
                                 const PrincipalId& patient,
                                 const std::string& justification,
                                 Timestamp duration) {
    return OnShardOf(ByPatient{patient}, [&](Vault* s) {
      return s->BreakGlass(clinician, patient, justification, duration);
    });
  }

  // ---- Patient-driven sharing -----------------------------------------

  /// Routed to the granting patient's shard — the shard holding every
  /// record the grant can cover. See Vault::GrantConsent.
  Result<ConsentGrant> GrantConsent(const PrincipalId& actor,
                                    const PrincipalId& grantee,
                                    const RecordId& record_id,
                                    const std::string& purpose,
                                    Timestamp duration);
  /// Grant ids embed their shard ("s<k>-cg-<n>").
  Status RevokeConsent(const PrincipalId& actor,
                       const std::string& grant_id) {
    return OnShardOf(ByConsent{grant_id}, [&](Vault* s) {
      return s->RevokeConsent(actor, grant_id);
    });
  }
  Result<std::vector<ConsentGrant>> ListConsents(const PrincipalId& actor,
                                                 const PrincipalId& patient) {
    return OnShardOf(ByPatient{patient}, [&](Vault* s) {
      return s->ListConsents(actor, patient);
    });
  }
  /// Sum over healthy shards (health reporting).
  size_t ActiveConsentCount() const {
    size_t total = 0;
    OnEveryShard([](Vault* s) { return s->ActiveConsentCount(); },
                 [&](size_t count) { total += count; });
    return total;
  }

  // ---- Record lifecycle ----------------------------------------------

  Result<RecordId> CreateRecord(const PrincipalId& actor,
                                const PrincipalId& patient_id,
                                const std::string& content_type,
                                const Slice& plaintext,
                                const std::vector<std::string>& keywords,
                                const std::string& retention_policy) {
    obs::ScopedOpTimer timer(metrics_, op_metrics_.create, "sharded.create");
    return OnShardOf(ByPatient{patient_id}, [&](Vault* s) {
      return s->CreateRecord(actor, patient_id, content_type, plaintext,
                             keywords, retention_policy);
    });
  }

  /// Cross-shard batched ingest: the batch is partitioned by patient
  /// shard and the per-shard sub-batches run as parallel
  /// Vault::CreateRecordsBatch calls on the worker pool (each shard's
  /// coalesced state/index/audit bookkeeping stays intact). Returned
  /// ids line up with the input order. On error the first failing
  /// shard's status is returned; sub-batches on other shards may have
  /// been created (same durability model as the single-vault batch —
  /// nothing is acknowledged until SyncAll).
  Result<std::vector<RecordId>> CreateRecordsBatch(
      const PrincipalId& actor, const std::vector<Vault::NewRecord>& batch);

  Result<RecordVersion> ReadRecord(const PrincipalId& actor,
                                   const RecordId& record_id) {
    obs::ScopedOpTimer timer(metrics_, op_metrics_.read, "sharded.read");
    return OnShardOf(ByRecord{record_id},
                     [&](Vault* s) { return s->ReadRecord(actor, record_id); });
  }
  Result<RecordVersion> ReadRecordVersion(const PrincipalId& actor,
                                          const RecordId& record_id,
                                          uint32_t version) {
    obs::ScopedOpTimer timer(metrics_, op_metrics_.read, "sharded.read");
    return OnShardOf(ByRecord{record_id}, [&](Vault* s) {
      return s->ReadRecordVersion(actor, record_id, version);
    });
  }
  Result<VersionHeader> CorrectRecord(
      const PrincipalId& actor, const RecordId& record_id,
      const Slice& new_plaintext, const std::string& reason,
      const std::vector<std::string>& keywords) {
    obs::ScopedOpTimer timer(metrics_, op_metrics_.correct, "sharded.correct");
    return OnShardOf(ByRecord{record_id}, [&](Vault* s) {
      return s->CorrectRecord(actor, record_id, new_plaintext, reason,
                              keywords);
    });
  }

  /// Fan-out search, merged in shard order (per-shard order preserved).
  /// Quarantined shards are skipped, so results may be partial until
  /// every shard rejoins — the price of availability.
  Result<std::vector<RecordId>> SearchKeyword(const PrincipalId& actor,
                                              const std::string& term) {
    obs::ScopedOpTimer timer(metrics_, op_metrics_.search, "sharded.search");
    std::vector<RecordId> merged;
    MEDVAULT_RETURN_IF_ERROR(
        OnEveryShard([&](Vault* s) { return s->SearchKeyword(actor, term); },
                     AppendTo<RecordId>{&merged}));
    return merged;
  }
  Result<std::vector<RecordId>> SearchKeywordsAll(
      const PrincipalId& actor, const std::vector<std::string>& terms) {
    obs::ScopedOpTimer timer(metrics_, op_metrics_.search, "sharded.search");
    std::vector<RecordId> merged;
    MEDVAULT_RETURN_IF_ERROR(OnEveryShard(
        [&](Vault* s) { return s->SearchKeywordsAll(actor, terms); },
        AppendTo<RecordId>{&merged}));
    return merged;
  }

  Result<std::vector<VersionHeader>> RecordHistory(const PrincipalId& actor,
                                                   const RecordId& record_id) {
    return OnShardOf(ByRecord{record_id}, [&](Vault* s) {
      return s->RecordHistory(actor, record_id);
    });
  }

  Result<DisposalCertificate> DisposeRecord(const PrincipalId& actor,
                                            const RecordId& record_id) {
    obs::ScopedOpTimer timer(metrics_, op_metrics_.dispose, "sharded.dispose");
    return OnShardOf(ByRecord{record_id}, [&](Vault* s) {
      return s->DisposeRecord(actor, record_id);
    });
  }
  Result<std::vector<RecordMeta>> ListExpiredRecords(
      const PrincipalId& actor) {
    std::vector<RecordMeta> merged;
    MEDVAULT_RETURN_IF_ERROR(
        OnEveryShard([&](Vault* s) { return s->ListExpiredRecords(actor); },
                     AppendTo<RecordMeta>{&merged}));
    return merged;
  }
  Result<int> ReclaimDisposedMedia(const PrincipalId& actor) {
    int total = 0;
    MEDVAULT_RETURN_IF_ERROR(OnEveryShard(
        [&](Vault* s) { return s->ReclaimDisposedMedia(actor); },
        [&](int reclaimed) { total += reclaimed; }));
    return total;
  }
  Status PlaceLegalHold(const PrincipalId& actor, const RecordId& record_id,
                        const std::string& reason) {
    return OnShardOf(ByRecord{record_id}, [&](Vault* s) {
      return s->PlaceLegalHold(actor, record_id, reason);
    });
  }
  Status ReleaseLegalHold(const PrincipalId& actor,
                          const RecordId& record_id,
                          const std::string& reason) {
    return OnShardOf(ByRecord{record_id}, [&](Vault* s) {
      return s->ReleaseLegalHold(actor, record_id, reason);
    });
  }
  /// Two-person disposal across shards: request ids are
  /// shard-qualified ("s<k>:dr-<n>") so approval routes back.
  Result<std::string> RequestDisposal(const PrincipalId& actor,
                                      const RecordId& record_id) {
    auto request = [&](Vault* s, uint32_t k) -> Result<std::string> {
      MEDVAULT_ASSIGN_OR_RETURN(std::string local,
                                s->RequestDisposal(actor, record_id));
      return "s" + std::to_string(k) + ":" + local;
    };
    return OnShardOf(ByRecord{record_id}, request);
  }
  Result<DisposalCertificate> ApproveDisposal(const PrincipalId& actor,
                                              const std::string& request_id) {
    return OnShardOf(ByDisposalRequest{request_id}, [&](Vault* s) {
      return s->ApproveDisposal(actor,
                                request_id.substr(request_id.find(':') + 1));
    });
  }

  /// Durability barrier over every shard. Concurrent callers coalesce
  /// into one sync *wave* per commit window (GroupCommitter); within a
  /// wave every healthy shard syncs concurrently on the worker pool
  /// (in shard order when ingest_threads forces inline execution). A
  /// cross-shard batch is fully acknowledged only once this returns OK.
  Status SyncAll();

  /// CreateRecordsBatch plus the group-committed cross-shard barrier:
  /// ids are returned only after one sync wave covering every involved
  /// shard has completed. Concurrent durable batches share a window —
  /// one wave across all shards, not one sync per shard per batch.
  Result<std::vector<RecordId>> CreateRecordsBatchDurable(
      const PrincipalId& actor, const std::vector<Vault::NewRecord>& batch);

  // ---- Audit & custody ------------------------------------------------

  /// One signed checkpoint per shard (each shard has its own audit
  /// chain and signer), in shard order.
  Result<std::vector<SignedCheckpoint>> CheckpointAudit() {
    std::vector<SignedCheckpoint> checkpoints;
    MEDVAULT_RETURN_IF_ERROR(
        OnEveryShard([](Vault* s) { return s->CheckpointAudit(); },
                     [&](SignedCheckpoint checkpoint) {
                       checkpoints.push_back(std::move(checkpoint));
                     }));
    return checkpoints;
  }
  /// Every healthy shard's audit chain must verify.
  Status VerifyAudit() const {
    obs::ScopedOpTimer timer(metrics_, op_metrics_.verify, "sharded.verify");
    return OnEveryShard([](Vault* s) { return s->VerifyAudit(); });
  }
  /// Record-scoped trails route to the record's shard; an empty record
  /// id merges every shard's trail (shard order).
  Result<std::vector<AuditEvent>> ReadAuditTrail(const PrincipalId& actor,
                                                 const RecordId& record_id) {
    auto trail = [&](Vault* s) { return s->ReadAuditTrail(actor, record_id); };
    if (!record_id.empty()) return OnShardOf(ByRecord{record_id}, trail);
    std::vector<AuditEvent> merged;
    MEDVAULT_RETURN_IF_ERROR(
        OnEveryShard(trail, AppendTo<AuditEvent>{&merged}));
    return merged;
  }
  Result<std::vector<CustodyEvent>> GetCustodyChain(const PrincipalId& actor,
                                                    const RecordId& record_id) {
    return OnShardOf(ByRecord{record_id}, [&](Vault* s) {
      return s->GetCustodyChain(actor, record_id);
    });
  }
  /// All disclosures of a patient's records happen on their shard.
  Result<std::vector<AuditEvent>> AccountingOfDisclosures(
      const PrincipalId& actor, const PrincipalId& patient_id) {
    return OnShardOf(ByPatient{patient_id}, [&](Vault* s) {
      return s->AccountingOfDisclosures(actor, patient_id);
    });
  }
  Result<std::vector<AuditEvent>> ListBreakGlassEvents(
      const PrincipalId& actor) {
    std::vector<AuditEvent> merged;
    MEDVAULT_RETURN_IF_ERROR(
        OnEveryShard([&](Vault* s) { return s->ListBreakGlassEvents(actor); },
                     AppendTo<AuditEvent>{&merged}));
    return merged;
  }

  // ---- Verification & introspection -----------------------------------

  Status VerifyRecord(const RecordId& record_id) const {
    return OnShardOf(ByRecord{record_id},
                     [&](Vault* s) { return s->VerifyRecord(record_id); });
  }
  /// Verifies what is serving: quarantined shards are skipped (their
  /// damage is already known; verify them via ScrubShard).
  Status VerifyEverything() const {
    obs::ScopedOpTimer timer(metrics_, op_metrics_.verify, "sharded.verify");
    return OnEveryShard([](Vault* s) { return s->VerifyEverything(); });
  }
  /// Merkle root over the per-shard content roots (shard order): two
  /// sharded vaults with byte-identical shard contents have equal
  /// roots. Quarantined shards contribute nothing.
  std::string ContentRoot() const;
  Result<RecordMeta> GetRecordMeta(const RecordId& record_id) const {
    return OnShardOf(ByRecord{record_id},
                     [&](Vault* s) { return s->GetRecordMeta(record_id); });
  }
  std::vector<RecordId> ListRecordIds() const {
    std::vector<RecordId> merged;
    OnEveryShard([](Vault* s) { return s->ListRecordIds(); },
                 AppendTo<RecordId>{&merged});
    return merged;
  }
  /// Must reach every shard: a quarantined shard refuses the rotation
  /// before any shard rotates.
  Status RotateMasterKey(const PrincipalId& actor,
                         const Slice& new_master_key);

  // ---- Media faults: quarantine, scrub, repair, rejoin ----------------

  /// True if shard `k` is offline after a degraded open (or a failed
  /// rejoin). Quarantined shards serve nothing; everything else does.
  bool IsQuarantined(uint32_t k) const { return shard(k) == nullptr; }
  /// Why shard `k` is quarantined ("" when healthy).
  std::string QuarantineReason(uint32_t k) const;
  /// Indices of all quarantined shards, ascending.
  std::vector<uint32_t> QuarantinedShards() const;

  /// Scrubs shard `k`: a healthy shard gets the full Vault::Scrub
  /// (structural + deep); a quarantined shard gets the offline
  /// structural scan of its directory — exactly what repair needs.
  Result<ScrubReport> ScrubShard(uint32_t k);

  /// Brings a quarantined shard back after its files were repaired
  /// (e.g. BackupManager::Repair against ShardDirPath(k)): re-scrubs
  /// the directory, refuses with kFailedPrecondition if still dirty,
  /// then opens the shard and fills its slot. Healthy shards are a
  /// no-op. NOTE: principals registered while the shard was offline
  /// must be re-registered by the caller.
  Status RejoinShard(uint32_t k);

  /// On-disk directory of shard `k` (repair tooling).
  std::string ShardDirPath(uint32_t k) const {
    return ShardRouter::ShardDir(options_.dir, k);
  }

  Timestamp Now() const { return options_.clock->Now(); }

  uint32_t num_shards() const { return router_.num_shards(); }
  const ShardRouter& router() const { return router_; }
  /// Direct shard access (tests, migration, per-shard audit checks).
  /// Null while shard `k` is quarantined (degraded opens only; a strict
  /// open never leaves a null slot).
  Vault* shard(uint32_t k) {
    std::shared_lock lock(shards_mu_);
    return shards_[k].get();
  }
  const Vault* shard(uint32_t k) const {
    std::shared_lock lock(shards_mu_);
    return shards_[k].get();
  }
  /// The shared authenticated read cache (null when cache_bytes == 0).
  RecordCache* cache() { return cache_.get(); }
  const RecordCache* cache() const { return cache_.get(); }
  RecordCache::Stats CacheStats() const {
    return cache_ != nullptr ? cache_->stats() : RecordCache::Stats{};
  }
  /// The registry the wrapper and all shards report into (never null
  /// after Open).
  obs::MetricsRegistry* metrics_registry() const { return metrics_; }
  /// The cross-shard fan-out pool (replication cuts shards on it too).
  WorkerPool* pool() { return pool_.get(); }
  const ShardedVaultOptions& options() const { return options_; }

 private:
  explicit ShardedVault(ShardedVaultOptions options);

  Status Init();

  // ---- Routing --------------------------------------------------------

  /// Route keys for OnShardOf (a bare uint32_t names a shard by index).
  struct ByRecord { const RecordId& id; };
  struct ByPatient { const PrincipalId& id; };
  struct ByConsent { const std::string& id; };
  struct ByDisposalRequest { const std::string& id; };
  struct FirstHealthy {};  // principals live on every shard
  /// The shard a route names; NotFound for an id naming no shard of
  /// this vault, FailedPrecondition when no shard is healthy.
  Result<uint32_t> ShardIndex(const ByRecord& route) const;
  Result<uint32_t> ShardIndex(const ByPatient& route) const;
  Result<uint32_t> ShardIndex(const ByConsent& route) const;
  Result<uint32_t> ShardIndex(const ByDisposalRequest& route) const;
  Result<uint32_t> ShardIndex(uint32_t k) const { return k; }
  Result<uint32_t> ShardIndex(FirstHealthy) const;

  /// Runs `fn(Vault*)` or `fn(Vault*, k)` on the shard `route` names and
  /// returns its result; a quarantined shard is FailedPrecondition with
  /// the quarantine reason.
  template <typename Route, typename Fn>
  auto OnShardOf(const Route& route, Fn&& fn) const
      -> decltype(internal::CallOnShard(fn, nullptr, 0)) {
    Result<uint32_t> k = ShardIndex(route);
    if (!k.ok()) return k.status();
    Result<Vault*> s = RequireShard(*k);
    if (!s.ok()) return s.status();
    return internal::CallOnShard(fn, *s, *k);
  }

  /// Quarantined shards are skipped (reads, search, verification) or
  /// refuse the whole call before `fn` runs anywhere (total operations).
  enum class Quarantined { kSkip, kRefuse };
  /// OnEveryShard merges: drop the values, or concatenate per-shard
  /// vectors in shard order.
  struct Discard {
    template <typename T>
    void operator()(T&&) const {}
  };
  template <typename T>
  struct AppendTo {
    std::vector<T>* out;
    void operator()(std::vector<T>&& part) const {
      out->insert(out->end(), std::make_move_iterator(part.begin()),
                  std::make_move_iterator(part.end()));
    }
  };
  /// Runs `fn` on every shard in index order, hands each value it
  /// returns (a Result unwrapped) to `merge`, stops at the first error.
  template <typename Fn, typename Merge = Discard>
  Status OnEveryShard(Fn&& fn, Merge&& merge = {},
                      Quarantined policy = Quarantined::kSkip) const {
    // Slots only ever go from quarantined to mounted, so a shard checked
    // here is still mounted when the loop below reaches it.
    for (uint32_t k = 0; k < num_shards(); ++k) {
      if (policy == Quarantined::kRefuse) {
        MEDVAULT_RETURN_IF_ERROR(RequireShard(k).status());
      }
    }
    for (uint32_t k = 0; k < num_shards(); ++k) {
      Result<Vault*> s = RequireShard(k);
      if (!s.ok()) continue;
      using R = decltype(internal::CallOnShard(fn, *s, k));
      if constexpr (std::is_same_v<R, Status>) {
        MEDVAULT_RETURN_IF_ERROR(internal::CallOnShard(fn, *s, k));
      } else if constexpr (requires(R r) { r.status(); }) {
        R result = internal::CallOnShard(fn, *s, k);
        if (!result.ok()) return result.status();
        merge(std::move(result).value());
      } else {
        merge(internal::CallOnShard(fn, *s, k));
      }
    }
    return Status::OK();
  }

  /// Shard `k` if healthy, kFailedPrecondition naming the quarantine
  /// reason otherwise.
  Result<Vault*> RequireShard(uint32_t k) const;
  /// Derives shard `k`'s key domain and opens its Vault.
  Result<std::unique_ptr<Vault>> OpenShard(uint32_t k);
  /// One commit wave: every healthy shard's SyncAll, fanned out over
  /// the worker pool; first shard error in index order wins.
  Status SyncShardsWave();
  /// Re-publishes the "sharded.quarantined" gauge.
  void PublishQuarantineGauge() const;

  ShardedVaultOptions options_;
  ShardRouter router_;
  /// Wrapper-level telemetry: "sharded.*" histograms time the whole
  /// cross-shard operation (fan-out + merge), while each shard's own
  /// "vault.*" histograms time its slice — the gap between the two is
  /// the cost of coordination.
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::VaultOpMetrics op_metrics_;
  std::unique_ptr<RecordCache> cache_;
  /// Guards shards_ slot pointers and quarantine_reasons_. Slots only
  /// transition null -> open vault (RejoinShard); a loaded Vault* stays
  /// valid for the wrapper's lifetime.
  mutable std::shared_mutex shards_mu_;
  std::vector<std::unique_ptr<Vault>> shards_;
  /// Per-shard quarantine reason; "" means healthy. Parallel to shards_.
  std::vector<std::string> quarantine_reasons_;
  std::unique_ptr<WorkerPool> pool_;
  /// The group commit ("commit.window.sharded.*" metrics); its wave
  /// fans shard SyncAlls out over pool_.
  std::unique_ptr<GroupCommitter> committer_;
};

/// One companion per shard (a replication source, a transparency log),
/// built by `make(Vault*)` on first use once the shard is mounted, so a
/// shard brought back by RejoinShard gains one without a restart; null
/// while the shard is quarantined. The owner serialises calls.
template <typename T>
class PerShard {
 public:
  explicit PerShard(ShardedVault* vault)
      : vault_(vault), slots_(vault->num_shards()) {}

  uint32_t size() const { return static_cast<uint32_t>(slots_.size()); }

  /// `make` returns a std::unique_ptr<T> or a Result of one.
  template <typename Make>
  Result<T*> Get(uint32_t k, Make&& make) {
    if (slots_[k] == nullptr) {
      Vault* shard = vault_->shard(k);
      if (shard == nullptr) return static_cast<T*>(nullptr);
      Result<std::unique_ptr<T>> made = make(shard);
      if (!made.ok()) return made.status();
      slots_[k] = std::move(made).value();
    }
    return slots_[k].get();
  }

  /// The companions built so far (null slots for shards never mounted).
  const std::vector<std::unique_ptr<T>>& built() const { return slots_; }

 private:
  ShardedVault* const vault_;
  std::vector<std::unique_ptr<T>> slots_;
};

}  // namespace medvault::core

#endif  // MEDVAULT_CORE_SHARDED_VAULT_H_
