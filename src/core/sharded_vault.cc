#include "core/sharded_vault.h"

#include <charconv>
#include <utility>

#include "common/worker_pool.h"
#include "core/scrub.h"
#include "crypto/merkle.h"

namespace medvault::core {

// ---------------------------------------------------------------------------
// Open / Init
// ---------------------------------------------------------------------------

ShardedVault::ShardedVault(ShardedVaultOptions options)
    : options_(std::move(options)), router_(options_.num_shards) {}

ShardedVault::~ShardedVault() = default;

Result<std::unique_ptr<ShardedVault>> ShardedVault::Open(
    const ShardedVaultOptions& options) {
  if (options.env == nullptr || options.clock == nullptr) {
    return Status::InvalidArgument("env and clock are required");
  }
  if (options.dir.empty()) {
    return Status::InvalidArgument("dir is required");
  }
  if (options.master_key.size() != 32) {
    return Status::InvalidArgument("master_key must be 32 bytes");
  }
  if (options.entropy.empty()) {
    return Status::InvalidArgument("entropy is required");
  }
  if (options.num_shards < 1 || options.num_shards > 1024) {
    return Status::InvalidArgument("num_shards must be in [1, 1024]");
  }
  auto vault =
      std::unique_ptr<ShardedVault>(new ShardedVault(options));
  MEDVAULT_RETURN_IF_ERROR(vault->Init());
  return vault;
}

Status ShardedVault::Init() {
  storage::Env* env = options_.env;

  metrics_ = options_.metrics != nullptr ? options_.metrics
                                         : obs::MetricsRegistry::Default();
  op_metrics_ = obs::VaultOpMetrics::For(metrics_, "sharded");

  MEDVAULT_RETURN_IF_ERROR(
      ShardRouter::OpenLayout(env, options_.dir, options_.num_shards));

  if (options_.cache_bytes > 0) {
    cache_ = std::make_unique<RecordCache>(options_.cache_bytes);
  }

  shards_.resize(options_.num_shards);
  quarantine_reasons_.resize(options_.num_shards);
  for (uint32_t k = 0; k < options_.num_shards; ++k) {
    if (options_.open_mode == OpenMode::kDegraded) {
      // Scrub before opening. Vault::Open tolerates torn tails and does
      // not deep-verify, so a shard with a flipped segment byte would
      // "open" and then fail clinical reads; the structural scan spots
      // the damage up front without mutating the directory. A NotFound
      // scrub means a fresh shard directory — open will create it.
      Result<ScrubReport> scrub = Scrubber::ScrubVaultDir(
          env, ShardRouter::ShardDir(options_.dir, k), options_.clock->Now());
      if (!scrub.ok() && !scrub.status().IsNotFound()) {
        quarantine_reasons_[k] =
            "scrub failed: " + scrub.status().ToString();
        continue;
      }
      if (scrub.ok() && !scrub->structurally_clean()) {
        std::string reason = "failed structural scrub: " +
                             std::to_string(scrub->corrupt_files) +
                             " damaged file(s)";
        const auto damaged = scrub->DamagedFiles();
        if (!damaged.empty()) reason += ", first: " + damaged[0];
        quarantine_reasons_[k] = std::move(reason);
        continue;
      }
      Result<std::unique_ptr<Vault>> shard = OpenShard(k);
      if (!shard.ok()) {
        quarantine_reasons_[k] =
            "open failed: " + shard.status().ToString();
        continue;
      }
      shards_[k] = std::move(*shard);
    } else {
      MEDVAULT_ASSIGN_OR_RETURN(shards_[k], OpenShard(k));
    }
  }
  PublishQuarantineGauge();

  const unsigned threads =
      ShardRouter::FanOutThreads(options_.ingest_threads, options_.num_shards);
  // One thread means "sequential": no pool workers, RunAll runs inline.
  pool_ = std::make_unique<WorkerPool>(threads > 1 ? threads : 0);

  GroupCommitter::Options commit_options;
  commit_options.window_micros = options_.commit_window_micros;
  commit_options.metrics = metrics_;
  committer_ = std::make_unique<GroupCommitter>(
      [this] { return SyncShardsWave(); }, std::move(commit_options));
  return Status::OK();
}

Status ShardedVault::SyncShardsWave() {
  // One wave: every healthy shard's SyncAll fans out over the pool and
  // the wave completes when the slowest shard lands. Inline (0-thread)
  // pools run shard order deterministically for the crash matrix.
  const uint32_t n = num_shards();
  std::vector<Status> statuses(n, Status::OK());
  TaskGroup group(pool_.get());
  for (uint32_t k = 0; k < n; ++k) {
    Vault* s = shard(k);
    if (s == nullptr) continue;  // quarantined: nothing mounted to sync
    group.Submit([s, &statuses, k] { statuses[k] = s->SyncAll(); });
  }
  group.Wait();
  for (uint32_t k = 0; k < n; ++k) {
    if (!statuses[k].ok()) return statuses[k];
  }
  return Status::OK();
}

Result<std::unique_ptr<Vault>> ShardedVault::OpenShard(uint32_t k) {
  // Independent key domains per shard: both the key-wrapping master
  // and the entropy pool are derived with the shard index.
  MEDVAULT_ASSIGN_OR_RETURN(
      std::string shard_master,
      ShardRouter::ShardMasterKey(options_.master_key, k));
  MEDVAULT_ASSIGN_OR_RETURN(std::string shard_entropy,
                            ShardRouter::ShardEntropy(options_.entropy, k));

  VaultOptions shard_options;
  shard_options.env = options_.env;
  shard_options.dir = ShardRouter::ShardDir(options_.dir, k);
  shard_options.clock = options_.clock;
  shard_options.master_key = std::move(shard_master);
  shard_options.entropy = std::move(shard_entropy);
  shard_options.signer_height = options_.signer_height;
  shard_options.system_id = options_.system_id + "/shard-" + std::to_string(k);
  shard_options.require_dual_disposal = options_.require_dual_disposal;
  shard_options.record_id_prefix = ShardRouter::RecordIdPrefix(k);
  shard_options.consent_id_prefix = ShardRouter::ConsentIdPrefix(k);
  shard_options.cache = cache_.get();
  shard_options.metrics = metrics_;
  return Vault::Open(shard_options);
}

std::string ShardedVault::QuarantineReason(uint32_t k) const {
  std::shared_lock lock(shards_mu_);
  return quarantine_reasons_[k];
}

std::vector<uint32_t> ShardedVault::QuarantinedShards() const {
  std::shared_lock lock(shards_mu_);
  std::vector<uint32_t> out;
  for (uint32_t k = 0; k < shards_.size(); ++k) {
    if (shards_[k] == nullptr) out.push_back(k);
  }
  return out;
}

void ShardedVault::PublishQuarantineGauge() const {
  metrics_->GetGauge("sharded.quarantined")
      ->Set(static_cast<int64_t>(QuarantinedShards().size()));
}

Result<ScrubReport> ShardedVault::ScrubShard(uint32_t k) {
  if (k >= num_shards()) {
    return Status::InvalidArgument("no such shard: " + std::to_string(k));
  }
  Vault* s = shard(k);
  if (s != nullptr) return s->Scrub();
  // Quarantined: the shard is not open, so only the offline structural
  // scan is possible — which is all repair needs.
  return Scrubber::ScrubVaultDir(options_.env, ShardDirPath(k), Now());
}

Status ShardedVault::RejoinShard(uint32_t k) {
  if (k >= num_shards()) {
    return Status::InvalidArgument("no such shard: " + std::to_string(k));
  }
  if (shard(k) != nullptr) return Status::OK();  // already healthy

  // Gate on a clean structural scrub so a rejoin cannot re-admit the
  // damage that caused the quarantine.
  MEDVAULT_ASSIGN_OR_RETURN(
      ScrubReport report,
      Scrubber::ScrubVaultDir(options_.env, ShardDirPath(k), Now()));
  if (!report.structurally_clean()) {
    return Status::FailedPrecondition(
        "shard " + std::to_string(k) + " is still damaged; repair first (" +
        std::to_string(report.corrupt_files) + " damaged file(s))");
  }
  MEDVAULT_ASSIGN_OR_RETURN(std::unique_ptr<Vault> opened, OpenShard(k));
  MEDVAULT_RETURN_IF_ERROR(opened->VerifyEverything());
  {
    std::unique_lock lock(shards_mu_);
    if (shards_[k] != nullptr) return Status::OK();  // lost a rejoin race
    shards_[k] = std::move(opened);
    quarantine_reasons_[k].clear();
  }
  metrics_->GetCounter("sharded.rejoined")->Increment();
  PublishQuarantineGauge();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------------

Result<uint32_t> ShardedVault::ShardIndex(const ByRecord& route) const {
  uint32_t k = 0;
  if (ShardRouter::ShardOfRecordId(route.id, &k) && k < num_shards()) {
    return k;
  }
  return Status::NotFound("record not found: '" + route.id +
                          "' does not name a shard of this vault");
}

Result<uint32_t> ShardedVault::ShardIndex(const ByPatient& route) const {
  return router_.ShardOf(route.id);
}

Result<uint32_t> ShardedVault::ShardIndex(const ByConsent& route) const {
  uint32_t k = 0;
  if (ShardRouter::ShardOfConsentId(route.id, &k) && k < num_shards()) {
    return k;
  }
  return Status::NotFound("no such consent grant: " + route.id);
}

Result<uint32_t> ShardedVault::ShardIndex(
    const ByDisposalRequest& route) const {
  // "s<k>:<the shard's own request id>", as RequestDisposal builds it.
  const std::string& id = route.id;
  const size_t colon = id.find(':');
  uint32_t k = 0;
  if (!id.empty() && id[0] == 's' && colon != std::string::npos) {
    const char* end = id.data() + colon;
    auto [ptr, ec] = std::from_chars(id.data() + 1, end, k);
    if (ec == std::errc() && ptr == end && k < num_shards()) return k;
  }
  return Status::NotFound("unknown disposal request: " + id);
}

Result<uint32_t> ShardedVault::ShardIndex(FirstHealthy) const {
  std::shared_lock lock(shards_mu_);
  for (uint32_t k = 0; k < shards_.size(); ++k) {
    if (shards_[k] != nullptr) return k;
  }
  return Status::FailedPrecondition("all shards quarantined");
}

Result<Vault*> ShardedVault::RequireShard(uint32_t k) const {
  std::shared_lock lock(shards_mu_);
  Vault* s = shards_[k].get();
  if (s != nullptr) return s;
  return Status::FailedPrecondition(
      "shard " + std::to_string(k) +
      " is quarantined: " + quarantine_reasons_[k]);
}

// ---------------------------------------------------------------------------
// Operations that are more than one route
// ---------------------------------------------------------------------------

Result<ConsentGrant> ShardedVault::GrantConsent(const PrincipalId& actor,
                                                const PrincipalId& grantee,
                                                const RecordId& record_id,
                                                const std::string& purpose,
                                                Timestamp duration) {
  // A grant lives on its granting patient's shard — the same shard as
  // every record it can cover (records are placed by patient id), so
  // the shard-local registry sees all relevant grants. A record-scoped
  // grant must name a record on that shard, or the registry could
  // never match it against a read routed by record id.
  auto grant = [&](Vault* s, uint32_t k) -> Result<ConsentGrant> {
    if (k != router_.ShardOf(actor)) {
      return Status::PermissionDenied(
          "patients may share only their own records");
    }
    return s->GrantConsent(actor, grantee, record_id, purpose, duration);
  };
  if (record_id.empty()) return OnShardOf(ByPatient{actor}, grant);
  return OnShardOf(ByRecord{record_id}, grant);
}

Result<std::vector<RecordId>> ShardedVault::CreateRecordsBatch(
    const PrincipalId& actor, const std::vector<Vault::NewRecord>& batch) {
  obs::ScopedOpTimer timer(metrics_, op_metrics_.batch_ingest,
                           "sharded.batch_ingest");
  if (batch.empty()) {
    return Status::InvalidArgument("batch is empty");
  }
  // Partition by patient shard, remembering each item's original index
  // so the merged id vector lines up with the input order.
  const uint32_t n = num_shards();
  std::vector<std::vector<size_t>> indices(n);
  for (size_t i = 0; i < batch.size(); ++i) {
    indices[router_.ShardOf(batch[i].patient_id)].push_back(i);
  }

  // Refuse the whole batch up front if any involved shard is
  // quarantined: a partial cross-shard ingest that can never complete
  // is worse than a clean failure the caller can re-route.
  std::vector<Vault*> involved(n, nullptr);
  for (uint32_t k = 0; k < n; ++k) {
    if (indices[k].empty()) continue;
    MEDVAULT_RETURN_IF_ERROR(OnShardOf(k, [&](Vault* s) {
      involved[k] = s;
      return Status::OK();
    }));
  }
  std::vector<Status> statuses(n, Status::OK());
  std::vector<std::vector<RecordId>> ids(n);
  TaskGroup group(pool_.get());
  for (uint32_t k = 0; k < n; ++k) {
    Vault* s = involved[k];
    if (s == nullptr) continue;
    group.Submit([s, &actor, &batch, &indices, &statuses, &ids, k] {
      // A batch that lands on one shard goes through uncopied.
      std::vector<Vault::NewRecord> sub;
      if (indices[k].size() != batch.size()) {
        sub.reserve(indices[k].size());
        for (size_t i : indices[k]) sub.push_back(batch[i]);
      }
      auto result = s->CreateRecordsBatch(actor, sub.empty() ? batch : sub);
      if (result.ok()) {
        ids[k] = std::move(*result);
      } else {
        statuses[k] = result.status();
      }
    });
  }
  group.Wait();

  for (uint32_t k = 0; k < n; ++k) {
    if (!statuses[k].ok()) return statuses[k];
  }
  std::vector<RecordId> merged(batch.size());
  for (uint32_t k = 0; k < n; ++k) {
    for (size_t j = 0; j < indices[k].size(); ++j) {
      merged[indices[k][j]] = std::move(ids[k][j]);
    }
  }
  return merged;
}

Status ShardedVault::SyncAll() {
  obs::ScopedOpTimer timer(metrics_, op_metrics_.sync, "sharded.sync");
  return committer_->Commit();
}

Result<std::vector<RecordId>> ShardedVault::CreateRecordsBatchDurable(
    const PrincipalId& actor, const std::vector<Vault::NewRecord>& batch) {
  MEDVAULT_ASSIGN_OR_RETURN(std::vector<RecordId> ids,
                            CreateRecordsBatch(actor, batch));
  // One cross-shard wave acknowledges the whole batch; concurrent
  // durable batches ride the same wave when their windows overlap.
  MEDVAULT_RETURN_IF_ERROR(committer_->Commit());
  return ids;
}

std::string ShardedVault::ContentRoot() const {
  // NOTE: quarantined shards contribute nothing, so a degraded root is
  // only comparable against another vault with the same quarantine set.
  crypto::MerkleTree tree(/*memoize=*/false);
  OnEveryShard([](Vault* s) { return s->ContentRoot(); },
               [&](const std::string& root) { tree.Append(root); });
  return tree.Root();
}

Status ShardedVault::RotateMasterKey(const PrincipalId& actor,
                                     const Slice& new_master_key) {
  if (new_master_key.size() != 32) {
    return Status::InvalidArgument("master key must be 32 bytes");
  }
  // Rotation must reach EVERY shard: a quarantined shard would silently
  // stay on the old master and fail to open after rejoin, so it turns
  // into an up-front refusal before any shard rotates.
  return OnEveryShard(
      [&](Vault* s, uint32_t k) -> Status {
        MEDVAULT_ASSIGN_OR_RETURN(
            std::string shard_master,
            ShardRouter::ShardMasterKey(new_master_key, k));
        return s->RotateMasterKey(actor, shard_master);
      },
      Discard{}, Quarantined::kRefuse);
}

}  // namespace medvault::core
