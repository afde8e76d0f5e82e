// E16 — verified replication: log-shipping throughput and the warm
// standby's read-serving cost (DESIGN.md "Replication & promotion";
// paper §3: availability requires a standby that is provably identical,
// not merely "probably caught up").
//
// Two tables:
//
//   1. Ship throughput vs window size: a 2-shard primary ingests K
//      records per group-commit window, then one pull round (cursor →
//      CutAll → ApplyAll) ships the window to a sharded standby.
//      Cut and apply are timed separately; throughput is verified
//      payload MB/s (every shipped byte is Merkle-checked on apply).
//   2. Standby read-view latency vs lag: p50/p99 of authenticated
//      record reads served from a replica read view while the primary
//      runs ahead by 0 / ~128 KiB / ~512 KiB of unshipped bytes. The
//      claim being quantified: serving reads neither disturbs the
//      byte-exact replica nor degrades as lag grows (the view is a
//      snapshot copy; catch-up stays one pull round away).
//
// Writes BENCH_replication.json (google-benchmark result format,
// consumed by tools/bench_compare.py against
// bench/baselines/BENCH_replication.json) and HEALTH_replication.json
// (with the conditional repl section filled from the live endpoints)
// next to the binary.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/replication.h"
#include "core/sharded_vault.h"
#include "core/vault.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "storage/mem_env.h"
#include "storage/posix_env.h"

namespace medvault::bench {
namespace {

using core::ReplicaApplier;
using core::ReplicationSource;
using core::Role;
using core::ShardedReplicaApplier;
using core::ShardedReplicationSource;
using core::ShardedVault;
using core::ShardedVaultOptions;
using core::Vault;
using core::VaultOptions;

constexpr char kEntropy[] = "bench-repl-entropy";
constexpr int kPatients = 8;
constexpr size_t kPayloadBytes = 2048;

double NowUs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
             .count() /
         1000.0;
}

double Percentile(std::vector<double>* sorted_us, double p) {
  if (sorted_us->empty()) return 0;
  std::sort(sorted_us->begin(), sorted_us->end());
  size_t idx = static_cast<size_t>(p * (sorted_us->size() - 1));
  return (*sorted_us)[idx];
}

void Register(ShardedVault* vault) {
  (void)vault->RegisterPrincipal("boot", {"admin", Role::kAdmin, "A"});
  (void)vault->RegisterPrincipal("admin", {"dr", Role::kPhysician, "D"});
  for (int p = 0; p < kPatients; p++) {
    std::string pat = "pat-" + std::to_string(p);
    (void)vault->RegisterPrincipal("admin", {pat, Role::kPatient, pat});
    (void)vault->AssignCare("admin", "dr", pat);
  }
}

void MustCreate(ShardedVault* vault, int seq) {
  auto id = vault->CreateRecord(
      "dr", "pat-" + std::to_string(seq % kPatients), "text/plain",
      "note " + std::to_string(seq) + std::string(kPayloadBytes, 'r'),
      {"note"}, "hipaa-6y");
  if (!id.ok()) {
    fprintf(stderr, "create failed: %s\n", id.status().ToString().c_str());
    abort();
  }
}

struct ShipPoint {
  int records;
  uint64_t payload_bytes;
  double cut_us;
  double apply_us;
  double mb_per_sec;  ///< verified payload through cut+apply
  uint64_t lag_at_cut;
};

/// One pull round; aborts on any failure (a bench must not silently
/// measure an error path).
uint64_t PullRound(ShardedReplicationSource* source,
                   ShardedReplicaApplier* applier, double* cut_us,
                   double* apply_us, uint64_t* lag_at_cut) {
  auto cursors = applier->Cursors();
  if (!cursors.ok()) abort();
  double t0 = NowUs();
  auto batches = source->CutAll(*cursors);
  double t1 = NowUs();
  if (!batches.ok()) {
    fprintf(stderr, "cut failed: %s\n", batches.status().ToString().c_str());
    abort();
  }
  uint64_t payload = 0;
  uint64_t lag = 0;
  for (const auto& b : *batches) {
    payload += b.PayloadBytes();
    lag += b.lag_at_cut;
  }
  double t2 = NowUs();
  Status applied = applier->ApplyAll(*batches);
  double t3 = NowUs();
  if (!applied.ok()) {
    fprintf(stderr, "apply failed: %s\n", applied.ToString().c_str());
    abort();
  }
  if (cut_us != nullptr) *cut_us = t1 - t0;
  if (apply_us != nullptr) *apply_us = t3 - t2;
  if (lag_at_cut != nullptr) *lag_at_cut = lag;
  return payload;
}

struct ViewPoint {
  int unshipped;  ///< baseline-stable key; measured lag is table-only
  uint64_t lag_kb;
  double p50_us;
  double p99_us;
};

void WriteReplicationJson(const std::vector<ShipPoint>& ship,
                          const std::vector<ViewPoint>& views) {
  std::vector<BenchEntry> entries;
  for (const ShipPoint& p : ship) {
    entries.push_back({"BM_ReplicationShip/records:" +
                           std::to_string(p.records),
                       p.cut_us + p.apply_us, p.mb_per_sec * 1e6});
  }
  for (const ViewPoint& v : views) {
    entries.push_back(
        {"BM_ReplicaViewRead/unshipped:" + std::to_string(v.unshipped),
         v.p99_us, v.p50_us > 0 ? 1e6 / v.p50_us : 0});
  }
  WriteBenchJson("replication", entries);
}

}  // namespace
}  // namespace medvault::bench

int main() {
  using namespace medvault::bench;

  printf("E16a: verified ship throughput vs group-commit window size "
         "(2 shards, MemEnv, %zu-byte payloads)\n", kPayloadBytes);
  printf("%8s %12s %10s %10s %10s %12s\n", "records", "payload-KB", "cut-us",
         "apply-us", "MB/s", "lag-at-cut");
  std::vector<ShipPoint> ship;
  medvault::obs::HealthReport health;
  {
    medvault::storage::MemEnv env;
    medvault::ManualClock clock(1000000);
    ShardedVaultOptions vopt;
    vopt.env = &env;
    vopt.dir = "primary";
    vopt.clock = &clock;
    vopt.master_key = std::string(32, 'B');
    vopt.entropy = kEntropy;
    vopt.num_shards = 2;
    vopt.signer_height = 8;
    vopt.metrics = medvault::obs::MetricsRegistry::Default();
    auto opened = ShardedVault::Open(vopt);
    if (!opened.ok()) abort();
    Register(opened->get());
    ShardedReplicationSource source(opened->get());

    medvault::storage::MemEnv replica_env;
    ShardedReplicaApplier::Options aopt;
    aopt.env = &replica_env;
    aopt.dir = "standby";
    aopt.entropy = kEntropy;
    aopt.num_shards = 2;
    aopt.metrics = medvault::obs::MetricsRegistry::Default();
    auto applier = ShardedReplicaApplier::Open(aopt);
    if (!applier.ok()) abort();

    // Bootstrap pull: principals + empty artifacts, outside the table.
    if (!opened->get()->SyncAll().ok()) abort();
    (void)PullRound(&source, applier->get(), nullptr, nullptr, nullptr);

    int seq = 0;
    for (int records : {4, 16, 64}) {
      for (int i = 0; i < records; i++) MustCreate(opened->get(), seq++);
      if (!opened->get()->SyncAll().ok()) abort();
      ShipPoint p;
      p.records = records;
      p.payload_bytes = PullRound(&source, applier->get(), &p.cut_us,
                                  &p.apply_us, &p.lag_at_cut);
      p.mb_per_sec =
          (p.payload_bytes / 1048576.0) / ((p.cut_us + p.apply_us) / 1e6);
      printf("%8d %12.1f %10.1f %10.1f %10.1f %12llu\n", p.records,
             p.payload_bytes / 1024.0, p.cut_us, p.apply_us, p.mb_per_sec,
             static_cast<unsigned long long>(p.lag_at_cut));
      ship.push_back(p);
    }
    if (applier->get()->lag_bytes() != 0) abort();

    // Health snapshot while both endpoints are live: the conditional
    // repl section carries the shipped/applied/lag posture.
    health = CollectProcessHealthNow();
    medvault::obs::FillReplicationHealth(&health, &source, applier->get());
  }

  printf("\nE16b: standby read-view latency vs unshipped primary lag "
         "(unsharded pair, 64 replicated records)\n");
  printf("%10s %10s %10s\n", "lag-KB", "p50-us", "p99-us");
  std::vector<ViewPoint> views;
  {
    medvault::storage::MemEnv env;
    medvault::ManualClock clock(1000000);
    VaultOptions vopt;
    vopt.env = &env;
    vopt.dir = "primary";
    vopt.clock = &clock;
    vopt.master_key = std::string(32, 'B');
    vopt.entropy = kEntropy;
    vopt.signer_height = 8;
    auto opened = Vault::Open(vopt);
    if (!opened.ok()) abort();
    Vault* primary = opened->get();
    (void)primary->RegisterPrincipal("boot", {"admin", Role::kAdmin, "A"});
    (void)primary->RegisterPrincipal("admin", {"dr", Role::kPhysician, "D"});
    (void)primary->RegisterPrincipal("admin", {"p", Role::kPatient, "P"});
    (void)primary->AssignCare("admin", "dr", "p");
    std::vector<std::string> ids;
    for (int i = 0; i < 64; i++) {
      auto id = primary->CreateRecord(
          "dr", "p", "text/plain",
          "replicated " + std::to_string(i) + std::string(kPayloadBytes, 'v'),
          {"note"}, "hipaa-6y");
      if (!id.ok()) abort();
      ids.push_back(*id);
    }
    if (!primary->SyncAll().ok()) abort();

    medvault::storage::MemEnv replica_env;
    ReplicaApplier::Options aopt;
    aopt.env = &replica_env;
    aopt.dir = "replica";
    aopt.entropy = kEntropy;
    auto applier = ReplicaApplier::Open(aopt);
    if (!applier.ok()) abort();
    ReplicationSource source(primary);
    auto cursor = (*applier)->Cursor();
    if (!cursor.ok()) abort();
    auto batch = source.CutBatch(*cursor);
    if (!batch.ok()) abort();
    if (!(*applier)->Apply(*batch).ok()) abort();

    int extra = 0;
    for (int stage = 0; stage < 3; stage++) {
      // Grow the primary ahead of the standby WITHOUT shipping: the
      // standby's read view must not care.
      int unshipped = stage == 0 ? 0 : (stage == 1 ? 8 : 32);
      for (int i = 0; i < unshipped; i++) {
        auto id = primary->CreateRecord(
            "dr", "p", "text/plain",
            "unshipped " + std::to_string(extra++) +
                std::string(kPayloadBytes * 2, 'u'),
            {"note"}, "hipaa-6y");
        if (!id.ok()) abort();
      }
      if (!primary->SyncAll().ok()) abort();
      auto probe_cursor = (*applier)->Cursor();
      if (!probe_cursor.ok()) abort();
      auto probe = source.CutBatch(*probe_cursor);
      if (!probe.ok()) abort();
      uint64_t lag = probe->lag_at_cut;  // measured, deliberately unapplied

      VaultOptions view_base = vopt;
      view_base.env = &replica_env;
      auto view = (*applier)->OpenReadView(
          view_base, "view-" + std::to_string(stage));
      if (!view.ok()) {
        fprintf(stderr, "view failed: %s\n",
                view.status().ToString().c_str());
        abort();
      }
      std::vector<double> lat;
      lat.reserve(ids.size() * 2);
      for (int pass = 0; pass < 2; pass++) {
        for (const std::string& id : ids) {
          double t0 = NowUs();
          auto read = (*view)->ReadRecord("dr", id);
          double t1 = NowUs();
          if (!read.ok()) abort();
          lat.push_back(t1 - t0);
        }
      }
      ViewPoint v;
      v.unshipped = unshipped;
      v.lag_kb = lag / 1024;
      v.p50_us = Percentile(&lat, 0.50);
      v.p99_us = Percentile(&lat, 0.99);
      printf("%10llu %10.1f %10.1f\n",
             static_cast<unsigned long long>(v.lag_kb), v.p50_us, v.p99_us);
      views.push_back(v);
    }
    printf("\nshape check: MB/s grows with window size (per-cut overhead "
           "amortizes); view p50/p99 stay flat as lag grows.\n");
  }

  WriteReplicationJson(ship, views);
  WriteHealthJson("replication", health);
  return 0;
}
