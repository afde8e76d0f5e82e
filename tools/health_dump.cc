// health_dump — print an obs::HealthReport JSON snapshot for a vault.
//
//   health_dump --demo [dir]
//       Builds a throwaway PosixEnv vault (under `dir`, default
//       ./health-demo-vault), runs a few representative operations so
//       every section of the report is populated, prints the report to
//       stdout, and removes nothing (rerun-safe: uses a fresh subdir
//       per invocation only if the caller passes one). Uses a
//       ManualClock so `generated_at` and retention math are
//       deterministic — this mode doubles as the ctest-level smoke for
//       the tools-invocable health path.
//
//   health_dump <vault-dir>
//       Opens an existing on-disk vault read-only-ish (Open replays the
//       state log but performs no workload) and prints its health. The
//       shard count comes from the vault's shards.meta (1 for a fresh
//       directory); the master key / entropy come from
//       MEDVAULT_MASTER_KEY / MEDVAULT_ENTROPY, same convention as
//       medvault_cli (the key is padded/truncated to 32 bytes;
//       demo-grade custody only). A plain pre-sharding vault directory
//       is refused rather than opened as a new, empty vault.
//
// All vault I/O in both modes goes through an InstrumentedEnv, so the
// env_io section reflects the physical reads/writes the dump itself
// (and, in demo mode, the workload) performed.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/clock.h"
#include "core/sharded_vault.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "storage/instrumented_env.h"
#include "storage/posix_env.h"

namespace {

using medvault::Status;
using medvault::core::Role;
using medvault::core::ShardedVault;
using medvault::core::ShardedVaultOptions;
using medvault::core::ShardRouter;

std::string EnvOr(const char* name, const std::string& fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::string(v) : fallback;
}

int Fail(const Status& status) {
  fprintf(stderr, "health_dump: %s\n", status.ToString().c_str());
  return 1;
}

int DumpVault(ShardedVault* vault, const medvault::storage::IoStats* io) {
  medvault::obs::HealthReport report =
      medvault::obs::CollectHealth(*vault, io);
  printf("%s\n", report.Dump().c_str());
  return 0;
}

// Demo mode: a self-contained vault with enough workload that the ops,
// cache, env_io, shards, and last_scrub sections are all non-trivial.
// Every file under the demo dir is removed first so reruns start from
// the same state instead of replaying and growing an old vault.
void WipeFiles(medvault::storage::Env* env, const std::string& dir) {
  std::vector<std::string> children;
  if (!env->GetChildren(dir, &children).ok()) return;
  for (const std::string& child : children) {
    WipeFiles(env, dir + "/" + child);
    (void)env->RemoveFile(dir + "/" + child);
  }
}

int RunDemo(const std::string& dir) {
  medvault::obs::MetricsRegistry registry;
  medvault::storage::IoStats io;
  medvault::storage::InstrumentedEnv env(
      medvault::storage::PosixEnv::Default(), &io);
  medvault::ManualClock clock(1700000000000000);  // fixed epoch, micros
  WipeFiles(&env, dir);

  ShardedVaultOptions options;
  options.env = &env;
  options.dir = dir;
  options.clock = &clock;
  options.master_key = std::string(32, 'K');
  options.entropy = "health-dump-demo-entropy";
  options.signer_height = 8;
  options.cache_bytes = 1u << 20;
  options.metrics = &registry;

  auto opened = ShardedVault::Open(options);
  if (!opened.ok()) return Fail(opened.status());
  ShardedVault* vault = opened->get();

  (void)vault->RegisterPrincipal("boot", {"admin", Role::kAdmin, "Admin"});
  (void)vault->RegisterPrincipal("admin", {"dr", Role::kPhysician, "Dr"});
  (void)vault->RegisterPrincipal("admin", {"pat", Role::kPatient, "Pat"});
  (void)vault->AssignCare("admin", "dr", "pat");

  auto id = vault->CreateRecord("dr", "pat", "text/plain",
                                "demo note: routine checkup, no findings",
                                {"checkup"}, "hipaa-6y");
  if (!id.ok()) return Fail(id.status());
  // Two reads: the first misses the cache and populates it, the second
  // hits — both paths show up in the cache stats.
  if (auto r = vault->ReadRecord("dr", *id); !r.ok()) return Fail(r.status());
  if (auto r = vault->ReadRecord("dr", *id); !r.ok()) return Fail(r.status());
  if (auto s = vault->SearchKeyword("dr", "checkup"); !s.ok()) {
    return Fail(s.status());
  }
  if (Status s = vault->VerifyAudit(); !s.ok()) return Fail(s);
  if (Status s = vault->SyncAll(); !s.ok()) return Fail(s);
  // Media scrub so the report carries a last_scrub section (and the
  // vault.scrub.* counters); its per-file findings go to stderr, the
  // JSON report to stdout.
  auto scrub = vault->ScrubShard(0);
  if (!scrub.ok()) return Fail(scrub.status());
  fprintf(stderr, "%s\n", scrub->Summary().c_str());

  return DumpVault(vault, &io);
}

int OpenExisting(const std::string& dir) {
  medvault::storage::IoStats io;
  medvault::storage::InstrumentedEnv env(
      medvault::storage::PosixEnv::Default(), &io);
  medvault::SystemClock clock;
  medvault::obs::MetricsRegistry registry;

  std::string master = EnvOr("MEDVAULT_MASTER_KEY", "demo-master-key");
  master.resize(32, '#');

  ShardedVaultOptions options;
  options.env = &env;
  options.dir = dir;
  options.clock = &clock;
  options.master_key = master;
  options.entropy = EnvOr("MEDVAULT_ENTROPY", "demo-entropy:" + dir);
  options.num_shards = ShardRouter::ReadManifest(&env, dir).ValueOr(1);
  options.signer_height = 8;
  options.metrics = &registry;

  auto opened = ShardedVault::Open(options);
  if (!opened.ok()) return Fail(opened.status());
  return DumpVault(opened->get(), &io);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::string(argv[1]) == "--demo") {
    return RunDemo(argc >= 3 ? argv[2] : "health-demo-vault");
  }
  if (argc == 2) return OpenExisting(argv[1]);
  fprintf(stderr, "usage: health_dump --demo [dir] | health_dump <vault-dir>\n");
  return 2;
}
