// GroupCommitter contract tests, plus the vault-level durability checks
// that give the contract teeth: N concurrent committers coalesce into
// few waves, the leader hands off cleanly, no committer is ever
// acknowledged before a wave covering it has synced, a failed wave
// fails exactly its cohort, and records acknowledged by
// CreateRecordsBatchDurable survive a power cut that drops every
// unsynced byte — on a standalone Vault (direct sync) and on
// ShardedVault, whose committer is the one that coalesces. Runs under TSan in tools/smoke.sh — the leader/
// follower handoff is precisely the code a lost-wakeup or data race
// would corrupt.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/group_commit.h"
#include "core/sharded_vault.h"
#include "core/vault.h"
#include "storage/fault_env.h"
#include "storage/mem_env.h"

namespace medvault {
namespace {

using core::GroupCommitter;
using core::Role;
using core::ShardedVault;
using core::ShardedVaultOptions;
using core::Vault;
using core::VaultOptions;

TEST(GroupCommitTest, SingleCommitRunsExactlyOneWave) {
  int syncs = 0;
  obs::MetricsRegistry metrics;
  GroupCommitter::Options options;
  options.metrics = &metrics;
  GroupCommitter committer([&] { ++syncs; return Status::OK(); }, options);
  ASSERT_TRUE(committer.Commit().ok());
  EXPECT_EQ(syncs, 1);
  GroupCommitter::Stats stats = committer.stats();
  EXPECT_EQ(stats.ops, 1u);
  EXPECT_EQ(stats.waves, 1u);
  EXPECT_EQ(stats.coalesced, 0u);
  EXPECT_EQ(metrics.GetCounter("commit.window.sharded.ops")->Value(), 1u);
  EXPECT_EQ(metrics.GetCounter("commit.window.sharded.syncs")->Value(), 1u);
}

TEST(GroupCommitTest, SyncErrorPropagatesToTheCaller) {
  obs::MetricsRegistry metrics;
  GroupCommitter::Options options;
  options.metrics = &metrics;
  GroupCommitter committer([] { return Status::IoError("no media"); },
                           options);
  EXPECT_TRUE(committer.Commit().IsIoError());
  // A failed wave poisons only its own cohort: the next commit starts a
  // fresh wave, and this one succeeds or fails on its own sync.
  int calls = 0;
  GroupCommitter flaky(
      [&] {
        return ++calls == 1 ? Status::IoError("transient") : Status::OK();
      },
      options);
  EXPECT_TRUE(flaky.Commit().IsIoError());
  EXPECT_TRUE(flaky.Commit().ok());
  EXPECT_EQ(calls, 2);
}

TEST(GroupCommitTest, WindowSleeperIsUsedForTheLingering) {
  obs::MetricsRegistry metrics;
  std::vector<uint64_t> slept;
  GroupCommitter::Options options;
  options.metrics = &metrics;
  options.window_micros = 250;
  options.sleeper = [&](uint64_t micros) { slept.push_back(micros); };
  int syncs = 0;
  GroupCommitter committer([&] { ++syncs; return Status::OK(); }, options);
  ASSERT_TRUE(committer.Commit().ok());
  ASSERT_TRUE(committer.Commit().ok());
  // Each commit led its own wave (no concurrency here), so the leader
  // lingered once per wave, for exactly the configured window.
  EXPECT_EQ(slept, (std::vector<uint64_t>{250, 250}));
  EXPECT_EQ(syncs, 2);
}

// A leader blocked inside sync_fn must not stall later arrivals
// forever: they wait, and when the wave ends one of them leads the next
// wave that covers them.
TEST(GroupCommitTest, LeaderHandoffAfterBlockedWave) {
  obs::MetricsRegistry metrics;
  std::mutex mu;
  std::condition_variable cv;
  bool release_first_wave = false;
  std::atomic<int> syncs{0};

  GroupCommitter::Options options;
  options.metrics = &metrics;
  GroupCommitter committer(
      [&] {
        if (syncs.fetch_add(1) == 0) {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return release_first_wave; });
        }
        return Status::OK();
      },
      options);

  std::thread first([&] { EXPECT_TRUE(committer.Commit().ok()); });
  // Wait until the first committer is inside its sync.
  while (syncs.load() == 0) std::this_thread::yield();

  std::thread second([&] { EXPECT_TRUE(committer.Commit().ok()); });
  std::thread third([&] { EXPECT_TRUE(committer.Commit().ok()); });

  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  {
    std::lock_guard<std::mutex> lock(mu);
    release_first_wave = true;
  }
  cv.notify_all();
  first.join();
  second.join();
  third.join();

  GroupCommitter::Stats stats = committer.stats();
  EXPECT_EQ(stats.ops, 3u);
  // The second and third arrived while wave 1 was in flight; wave 1
  // does not cover them (it began before they arrived), so exactly one
  // of them led wave 2 and the other rode it: 2 waves, 1 coalesced.
  EXPECT_EQ(stats.waves, 2u);
  EXPECT_EQ(stats.coalesced, 1u);
  EXPECT_EQ(syncs.load(), 2);
}

TEST(GroupCommitTest, FailedWaveFailsExactlyItsCohort) {
  obs::MetricsRegistry metrics;
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> entered{0};

  GroupCommitter::Options options;
  options.metrics = &metrics;
  GroupCommitter committer(
      [&] {
        int wave = entered.fetch_add(1);
        if (wave == 0) {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return release; });
          return Status::IoError("wave one dies");
        }
        return Status::OK();
      },
      options);

  std::thread leader([&] { EXPECT_TRUE(committer.Commit().IsIoError()); });
  while (entered.load() == 0) std::this_thread::yield();
  // This committer arrives during the failing wave; it is NOT covered
  // by it, so it must lead a fresh (successful) wave — the failure
  // stays confined to the cohort the failed wave actually covered.
  std::thread later([&] { EXPECT_TRUE(committer.Commit().ok()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  leader.join();
  later.join();
  EXPECT_EQ(entered.load(), 2);
}

// The coalescing claim and the durability claim, together, under real
// concurrency: N threads × M commits each. Every sync wave bumps a
// "durable epoch"; a committer records the epoch it observed *before*
// committing and asserts the epoch after Commit() returned is larger —
// i.e. some wave ran strictly after its request entered. waves < ops
// proves coalescing actually happened.
TEST(GroupCommitTest, ConcurrentCommitsCoalesceWithoutLosingDurability) {
  constexpr int kThreads = 8;
  constexpr int kCommitsPerThread = 25;

  obs::MetricsRegistry metrics;
  std::atomic<uint64_t> durable_epoch{0};
  GroupCommitter::Options options;
  options.metrics = &metrics;
  GroupCommitter committer(
      [&] {
        // Simulated sync latency widens the coalescing window; the
        // epoch bump models "everything outstanding is now on media".
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        durable_epoch.fetch_add(1);
        return Status::OK();
      },
      options);

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&] {
      for (int i = 0; i < kCommitsPerThread; i++) {
        const uint64_t before = durable_epoch.load();
        if (!committer.Commit().ok() || durable_epoch.load() <= before) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0)
      << "a commit was acknowledged before a covering wave synced";
  GroupCommitter::Stats stats = committer.stats();
  EXPECT_EQ(stats.ops, static_cast<uint64_t>(kThreads * kCommitsPerThread));
  EXPECT_EQ(stats.waves + stats.coalesced, stats.ops);
  EXPECT_LT(stats.waves, stats.ops) << "no coalescing ever happened";
  EXPECT_EQ(metrics.GetCounter("commit.window.sharded.syncs")->Value(), stats.waves);
}

// No lost wakeups: with a nonzero window and many more committers than
// waves, every committer must eventually return. A lost notify_all
// would hang this test — the ctest timeout turns that into a failure.
TEST(GroupCommitTest, NoLostWakeupsUnderWindowedLoad) {
  obs::MetricsRegistry metrics;
  GroupCommitter::Options options;
  options.metrics = &metrics;
  options.window_micros = 500;
  GroupCommitter committer([] { return Status::OK(); }, options);

  std::vector<std::thread> threads;
  for (int t = 0; t < 12; t++) {
    threads.emplace_back([&] {
      for (int i = 0; i < 10; i++) ASSERT_TRUE(committer.Commit().ok());
    });
  }
  for (auto& t : threads) t.join();
  GroupCommitter::Stats stats = committer.stats();
  EXPECT_EQ(stats.ops, 120u);
  EXPECT_LT(stats.waves, stats.ops);
}

// ---------------------------------------------------------------------------
// Vault-level durability: what CreateRecordsBatchDurable acknowledges
// must survive a power cut — on a Vault, and on a ShardedVault with and
// without a commit window.
// ---------------------------------------------------------------------------

VaultOptions TestOptions(storage::Env* env, const Clock* clock) {
  VaultOptions options;
  options.env = env;
  options.dir = "vault";
  options.clock = clock;
  options.master_key = std::string(32, 'M');
  options.entropy = "group-commit-entropy";
  options.signer_height = 4;
  return options;
}

ShardedVaultOptions ShardedTestOptions(storage::Env* env, const Clock* clock,
                                       uint64_t window_micros) {
  ShardedVaultOptions options;
  options.env = env;
  options.dir = "sharded";
  options.clock = clock;
  options.master_key = std::string(32, 'M');
  options.entropy = "group-commit-entropy";
  options.num_shards = 2;
  options.signer_height = 4;
  options.commit_window_micros = window_micros;
  return options;
}

// Registers an admin, a physician "dr" and a patient "p" in their care.
template <typename V>
void SetUpCare(V* vault) {
  ASSERT_TRUE(
      vault->RegisterPrincipal("boot", {"admin", Role::kAdmin, "A"}).ok());
  ASSERT_TRUE(
      vault->RegisterPrincipal("admin", {"dr", Role::kPhysician, "D"}).ok());
  ASSERT_TRUE(
      vault->RegisterPrincipal("admin", {"p", Role::kPatient, "P"}).ok());
  ASSERT_TRUE(vault->AssignCare("admin", "dr", "p").ok());
  ASSERT_TRUE(vault->SyncAll().ok());
}

// `open` opens (or reopens) the vault under test on `env`.
template <typename Open>
void RunDurableBatchCrashCheck(storage::MemEnv* env, const Open& open) {
  env->SetCrashTrackingEnabled(true);
  std::vector<std::string> acked;
  {
    auto opened = open();
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    auto* vault = opened->get();
    SetUpCare(vault);

    // Two concurrent durable batches: both acked sets must survive the
    // cut no matter how their waves coalesced.
    std::mutex mu;
    std::vector<std::thread> writers;
    for (int t = 0; t < 2; t++) {
      writers.emplace_back([&, t] {
        auto ids = vault->CreateRecordsBatchDurable(
            "dr",
            {{"p", "text/plain", "note " + std::to_string(t) + "a", {"w"},
              "hipaa-6y"},
             {"p", "text/plain", "note " + std::to_string(t) + "b", {"w"},
              "hipaa-6y"}});
        ASSERT_TRUE(ids.ok()) << ids.status().ToString();
        std::lock_guard<std::mutex> lock(mu);
        acked.insert(acked.end(), ids->begin(), ids->end());
      });
    }
    for (auto& w : writers) w.join();
    ASSERT_EQ(acked.size(), 4u);
    // Power cut: the vault object is destroyed with the plug pulled —
    // nothing after the last acked wave may be assumed.
  }
  env->CrashAndRecover(storage::CrashMode::kDropUnsynced);

  auto reopened = open();
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto* vault = reopened->get();
  EXPECT_TRUE(vault->VerifyAudit().ok());
  for (const auto& id : acked) {
    auto read = vault->ReadRecord("dr", id);
    EXPECT_TRUE(read.ok())
        << "durably acked record lost in the cut: " << id << ": "
        << read.status().ToString();
  }
}

TEST(GroupCommitVaultTest, AckedDurableBatchSurvivesPowerCutNoWindow) {
  storage::MemEnv env;
  ManualClock clock(1000000);
  RunDurableBatchCrashCheck(
      &env, [&] { return Vault::Open(TestOptions(&env, &clock)); });
}

TEST(GroupCommitVaultTest, AckedDurableBatchSurvivesPowerCutWithWindow) {
  storage::MemEnv env;
  ManualClock clock(1000000);
  RunDurableBatchCrashCheck(&env, [&] {
    return ShardedVault::Open(
        ShardedTestOptions(&env, &clock, /*window_micros=*/300));
  });
}

TEST(GroupCommitVaultTest, WindowedIngestCoalescesSyncWaves) {
  storage::MemEnv env;
  ManualClock clock(1000000);
  obs::MetricsRegistry metrics;
  ShardedVaultOptions options =
      ShardedTestOptions(&env, &clock, /*window_micros=*/400);
  options.metrics = &metrics;
  auto opened = ShardedVault::Open(options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ShardedVault* vault = opened->get();
  SetUpCare(vault);
  const uint64_t setup_ops =
      metrics.GetCounter("commit.window.sharded.ops")->Value();
  const uint64_t setup_syncs =
      metrics.GetCounter("commit.window.sharded.syncs")->Value();

  constexpr int kWriters = 6;
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; t++) {
    writers.emplace_back([&, t] {
      auto ids = vault->CreateRecordsBatchDurable(
          "dr", {{"p", "text/plain", "coalesce " + std::to_string(t), {"c"},
                  "hipaa-6y"}});
      ASSERT_TRUE(ids.ok()) << ids.status().ToString();
    });
  }
  for (auto& w : writers) w.join();

  const uint64_t ops =
      metrics.GetCounter("commit.window.sharded.ops")->Value() - setup_ops;
  const uint64_t syncs =
      metrics.GetCounter("commit.window.sharded.syncs")->Value() -
      setup_syncs;
  EXPECT_EQ(ops, static_cast<uint64_t>(kWriters));
  // With a 400us window and 6 concurrent writers, at least some must
  // have shared a wave. (Exact counts are scheduling-dependent.)
  EXPECT_LT(syncs, static_cast<uint64_t>(kWriters))
      << "every durable batch paid its own fsync — no group commit";
}

}  // namespace
}  // namespace medvault
