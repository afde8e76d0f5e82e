// Env tests run the same suite against MemEnv and PosixEnv (typed via a
// parameterized fixture), plus MemEnv/Fault-specific cases, and the
// batch I/O contract: the completion-based SubmitWrites/SubmitSyncs API
// on the default (inline) backend, and every decorator that must pass
// batches through with its own semantics intact — InstrumentedEnv
// (distinct batched counters), RetryEnv (transient faults absorbed
// inside a wave), FaultInjectionEnv (a power cut lands *between*
// batched completions, never inside one).

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "storage/env.h"
#include "storage/fault_env.h"
#include "storage/instrumented_env.h"
#include "storage/mem_env.h"
#include "storage/posix_env.h"
#include "storage/retry_env.h"

namespace medvault::storage {
namespace {

/// Provides an Env and a scratch directory for either backend.
class EnvProvider {
 public:
  virtual ~EnvProvider() = default;
  virtual Env* env() = 0;
  virtual std::string dir() = 0;
};

class MemEnvProvider : public EnvProvider {
 public:
  Env* env() override { return &env_; }
  std::string dir() override { return "scratch"; }

 private:
  MemEnv env_;
};

class PosixEnvProvider : public EnvProvider {
 public:
  PosixEnvProvider() {
    char tmpl[] = "/tmp/medvault-env-test-XXXXXX";
    dir_ = mkdtemp(tmpl);
  }
  ~PosixEnvProvider() override {
    std::string cmd = "rm -rf " + dir_;
    [[maybe_unused]] int rc = system(cmd.c_str());
  }
  Env* env() override { return PosixEnv::Default(); }
  std::string dir() override { return dir_; }

 private:
  std::string dir_;
};

enum class Backend { kMem, kPosix };

class EnvTest : public ::testing::TestWithParam<Backend> {
 protected:
  void SetUp() override {
    if (GetParam() == Backend::kMem) {
      provider_ = std::make_unique<MemEnvProvider>();
    } else {
      provider_ = std::make_unique<PosixEnvProvider>();
    }
    env_ = provider_->env();
    dir_ = provider_->dir();
    ASSERT_TRUE(env_->CreateDirIfMissing(dir_).ok());
  }

  std::string Path(const std::string& name) { return dir_ + "/" + name; }

  std::unique_ptr<EnvProvider> provider_;
  Env* env_ = nullptr;
  std::string dir_;
};

TEST_P(EnvTest, WriteReadRoundTrip) {
  ASSERT_TRUE(WriteStringToFile(env_, "hello", Path("f"), true).ok());
  std::string data;
  ASSERT_TRUE(ReadFileToString(env_, Path("f"), &data).ok());
  EXPECT_EQ(data, "hello");
}

TEST_P(EnvTest, MissingFileIsNotFound) {
  std::string data;
  EXPECT_TRUE(ReadFileToString(env_, Path("nope"), &data).IsNotFound());
  std::unique_ptr<SequentialFile> f;
  EXPECT_TRUE(env_->NewSequentialFile(Path("nope"), &f).IsNotFound());
}

TEST_P(EnvTest, FileExists) {
  EXPECT_FALSE(env_->FileExists(Path("f")));
  ASSERT_TRUE(WriteStringToFile(env_, "x", Path("f"), false).ok());
  EXPECT_TRUE(env_->FileExists(Path("f")));
}

TEST_P(EnvTest, AppendableFileAppends) {
  std::unique_ptr<WritableFile> f;
  ASSERT_TRUE(env_->NewAppendableFile(Path("log"), &f).ok());
  ASSERT_TRUE(f->Append("one").ok());
  ASSERT_TRUE(f->Close().ok());
  ASSERT_TRUE(env_->NewAppendableFile(Path("log"), &f).ok());
  ASSERT_TRUE(f->Append("two").ok());
  ASSERT_TRUE(f->Close().ok());
  std::string data;
  ASSERT_TRUE(ReadFileToString(env_, Path("log"), &data).ok());
  EXPECT_EQ(data, "onetwo");
}

TEST_P(EnvTest, WritableFileTruncates) {
  ASSERT_TRUE(WriteStringToFile(env_, "long old contents", Path("f"),
                                false)
                  .ok());
  ASSERT_TRUE(WriteStringToFile(env_, "new", Path("f"), false).ok());
  std::string data;
  ASSERT_TRUE(ReadFileToString(env_, Path("f"), &data).ok());
  EXPECT_EQ(data, "new");
}

TEST_P(EnvTest, RandomAccessReads) {
  ASSERT_TRUE(
      WriteStringToFile(env_, "0123456789", Path("f"), false).ok());
  std::unique_ptr<RandomAccessFile> f;
  ASSERT_TRUE(env_->NewRandomAccessFile(Path("f"), &f).ok());
  std::string out;
  ASSERT_TRUE(f->Read(3, 4, &out).ok());
  EXPECT_EQ(out, "3456");
  ASSERT_TRUE(f->Read(8, 10, &out).ok());
  EXPECT_EQ(out, "89");  // short read at EOF
  ASSERT_TRUE(f->Read(100, 5, &out).ok());
  EXPECT_TRUE(out.empty());
}

TEST_P(EnvTest, SequentialReadAndSkip) {
  ASSERT_TRUE(
      WriteStringToFile(env_, "abcdefghij", Path("f"), false).ok());
  std::unique_ptr<SequentialFile> f;
  ASSERT_TRUE(env_->NewSequentialFile(Path("f"), &f).ok());
  std::string out;
  ASSERT_TRUE(f->Read(3, &out).ok());
  EXPECT_EQ(out, "abc");
  ASSERT_TRUE(f->Skip(2).ok());
  ASSERT_TRUE(f->Read(3, &out).ok());
  EXPECT_EQ(out, "fgh");
}

TEST_P(EnvTest, RandomRWFile) {
  std::unique_ptr<RandomRWFile> f;
  ASSERT_TRUE(env_->NewRandomRWFile(Path("pages"), &f).ok());
  ASSERT_TRUE(f->WriteAt(0, "AAAA").ok());
  ASSERT_TRUE(f->WriteAt(8, "BBBB").ok());  // gap is zero-filled
  ASSERT_TRUE(f->WriteAt(2, "xy").ok());    // overwrite
  std::string out;
  ASSERT_TRUE(f->ReadAt(0, 12, &out).ok());
  ASSERT_EQ(out.size(), 12u);
  EXPECT_EQ(out.substr(0, 4), "AAxy");
  EXPECT_EQ(out.substr(8, 4), "BBBB");
}

TEST_P(EnvTest, GetFileSize) {
  ASSERT_TRUE(WriteStringToFile(env_, "12345", Path("f"), false).ok());
  uint64_t size = 0;
  ASSERT_TRUE(env_->GetFileSize(Path("f"), &size).ok());
  EXPECT_EQ(size, 5u);
  EXPECT_TRUE(env_->GetFileSize(Path("nope"), &size).IsNotFound());
}

TEST_P(EnvTest, RenameFile) {
  ASSERT_TRUE(WriteStringToFile(env_, "data", Path("a"), false).ok());
  ASSERT_TRUE(env_->RenameFile(Path("a"), Path("b")).ok());
  EXPECT_FALSE(env_->FileExists(Path("a")));
  std::string out;
  ASSERT_TRUE(ReadFileToString(env_, Path("b"), &out).ok());
  EXPECT_EQ(out, "data");
  EXPECT_TRUE(env_->RenameFile(Path("nope"), Path("c")).IsNotFound());
}

TEST_P(EnvTest, RemoveFile) {
  ASSERT_TRUE(WriteStringToFile(env_, "x", Path("f"), false).ok());
  ASSERT_TRUE(env_->RemoveFile(Path("f")).ok());
  EXPECT_FALSE(env_->FileExists(Path("f")));
  EXPECT_TRUE(env_->RemoveFile(Path("f")).IsNotFound());
}

TEST_P(EnvTest, GetChildrenListsDirectFiles) {
  ASSERT_TRUE(WriteStringToFile(env_, "1", Path("one"), false).ok());
  ASSERT_TRUE(WriteStringToFile(env_, "2", Path("two"), false).ok());
  std::vector<std::string> children;
  ASSERT_TRUE(env_->GetChildren(dir_, &children).ok());
  EXPECT_NE(std::find(children.begin(), children.end(), "one"),
            children.end());
  EXPECT_NE(std::find(children.begin(), children.end(), "two"),
            children.end());
}

TEST_P(EnvTest, UnsafeOverwriteMutatesBytes) {
  ASSERT_TRUE(WriteStringToFile(env_, "immutable?", Path("f"), false).ok());
  ASSERT_TRUE(env_->UnsafeOverwrite(Path("f"), 0, "IMMUTABLE!").ok());
  std::string out;
  ASSERT_TRUE(ReadFileToString(env_, Path("f"), &out).ok());
  EXPECT_EQ(out, "IMMUTABLE!");
}

TEST_P(EnvTest, UnsafeOverwriteCannotExtend) {
  ASSERT_TRUE(WriteStringToFile(env_, "short", Path("f"), false).ok());
  EXPECT_TRUE(
      env_->UnsafeOverwrite(Path("f"), 3, "too long").IsInvalidArgument());
}

TEST_P(EnvTest, UnsafeTruncateShrinks) {
  ASSERT_TRUE(WriteStringToFile(env_, "0123456789", Path("f"), false).ok());
  ASSERT_TRUE(env_->UnsafeTruncate(Path("f"), 4).ok());
  std::string out;
  ASSERT_TRUE(ReadFileToString(env_, Path("f"), &out).ok());
  EXPECT_EQ(out, "0123");
}

INSTANTIATE_TEST_SUITE_P(Backends, EnvTest,
                         ::testing::Values(Backend::kMem, Backend::kPosix),
                         [](const auto& info) {
                           return info.param == Backend::kMem ? "Mem"
                                                              : "Posix";
                         });

// ---- MemEnv-specific ---------------------------------------------------------

TEST(MemEnvTest, TotalBytesTracksContents) {
  MemEnv env;
  EXPECT_EQ(env.TotalBytes(), 0u);
  ASSERT_TRUE(WriteStringToFile(&env, "12345", "a", false).ok());
  ASSERT_TRUE(WriteStringToFile(&env, "123", "b", false).ok());
  EXPECT_EQ(env.TotalBytes(), 8u);
}

TEST(MemEnvTest, ReadersSeeLiveAppends) {
  MemEnv env;
  std::unique_ptr<WritableFile> w;
  ASSERT_TRUE(env.NewAppendableFile("f", &w).ok());
  ASSERT_TRUE(w->Append("first").ok());
  std::unique_ptr<RandomAccessFile> r;
  ASSERT_TRUE(env.NewRandomAccessFile("f", &r).ok());
  ASSERT_TRUE(w->Append("second").ok());
  std::string out;
  ASSERT_TRUE(r->Read(0, 100, &out).ok());
  EXPECT_EQ(out, "firstsecond");
}

TEST(MemEnvTest, CrashDropsUnsyncedTail) {
  MemEnv env;
  env.SetCrashTrackingEnabled(true);
  std::unique_ptr<WritableFile> w;
  ASSERT_TRUE(env.NewWritableFile("f", &w).ok());
  ASSERT_TRUE(w->Append("durable").ok());
  ASSERT_TRUE(w->Sync().ok());
  ASSERT_TRUE(w->Append("volatile").ok());

  env.CrashAndRecover(CrashMode::kDropUnsynced);
  std::string out;
  ASSERT_TRUE(ReadFileToString(&env, "f", &out).ok());
  EXPECT_EQ(out, "durable");
}

TEST(MemEnvTest, CrashKeepPartialKeepsPrefixOfUnsyncedTail) {
  MemEnv env;
  env.SetCrashTrackingEnabled(true);
  std::unique_ptr<WritableFile> w;
  ASSERT_TRUE(env.NewWritableFile("f", &w).ok());
  ASSERT_TRUE(w->Append("durable-").ok());
  ASSERT_TRUE(w->Sync().ok());
  ASSERT_TRUE(w->Append("unsynced-tail").ok());

  env.CrashAndRecover(CrashMode::kKeepPartial, /*seed=*/7);
  std::string out;
  ASSERT_TRUE(ReadFileToString(&env, "f", &out).ok());
  // The synced prefix always survives; some seed-determined prefix of
  // the unsynced tail may.
  ASSERT_GE(out.size(), std::string("durable-").size());
  EXPECT_EQ(out.substr(0, 8), "durable-");
  EXPECT_LE(out.size(), std::string("durable-unsynced-tail").size());
  EXPECT_EQ(out, std::string("durable-unsynced-tail").substr(0, out.size()));
}

TEST(MemEnvTest, CrashTrackingEnableTreatsExistingBytesAsDurable) {
  MemEnv env;
  ASSERT_TRUE(WriteStringToFile(&env, "already-there", "f", false).ok());
  env.SetCrashTrackingEnabled(true);
  env.CrashAndRecover(CrashMode::kDropUnsynced);
  std::string out;
  ASSERT_TRUE(ReadFileToString(&env, "f", &out).ok());
  EXPECT_EQ(out, "already-there");
}

TEST(MemEnvTest, SanctionedTruncateIsDurable) {
  // Env::Truncate models recovery cutting a torn tail; the cut must not
  // resurrect after a crash.
  MemEnv env;
  env.SetCrashTrackingEnabled(true);
  ASSERT_TRUE(WriteStringToFile(&env, "0123456789", "f", true).ok());
  ASSERT_TRUE(env.Truncate("f", 4).ok());
  env.CrashAndRecover(CrashMode::kDropUnsynced);
  std::string out;
  ASSERT_TRUE(ReadFileToString(&env, "f", &out).ok());
  EXPECT_EQ(out, "0123");
  // Refuses to extend (that would fabricate bytes).
  EXPECT_FALSE(env.Truncate("f", 100).ok());
}

TEST(MemEnvTest, UnsafeTamperingSurvivesCrash) {
  // Adversary writes go to the platters: tampered bytes must still be
  // there (detectable!) after power loss, not be undone by it.
  MemEnv env;
  env.SetCrashTrackingEnabled(true);
  ASSERT_TRUE(WriteStringToFile(&env, "authentic-bytes", "f", true).ok());
  ASSERT_TRUE(env.UnsafeOverwrite("f", 0, "TAMPERED!").ok());
  env.CrashAndRecover(CrashMode::kDropUnsynced);
  std::string out;
  ASSERT_TRUE(ReadFileToString(&env, "f", &out).ok());
  EXPECT_EQ(out, "TAMPERED!-bytes");
}

// ---- FaultInjectionEnv ---------------------------------------------------------

TEST(FaultEnvTest, PassesThroughWhenHealthy) {
  MemEnv base;
  FaultInjectionEnv env(&base);
  ASSERT_TRUE(WriteStringToFile(&env, "data", "f", true).ok());
  std::string out;
  ASSERT_TRUE(ReadFileToString(&env, "f", &out).ok());
  EXPECT_EQ(out, "data");
  EXPECT_GT(env.writes(), 0u);
  EXPECT_GT(env.reads(), 0u);
  EXPECT_GT(env.syncs(), 0u);
}

TEST(FaultEnvTest, FailWritesInjectsIoError) {
  MemEnv base;
  FaultInjectionEnv env(&base);
  env.FailWrites(true);
  EXPECT_TRUE(WriteStringToFile(&env, "data", "f", false).IsIoError());
  env.FailWrites(false);
  EXPECT_TRUE(WriteStringToFile(&env, "data", "f", false).ok());
}

TEST(FaultEnvTest, FailAfterNWrites) {
  MemEnv base;
  FaultInjectionEnv env(&base);
  env.FailAfterWrites(2);
  std::unique_ptr<WritableFile> f;
  ASSERT_TRUE(env.NewWritableFile("f", &f).ok());
  EXPECT_TRUE(f->Append("1").ok());
  EXPECT_TRUE(f->Append("2").ok());
  EXPECT_TRUE(f->Append("3").IsIoError());
  EXPECT_TRUE(f->Append("4").IsIoError());
}

TEST(FaultEnvTest, RandomRWWritesAlsoFail) {
  MemEnv base;
  FaultInjectionEnv env(&base);
  std::unique_ptr<RandomRWFile> f;
  ASSERT_TRUE(env.NewRandomRWFile("f", &f).ok());
  ASSERT_TRUE(f->WriteAt(0, "ok").ok());
  env.FailWrites(true);
  EXPECT_TRUE(f->WriteAt(0, "no").IsIoError());
}


std::string ReadAll(Env* env, const std::string& fname) {
  std::string data;
  Status s = ReadFileToString(env, fname, &data);
  EXPECT_TRUE(s.ok()) << fname << ": " << s.ToString();
  return data;
}

// ---------------------------------------------------------------------------
// BatchCompletion
// ---------------------------------------------------------------------------

TEST(BatchCompletionTest, AggregateReturnsFirstErrorInSlotOrder) {
  BatchCompletion done(3);
  done.Fulfill(2, Status::Corruption("slot two"));
  done.Fulfill(0, Status::OK());
  done.Fulfill(1, Status::IoError("slot one"));
  done.Wait();
  // Slot order, not fulfillment order: slot 1's error wins.
  EXPECT_TRUE(done.Aggregate().IsIoError()) << done.Aggregate().ToString();
  EXPECT_TRUE(done.status(0).ok());
  EXPECT_TRUE(done.status(1).IsIoError());
  EXPECT_TRUE(done.status(2).IsCorruption());
}

TEST(BatchCompletionTest, WaitBlocksUntilEverySlotFulfilled) {
  BatchCompletion done(2);
  std::atomic<bool> finished{false};
  std::thread waiter([&] {
    done.Wait();
    finished.store(true);
  });
  done.Fulfill(0, Status::OK());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(finished.load());
  done.Fulfill(1, Status::OK());
  waiter.join();
  EXPECT_TRUE(finished.load());
  EXPECT_TRUE(done.Aggregate().ok());
}

// ---------------------------------------------------------------------------
// Default (inline, sequential) backend — every Env gets this for free.
// ---------------------------------------------------------------------------

TEST(DefaultBatchTest, SubmitWritesAppendsInSlotOrder) {
  MemEnv env;
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(env.NewWritableFile("f", &file).ok());

  std::vector<WriteRequest> requests(3);
  requests[0] = {file.get(), "one-"};
  requests[1] = {file.get(), "two-"};
  requests[2] = {file.get(), "three"};
  BatchCompletion done(requests.size());
  env.SubmitWrites(requests.data(), requests.size(), &done);
  done.Wait();
  ASSERT_TRUE(done.Aggregate().ok());
  ASSERT_TRUE(file->Close().ok());

  EXPECT_EQ(ReadAll(&env, "f"), "one-two-three");
}

TEST(DefaultBatchTest, SyncFilesBatchSkipsNullEntriesAndSyncs) {
  MemEnv env;
  env.SetCrashTrackingEnabled(true);
  std::unique_ptr<WritableFile> a, b;
  ASSERT_TRUE(env.NewWritableFile("a", &a).ok());
  ASSERT_TRUE(env.NewWritableFile("b", &b).ok());
  ASSERT_TRUE(a->Append(Slice("alpha")).ok());
  ASSERT_TRUE(b->Append(Slice("beta")).ok());

  std::vector<WritableFile*> wave = {a.get(), nullptr, b.get(), nullptr};
  ASSERT_TRUE(SyncFilesBatch(&env, wave).ok());

  // Both files survive a power cut that drops unsynced bytes — the
  // batch really was a durability barrier for each non-null entry.
  env.CrashAndRecover(CrashMode::kDropUnsynced);
  EXPECT_EQ(ReadAll(&env, "a"), "alpha");
  EXPECT_EQ(ReadAll(&env, "b"), "beta");
}

TEST(DefaultBatchTest, BatchErrorsSurfaceInTheRightSlot) {
  MemEnv env;
  std::unique_ptr<WritableFile> good, also_good;
  ASSERT_TRUE(env.NewWritableFile("good", &good).ok());
  ASSERT_TRUE(env.NewWritableFile("also-good", &also_good).ok());
  ASSERT_TRUE(good->Append(Slice("fine")).ok());
  class FailingFile : public WritableFile {
   public:
    Status Append(const Slice&) override { return Status::OK(); }
    Status Flush() override { return Status::OK(); }
    Status Sync() override { return Status::IoError("dead platter"); }
    Status Close() override { return Status::OK(); }
  } failing;

  // A failed barrier fails only its own slot; the slots after it still
  // run and complete.
  WritableFile* wave[3] = {good.get(), &failing, also_good.get()};
  BatchCompletion done(3);
  env.SubmitSyncs(wave, 3, &done);
  done.Wait();
  EXPECT_TRUE(done.status(0).ok());
  EXPECT_TRUE(done.status(1).IsIoError());
  EXPECT_TRUE(done.status(2).ok());
  EXPECT_TRUE(done.Aggregate().IsIoError());
}

// ---------------------------------------------------------------------------
// Decorator pass-through
// ---------------------------------------------------------------------------

TEST(InstrumentedBatchTest, BatchedSyncsCountedDistinctlyNotDoubly) {
  MemEnv base;
  IoStats stats;
  InstrumentedEnv env(&base, &stats);
  std::unique_ptr<WritableFile> a, b;
  ASSERT_TRUE(env.NewWritableFile("a", &a).ok());
  ASSERT_TRUE(env.NewWritableFile("b", &b).ok());
  ASSERT_TRUE(a->Append(Slice("a")).ok());
  ASSERT_TRUE(b->Append(Slice("b")).ok());

  std::vector<WritableFile*> wave = {a.get(), b.get()};
  ASSERT_TRUE(SyncFilesBatch(&env, wave).ok());

  IoStatsSnapshot snap = stats.TakeSnapshot();
  // Each barrier is one sync (the file wrappers count per-op as usual)
  // AND one batched sync (the batch API tallies the submission) — the
  // two series stay separable without double-counting either.
  EXPECT_EQ(snap.syncs, 2u);
  EXPECT_EQ(snap.batched_syncs, 2u);

  std::vector<WriteRequest> requests(2);
  requests[0] = {a.get(), "more"};
  requests[1] = {b.get(), "more"};
  BatchCompletion done(2);
  env.SubmitWrites(requests.data(), 2, &done);
  done.Wait();
  ASSERT_TRUE(done.Aggregate().ok());
  snap = stats.TakeSnapshot();
  EXPECT_EQ(snap.batched_writes, 2u);
  EXPECT_EQ(snap.writes, 4u);  // 2 setup appends + 2 batched appends
}

TEST(RetryBatchTest, TransientSyncFaultInsideWaveIsAbsorbed) {
  MemEnv mem;
  FaultInjectionEnv fault(&mem);
  obs::MetricsRegistry metrics;
  RetryOptions retry_options;
  retry_options.sleeper = [](uint64_t) {};  // instant retries
  RetryEnv env(&fault, retry_options, &metrics);

  std::unique_ptr<WritableFile> a, b;
  ASSERT_TRUE(env.NewWritableFile("a", &a).ok());
  ASSERT_TRUE(env.NewWritableFile("b", &b).ok());
  ASSERT_TRUE(a->Append(Slice("a")).ok());
  ASSERT_TRUE(b->Append(Slice("b")).ok());

  // One transient sync fault somewhere in the wave: the retrying file
  // wrapper absorbs it, so the batch as a whole still succeeds.
  fault.FailNextSyncs(1);
  std::vector<WritableFile*> wave = {a.get(), b.get()};
  ASSERT_TRUE(SyncFilesBatch(&env, wave).ok());
  EXPECT_EQ(metrics.GetCounter("env.retry.syncs")->Value(), 1u);
  EXPECT_EQ(metrics.GetCounter("env.retry.exhausted")->Value(), 0u);
}

TEST(FaultBatchTest, PowerCutLandsBetweenCoalescedCompletions) {
  // The batch API on FaultInjectionEnv must keep every coalesced
  // completion an individually numbered crash boundary: a planned
  // crash mid-batch persists the slots before the boundary and drops
  // the slots after it — never a torn half-batch.
  MemEnv mem;
  mem.SetCrashTrackingEnabled(true);
  FaultInjectionEnv fault(&mem);

  std::unique_ptr<WritableFile> a, b;
  ASSERT_TRUE(fault.NewWritableFile("a", &a).ok());
  ASSERT_TRUE(fault.NewWritableFile("b", &b).ok());
  ASSERT_TRUE(a->Append(Slice("alpha")).ok());  // boundary 0
  ASSERT_TRUE(b->Append(Slice("beta")).ok());   // boundary 1

  // Batched sync of both: boundaries 2 (a) and 3 (b). Cut power at 3 —
  // a's barrier completed, b's never did.
  fault.PlanCrash(3);
  std::vector<WritableFile*> wave = {a.get(), b.get()};
  BatchCompletion done(2);
  fault.SubmitSyncs(wave.data(), 2, &done);
  done.Wait();
  EXPECT_TRUE(done.status(0).ok());
  EXPECT_TRUE(done.status(1).IsIoError());
  EXPECT_TRUE(fault.crashed());

  mem.CrashAndRecover(CrashMode::kDropUnsynced);
  EXPECT_EQ(ReadAll(&mem, "a"), "alpha");
  std::string b_data;
  Status read_b = ReadFileToString(&mem, "b", &b_data);
  EXPECT_TRUE(!read_b.ok() || b_data.empty())
      << "unsynced slot survived the cut: \"" << b_data << "\"";
}

// ---------------------------------------------------------------------------
// File descriptors
// ---------------------------------------------------------------------------

TEST(FileDescriptorTest, PosixExposesMemAndDecoratorsHide) {
  char tmpl[] = "/tmp/medvault-env-fd-XXXXXX";
  std::string dir = mkdtemp(tmpl);

  std::unique_ptr<WritableFile> posix_file;
  ASSERT_TRUE(
      PosixEnv::Default()->NewWritableFile(dir + "/f", &posix_file).ok());
  EXPECT_GE(posix_file->FileDescriptor(), 0);
  ASSERT_TRUE(posix_file->Close().ok());
  ASSERT_TRUE(PosixEnv::Default()->RemoveFile(dir + "/f").ok());
  rmdir(dir.c_str());

  MemEnv mem;
  std::unique_ptr<WritableFile> mem_file;
  ASSERT_TRUE(mem.NewWritableFile("m", &mem_file).ok());
  EXPECT_EQ(mem_file->FileDescriptor(), -1);

  // Decorators deliberately do not forward the descriptor: a wrapped
  // file must take the portable path so interposition is preserved.
  IoStats stats;
  InstrumentedEnv instrumented(PosixEnv::Default(), &stats);
  char tmpl2[] = "/tmp/medvault-env-fd-XXXXXX";
  std::string dir2 = mkdtemp(tmpl2);
  std::unique_ptr<WritableFile> wrapped;
  ASSERT_TRUE(instrumented.NewWritableFile(dir2 + "/g", &wrapped).ok());
  EXPECT_EQ(wrapped->FileDescriptor(), -1);
  ASSERT_TRUE(wrapped->Close().ok());
  ASSERT_TRUE(instrumented.RemoveFile(dir2 + "/g").ok());
  rmdir(dir2.c_str());
}

}  // namespace
}  // namespace medvault::storage
