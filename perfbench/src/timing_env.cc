#include "timing_env.h"

#include <chrono>
#include <functional>
#include <utility>

namespace perfbench {
namespace {

using medvault::Slice;
using medvault::Status;
using medvault::storage::RandomRWFile;
using medvault::storage::WritableFile;

uint64_t ElapsedNanos(std::chrono::steady_clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

/// Times `sync` into `syncs` unless `enabled` is false.
Status TimedSync(const std::atomic<bool>& enabled, SharedHistogram* syncs,
                 const std::function<Status()>& sync) {
  if (!enabled.load(std::memory_order_relaxed)) return sync();
  const auto start = std::chrono::steady_clock::now();
  Status s = sync();
  syncs->Record(ElapsedNanos(start));
  return s;
}

class TimedWritableFile : public WritableFile {
 public:
  TimedWritableFile(std::unique_ptr<WritableFile> base,
                    const std::atomic<bool>* enabled, SharedHistogram* syncs)
      : base_(std::move(base)), enabled_(enabled), syncs_(syncs) {}

  Status Append(const Slice& data) override { return base_->Append(data); }
  Status Flush() override { return base_->Flush(); }
  Status Sync() override {
    return TimedSync(*enabled_, syncs_, [this] { return base_->Sync(); });
  }
  Status Close() override { return base_->Close(); }
  int FileDescriptor() const override { return base_->FileDescriptor(); }

 private:
  std::unique_ptr<WritableFile> base_;
  const std::atomic<bool>* enabled_;
  SharedHistogram* syncs_;
};

class TimedRandomRWFile : public RandomRWFile {
 public:
  TimedRandomRWFile(std::unique_ptr<RandomRWFile> base,
                    const std::atomic<bool>* enabled, SharedHistogram* syncs)
      : base_(std::move(base)), enabled_(enabled), syncs_(syncs) {}

  Status WriteAt(uint64_t offset, const Slice& data) override {
    return base_->WriteAt(offset, data);
  }
  Status ReadAt(uint64_t offset, size_t n, std::string* result) const override {
    return base_->ReadAt(offset, n, result);
  }
  Status Sync() override {
    return TimedSync(*enabled_, syncs_, [this] { return base_->Sync(); });
  }
  Status Close() override { return base_->Close(); }

 private:
  std::unique_ptr<RandomRWFile> base_;
  const std::atomic<bool>* enabled_;
  SharedHistogram* syncs_;
};

}  // namespace

Status TimingEnv::NewSequentialFile(
    const std::string& fname,
    std::unique_ptr<medvault::storage::SequentialFile>* file) {
  return base_->NewSequentialFile(fname, file);
}

Status TimingEnv::NewRandomAccessFile(
    const std::string& fname,
    std::unique_ptr<medvault::storage::RandomAccessFile>* file) {
  return base_->NewRandomAccessFile(fname, file);
}

Status TimingEnv::NewWritableFile(const std::string& fname,
                                  std::unique_ptr<WritableFile>* file) {
  std::unique_ptr<WritableFile> base;
  Status s = base_->NewWritableFile(fname, &base);
  if (s.ok()) {
    *file = std::make_unique<TimedWritableFile>(std::move(base), &enabled_,
                                                &syncs_);
  }
  return s;
}

Status TimingEnv::NewAppendableFile(const std::string& fname,
                                    std::unique_ptr<WritableFile>* file) {
  std::unique_ptr<WritableFile> base;
  Status s = base_->NewAppendableFile(fname, &base);
  if (s.ok()) {
    *file = std::make_unique<TimedWritableFile>(std::move(base), &enabled_,
                                                &syncs_);
  }
  return s;
}

Status TimingEnv::NewRandomRWFile(const std::string& fname,
                                  std::unique_ptr<RandomRWFile>* file) {
  std::unique_ptr<RandomRWFile> base;
  Status s = base_->NewRandomRWFile(fname, &base);
  if (s.ok()) {
    *file = std::make_unique<TimedRandomRWFile>(std::move(base), &enabled_,
                                                &syncs_);
  }
  return s;
}

bool TimingEnv::FileExists(const std::string& fname) {
  return base_->FileExists(fname);
}

Status TimingEnv::GetChildren(const std::string& dir,
                              std::vector<std::string>* result) {
  return base_->GetChildren(dir, result);
}

Status TimingEnv::RemoveFile(const std::string& fname) {
  return base_->RemoveFile(fname);
}

Status TimingEnv::CreateDirIfMissing(const std::string& dirname) {
  return base_->CreateDirIfMissing(dirname);
}

Status TimingEnv::GetFileSize(const std::string& fname, uint64_t* size) {
  return base_->GetFileSize(fname, size);
}

Status TimingEnv::RenameFile(const std::string& src,
                             const std::string& target) {
  return base_->RenameFile(src, target);
}

Status TimingEnv::Truncate(const std::string& fname, uint64_t size) {
  return base_->Truncate(fname, size);
}

Status TimingEnv::UnsafeOverwrite(const std::string& fname, uint64_t offset,
                                  const Slice& data) {
  return base_->UnsafeOverwrite(fname, offset, data);
}

Status TimingEnv::UnsafeTruncate(const std::string& fname, uint64_t size) {
  return base_->UnsafeTruncate(fname, size);
}

void TimingEnv::SubmitWrites(medvault::storage::WriteRequest* requests,
                             size_t n,
                             medvault::storage::BatchCompletion* done) {
  base_->SubmitWrites(requests, n, done);
}

void TimingEnv::SubmitSyncs(WritableFile* const* files, size_t n,
                            medvault::storage::BatchCompletion* done) {
  base_->SubmitSyncs(files, n, done);
}

}  // namespace perfbench
