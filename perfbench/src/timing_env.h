#ifndef MEDVAULT_PERFBENCH_TIMING_ENV_H_
#define MEDVAULT_PERFBENCH_TIMING_ENV_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "histogram.h"
#include "storage/env.h"

namespace perfbench {

/// Pass-through Env that times every durability barrier (Sync on a
/// writable or read-write file) into one shared histogram. Counting
/// reads, writes and bytes is left to storage::InstrumentedEnv below
/// it; this decorator adds only the fsync latency that InstrumentedEnv
/// does not record.
class TimingEnv : public medvault::storage::Env {
 public:
  explicit TimingEnv(medvault::storage::Env* base) : base_(base) {}

  SharedHistogram* syncs() { return &syncs_; }
  /// While disabled, Sync is forwarded without being timed.
  void set_enabled(bool enabled) { enabled_.store(enabled); }

  medvault::Status NewSequentialFile(
      const std::string& fname,
      std::unique_ptr<medvault::storage::SequentialFile>* file) override;
  medvault::Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<medvault::storage::RandomAccessFile>* file) override;
  medvault::Status NewWritableFile(
      const std::string& fname,
      std::unique_ptr<medvault::storage::WritableFile>* file) override;
  medvault::Status NewAppendableFile(
      const std::string& fname,
      std::unique_ptr<medvault::storage::WritableFile>* file) override;
  medvault::Status NewRandomRWFile(
      const std::string& fname,
      std::unique_ptr<medvault::storage::RandomRWFile>* file) override;

  bool FileExists(const std::string& fname) override;
  medvault::Status GetChildren(const std::string& dir,
                               std::vector<std::string>* result) override;
  medvault::Status RemoveFile(const std::string& fname) override;
  medvault::Status CreateDirIfMissing(const std::string& dirname) override;
  medvault::Status GetFileSize(const std::string& fname,
                               uint64_t* size) override;
  medvault::Status RenameFile(const std::string& src,
                              const std::string& target) override;
  medvault::Status Truncate(const std::string& fname, uint64_t size) override;
  medvault::Status UnsafeOverwrite(const std::string& fname, uint64_t offset,
                                   const medvault::Slice& data) override;
  medvault::Status UnsafeTruncate(const std::string& fname,
                                  uint64_t size) override;

  // The batch API hands our own file wrappers to the base, whose
  // executor calls their Sync, so batched barriers are timed too.
  void SubmitWrites(medvault::storage::WriteRequest* requests, size_t n,
                    medvault::storage::BatchCompletion* done) override;
  void SubmitSyncs(medvault::storage::WritableFile* const* files, size_t n,
                   medvault::storage::BatchCompletion* done) override;

 private:
  medvault::storage::Env* base_;
  std::atomic<bool> enabled_{true};
  SharedHistogram syncs_;
};

}  // namespace perfbench

#endif  // MEDVAULT_PERFBENCH_TIMING_ENV_H_
