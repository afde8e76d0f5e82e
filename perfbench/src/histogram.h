#ifndef MEDVAULT_PERFBENCH_HISTOGRAM_H_
#define MEDVAULT_PERFBENCH_HISTOGRAM_H_

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <mutex>

namespace perfbench {

/// Fixed-size log-linear latency histogram over nanoseconds.
///
/// Values below 128 ns get a bucket each; above that every power of two
/// is split into 128 equal sub-buckets, so a bucket is at most 1/128
/// (0.8%) of its lower bound wide and the reported midpoint is within
/// 0.4% of any value in it. Memory is constant (~58 KiB) whatever the
/// sample count, so recording latencies never grows the process the
/// benchmark measures. Not thread-safe: keep one per thread and Merge.
class LogHistogram {
 public:
  static constexpr int kSubBits = 7;
  static constexpr uint64_t kSub = uint64_t{1} << kSubBits;
  static constexpr size_t kBuckets = kSub + (64 - kSubBits) * kSub;

  static size_t BucketOf(uint64_t v) {
    if (v < kSub) return static_cast<size_t>(v);
    const int e = 63 - std::countl_zero(v);  // e >= kSubBits
    const uint64_t sub = (v >> (e - kSubBits)) - kSub;
    return static_cast<size_t>(kSub + (e - kSubBits) * kSub + sub);
  }

  /// Inclusive lower bound of bucket `i`.
  static uint64_t LowerBound(size_t i) {
    if (i < kSub) return i;
    const int e = static_cast<int>((i - kSub) / kSub) + kSubBits;
    const uint64_t sub = (i - kSub) % kSub;
    return (kSub + sub) << (e - kSubBits);
  }

  static uint64_t Width(size_t i) {
    if (i < kSub) return 1;
    const int e = static_cast<int>((i - kSub) / kSub) + kSubBits;
    return uint64_t{1} << (e - kSubBits);
  }

  void Record(uint64_t nanos) {
    ++counts_[BucketOf(nanos)];
    ++count_;
    sum_ += nanos;
  }

  void Merge(const LogHistogram& other) {
    for (size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
    count_ += other.count_;
    sum_ += other.sum_;
  }

  uint64_t count() const { return count_; }
  double MeanMicros() const {
    return count_ == 0 ? 0.0 : static_cast<double>(sum_) / count_ / 1e3;
  }

  /// Nearest-rank percentile `p` in [0, 1], in microseconds; 0 when
  /// empty. Within the bucket holding that rank, samples are taken as
  /// evenly spread, so the estimate moves smoothly with the data
  /// instead of snapping to bucket midpoints.
  double PercentileMicros(double p) const {
    if (count_ == 0) return 0.0;
    uint64_t rank = static_cast<uint64_t>(p * static_cast<double>(count_));
    if (rank >= count_) rank = count_ - 1;
    uint64_t seen = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
      if (seen + counts_[i] > rank) {
        const double within = (static_cast<double>(rank - seen) + 0.5) /
                              static_cast<double>(counts_[i]);
        return (static_cast<double>(LowerBound(i)) +
                within * static_cast<double>(Width(i))) /
               1e3;
      }
      seen += counts_[i];
    }
    return 0.0;
  }

 private:
  std::array<uint64_t, kBuckets> counts_{};
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
};

/// A LogHistogram that many threads record into (storage syncs).
class SharedHistogram {
 public:
  void Record(uint64_t nanos) {
    std::lock_guard<std::mutex> lock(mu_);
    hist_.Record(nanos);
  }
  LogHistogram Snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return hist_;
  }
  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    hist_ = LogHistogram();
  }

 private:
  mutable std::mutex mu_;
  LogHistogram hist_;  // guarded by mu_
};

}  // namespace perfbench

#endif  // MEDVAULT_PERFBENCH_HISTOGRAM_H_
