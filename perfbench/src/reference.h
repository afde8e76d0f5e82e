#ifndef MEDVAULT_PERFBENCH_REFERENCE_H_
#define MEDVAULT_PERFBENCH_REFERENCE_H_

#include <cstddef>
#include <vector>

namespace perfbench {

/// The host's speed, measured with a fixed reference computation.
///
/// On a shared host the same code runs at different speeds from second
/// to second: on the development host, single-thread CPU time of the
/// same work switched between two levels ~1.4x apart (README). The
/// benchmark therefore runs a fixed computation next to each thing it
/// times and scales that thing's CPU time to a host on which the
/// reference takes kNominalMillis. The reference is ordinary code
/// (sort, hash map, string building) from the C++ standard library and
/// calls nothing in the repository, so a change to the program cannot
/// move it.
class Reference {
 public:
  /// Reference CPU time the scaled figures are expressed at: about its
  /// time on the development host's fast level.
  static constexpr double kNominalMillis = 1.0;

  /// Runs the reference `times` times on the calling thread and records
  /// the thread CPU milliseconds each took.
  void Sample(int times = kBurst);

  /// Samples taken at once, just before and just after each timed step.
  static constexpr int kBurst = 5;

  /// kNominalMillis over the median sample: multiply a CPU time
  /// measured beside the samples by it. 1 with no samples.
  double Scale() const;

  size_t samples() const { return millis_.size(); }
  void Clear() { millis_.clear(); }

 private:
  std::vector<double> millis_;
};

}  // namespace perfbench

#endif  // MEDVAULT_PERFBENCH_REFERENCE_H_
