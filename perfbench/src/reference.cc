#include "reference.h"

#include <time.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>

namespace perfbench {
namespace {

double ThreadMillis() {
  struct timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

/// Sorts 8,192 pseudo-random keys, builds a 4,096-entry hash map of
/// short strings and probes it: branches, allocation, hashing and
/// cache misses in about the proportions of the program's own work.
size_t Compute(uint64_t seed) {
  std::vector<uint32_t> keys(8192);
  uint64_t x = seed | 1;
  for (uint32_t& k : keys) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    k = static_cast<uint32_t>(x);
  }
  std::sort(keys.begin(), keys.end());
  std::unordered_map<uint32_t, std::string> map;
  for (size_t i = 0; i < keys.size(); i += 2) {
    map[keys[i]] = std::to_string(keys[i / 2]) + "-note";
  }
  size_t found = 0;
  for (uint32_t k : keys) {
    auto it = map.find(k);
    if (it != map.end()) found += it->second.size();
  }
  return found;
}

volatile size_t g_sink;  // keeps Compute from being optimised away

}  // namespace

void Reference::Sample(int times) {
  for (int i = 0; i < times; ++i) {
    const double start = ThreadMillis();
    g_sink = Compute(0x9e3779b97f4a7c15ull + millis_.size());
    millis_.push_back(ThreadMillis() - start);
  }
}

double Reference::Scale() const {
  if (millis_.empty()) return 1;
  std::vector<double> v = millis_;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  const double median = v.size() % 2 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
  return kNominalMillis / median;
}

}  // namespace perfbench
