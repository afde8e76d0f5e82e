#ifndef MEDVAULT_BENCH_BENCH_UTIL_H_
#define MEDVAULT_BENCH_BENCH_UTIL_H_

// Shared helpers for the experiment harnesses: store factory over all
// five models, population with the synthetic EHR workload, wall-clock
// timing, and the BENCH_/HEALTH_ result files.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "baselines/encrypted_db_store.h"
#include "baselines/object_store.h"
#include "baselines/record_store.h"
#include "baselines/relational_store.h"
#include "baselines/vault_store.h"
#include "baselines/worm_store.h"
#include "common/clock.h"
#include "obs/health.h"
#include "sim/workload.h"
#include "storage/instrumented_env.h"
#include "storage/mem_env.h"
#include "storage/posix_env.h"

namespace medvault::bench {

/// The five storage models compared throughout the evaluation
/// (paper §4 + MedVault).
inline const std::vector<std::string>& ModelNames() {
  static const std::vector<std::string>* names = new std::vector<std::string>{
      "relational", "encrypted-db", "object-store", "worm", "medvault"};
  return *names;
}

/// A store bundled with the Env/clock it lives on. The MemEnv is
/// wrapped in an InstrumentedEnv feeding obs::ProcessIoStats(), so
/// every bench's physical I/O shows up in its HEALTH_<name>.json.
struct StoreInstance {
  std::unique_ptr<storage::MemEnv> env;
  std::unique_ptr<storage::InstrumentedEnv> ienv;
  std::unique_ptr<ManualClock> clock;
  std::unique_ptr<baselines::RecordStore> store;
};

inline StoreInstance MakeStore(const std::string& model) {
  StoreInstance instance;
  instance.env = std::make_unique<storage::MemEnv>();
  instance.ienv = std::make_unique<storage::InstrumentedEnv>(
      instance.env.get(), obs::ProcessIoStats());
  instance.clock = std::make_unique<ManualClock>(1000000);
  if (model == "relational") {
    instance.store = std::make_unique<baselines::RelationalStore>(
        instance.ienv.get(), "store");
  } else if (model == "encrypted-db") {
    instance.store = std::make_unique<baselines::EncryptedDbStore>(
        instance.ienv.get(), "store", std::string(32, 'D'));
  } else if (model == "object-store") {
    instance.store = std::make_unique<baselines::ObjectStore>(
        instance.ienv.get(), "store");
  } else if (model == "worm") {
    instance.store = std::make_unique<baselines::WormStore>(
        instance.ienv.get(), "store");
  } else if (model == "medvault") {
    instance.store = std::make_unique<baselines::VaultStore>(
        instance.ienv.get(), "store", instance.clock.get());
  }
  Status s = instance.store->Open();
  if (!s.ok()) {
    fprintf(stderr, "open %s failed: %s\n", model.c_str(),
            s.ToString().c_str());
    abort();
  }
  return instance;
}

/// Inserts `n` synthetic EHR notes; returns the assigned ids.
inline std::vector<std::string> Populate(baselines::RecordStore* store,
                                         int n, size_t note_bytes = 512,
                                         uint64_t seed = 42) {
  sim::EhrGenerator::Options options;
  options.note_bytes = note_bytes;
  sim::EhrGenerator gen(seed, options);
  std::vector<std::string> ids;
  ids.reserve(n);
  for (int i = 0; i < n; i++) {
    sim::EhrRecord r = gen.Next();
    auto id = store->Put(r.text, r.keywords);
    if (!id.ok()) {
      fprintf(stderr, "populate failed: %s\n", id.status().ToString().c_str());
      abort();
    }
    ids.push_back(*id);
  }
  return ids;
}

/// The process-wide health snapshot at this instant: default-registry
/// op histograms plus the I/O accumulated in ProcessIoStats().
inline obs::HealthReport CollectProcessHealthNow() {
  int64_t now_micros = std::chrono::duration_cast<std::chrono::microseconds>(
                           std::chrono::system_clock::now().time_since_epoch())
                           .count();
  return obs::CollectProcessHealth(now_micros, obs::MetricsRegistry::Default(),
                                   obs::ProcessIoStats());
}

/// Writes `health` to HEALTH_<name>.json in the working directory.
inline void WriteHealthJson(const std::string& name,
                            const obs::HealthReport& health) {
  Status status = obs::WriteHealthFile(storage::PosixEnv::Default(), health,
                                       "HEALTH_" + name + ".json");
  if (!status.ok()) {
    fprintf(stderr, "health report write failed: %s\n",
            status.ToString().c_str());
  }
}

/// One result row of a plain-main() harness (see WriteBenchJson).
struct BenchEntry {
  std::string name;
  double real_time_us = 0;
  double items_per_second = 0;
};

/// Writes BENCH_<name>.json in google-benchmark's JSON result shape (one
/// iteration per entry, cpu_time = real_time, in microseconds), so
/// tools/bench_compare.py reads the plain-main() harnesses exactly like
/// the google-benchmark binaries.
inline void WriteBenchJson(const std::string& name,
                           const std::vector<BenchEntry>& entries) {
  const std::string path = "BENCH_" + name + ".json";
  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) {
    fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  fprintf(f, "{\n  \"context\": {\n");
  fprintf(f, "    \"executable\": \"./bench_%s\",\n", name.c_str());
  fprintf(f, "    \"library_build_type\": \"release\"\n  },\n");
  fprintf(f, "  \"benchmarks\": [\n");
  for (size_t i = 0; i < entries.size(); ++i) {
    const BenchEntry& e = entries[i];
    fprintf(f, "%s    {\n      \"name\": \"%s\",\n", i == 0 ? "" : ",\n",
            e.name.c_str());
    fprintf(f, "      \"run_type\": \"iteration\",\n");
    fprintf(f, "      \"iterations\": 1,\n");
    fprintf(f, "      \"real_time\": %.3f,\n", e.real_time_us);
    fprintf(f, "      \"cpu_time\": %.3f,\n", e.real_time_us);
    fprintf(f, "      \"time_unit\": \"us\",\n");
    fprintf(f, "      \"items_per_second\": %.3f\n    }", e.items_per_second);
  }
  fprintf(f, "\n  ]\n}\n");
  fclose(f);
}

/// Drop-in replacement for BENCHMARK_MAIN() that persists results: unless
/// the caller already passed --benchmark_out, the JSON reporter writes to
/// BENCH_<name>.json in the working directory, so perf trajectories can
/// be tracked across commits. Console output is unchanged. A
/// HEALTH_<name>.json observability snapshot (process-default registry
/// op histograms + accumulated env I/O) is written next to it.
inline int RunBenchmarkMain(const std::string& name, int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--benchmark_out", 0) == 0) has_out = true;
  }
  std::string out_flag = "--benchmark_out=BENCH_" + name + ".json";
  std::string format_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int argc_final = static_cast<int>(args.size());
  benchmark::Initialize(&argc_final, args.data());
  if (benchmark::ReportUnrecognizedArguments(argc_final, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  // The vaults under test are gone by now, but their op histograms
  // accumulated in the process-wide registry and their I/O in
  // ProcessIoStats() — snapshot both for the experiment scripts.
  WriteHealthJson(name, CollectProcessHealthNow());
  return 0;
}

/// Wall-clock of fn() in microseconds.
inline double TimeUs(const std::function<void()>& fn) {
  auto start = std::chrono::steady_clock::now();
  fn();
  auto end = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
             .count() /
         1000.0;
}

}  // namespace medvault::bench

#endif  // MEDVAULT_BENCH_BENCH_UTIL_H_
