// medvault_perfbench — the end-to-end benchmark of the MedVault HTTP
// front door, with per-layer attribution.
//
//   medvault_perfbench --workload <name> --seed <n> --seconds <s>
//                      --trace <0|1> --workdir <dir> [--commit <sha>]
//   medvault_perfbench --self-test --workdir <dir>
//
// Starts MedVaultServer in-process with medvaultd's settings over a
// disk-backed 4-shard vault under --workdir, drives the named workload
// over 4 closed-loop keep-alive connections, checks every response, and
// prints each metric by name with its unit. The last stdout line is one
// JSON object: {"correct", "attempted", "failed", "metrics"}. --trace 0
// reports the end-to-end metrics, with the process pinned to one CPU;
// --trace 1 replays the same op stream at three depths (HTTP, router,
// engine) on every CPU and reports per-layer metrics. See
// perfbench/README.md.

#include <malloc.h>
#include <sched.h>
#include <sys/statfs.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "crypto/aead.h"
#include "crypto/hkdf.h"
#include "crypto/hmac.h"
#include "harness.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using medvault::Status;

constexpr uint64_t kWarmTag = 1;  ///< op stream of the warm-up pass
constexpr uint64_t kMainTag = 2;  ///< op stream every measured pass replays
constexpr int kChunks = 24;       ///< traced chunks: 6 rounds of 4 replays
constexpr int kSetups = 5;        ///< set-ups per run; setup_s is the median
constexpr int kReopens = 5;       ///< reopens per run; reopen_s is the median
constexpr uint64_t kProbeOps = 256;
constexpr uint64_t kLookups = 2000;

struct Metric {
  std::string name;
  double value;
  std::string unit;
  uint64_t samples;  ///< 0 when the value is not a sample statistic
};

struct Outcome {
  bool correct = true;
  std::string why;  ///< first oracle or durability mismatch
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
};

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Returns freed heap to the kernel and restarts the kernel's peak-RSS
/// count (VmHWM), so the peak belongs to the instance about to be set
/// up, not to the ones discarded before it.
void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0;
}

/// Confines the process to the highest-numbered CPU it may run on and
/// returns that CPU, or -1 if it could not. Called before any thread
/// starts, so every thread the run creates inherits the mask. On one
/// CPU, a request's handoffs between the connection, worker and commit
/// threads are local context switches; spread over several virtual
/// CPUs, each is a cross-CPU wake-up whose cost on a shared host grows
/// with the host's load (README, "Why one CPU").
int PinToOneCpu() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  int cpu = -1;
  for (int i = 0; i < CPU_SETSIZE; ++i) {
    if (CPU_ISSET(i, &allowed)) cpu = i;
  }
  if (cpu < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
}

void AddLatency(std::vector<Metric>* out, const std::string& prefix,
                const LogHistogram& h) {
  out->push_back({prefix + "_p50_us", h.PercentileMicros(0.50), "us",
                  h.count()});
  out->push_back({prefix + "_p99_us", h.PercentileMicros(0.99), "us",
                  h.count()});
}

/// Per-kind end-to-end latencies, printed for the reader (the JSON
/// result holds the workload-wide ones every workload has).
void PrintKinds(const ThreadStats& s) {
  LogHistogram write = s.by_kind[kCreate];
  write.Merge(s.by_kind[kCorrect]);
  const std::pair<const char*, const LogHistogram*> rows[] = {
      {"read", &s.by_kind[kRead]},
      {"search", &s.by_kind[kSearch]},
      {"write", &write},
      {"disclosure", &s.by_kind[kDisclosure]}};
  for (const auto& [name, h] : rows) {
    if (h->count() == 0) continue;
    printf("  %-28s p50 %10.1f us   p99 %10.1f us   (n=%llu)\n",
           (std::string(name) + " latency").c_str(), h->PercentileMicros(0.5),
           h->PercentileMicros(0.99),
           static_cast<unsigned long long>(h->count()));
  }
}

uint64_t OpsPerConn(const WorkloadSpec& spec, double seconds) {
  const double budget = spec.ops_per_second * seconds;
  return std::max<uint64_t>(1, static_cast<uint64_t>(budget / kConns));
}

// ---------------------------------------------------------------------
// End-to-end run (--trace 0).

/// `cpu` is the CPU the process is pinned to, -1 when it is not.
Outcome RunEndToEnd(const WorkloadSpec& spec, uint64_t seed, double seconds,
                    const std::string& workdir, int setups, int reopens,
                    int cpu) {
  Outcome out;
  const uint64_t ops = OpsPerConn(spec, seconds);
  const std::string dir = workdir + "/vault";

  // Set-up repeats on a fresh directory each time and the last instance
  // serves the run: one set-up is too noisy to gate on (see README).
  // Gated in CPU seconds; the wall time is printed.
  std::vector<double> setup_times;
  std::vector<double> setup_cpu;
  std::vector<double> setup_scaled;
  std::unique_ptr<Bench> bench;
  for (int i = 0; i < setups; ++i) {
    bench.reset();
    ResetPeakRss();
    bench = std::make_unique<Bench>(spec, seed, dir, /*instrumented=*/false);
    Reference reference;
    reference.Sample();
    const auto start = std::chrono::steady_clock::now();
    const double cpu0 = ProcessCpuSeconds();
    Status s = bench->Setup();
    if (!s.ok()) {
      fprintf(stderr, "perfbench: set-up failed: %s\n", s.ToString().c_str());
      exit(1);
    }
    setup_cpu.push_back(ProcessCpuSeconds() - cpu0);
    setup_times.push_back(Seconds(start));
    reference.Sample();
    setup_scaled.push_back(setup_cpu.back() * reference.Scale());
  }

  const Corpus& corpus = bench->corpus();
  bench->RunPass(Depth::kHttp,
                 ConnStreams(spec, corpus, seed, kWarmTag).Take(ops / 10),
                 /*timed=*/false);
  medvault::obs::MetricsRegistry* registry = bench->metrics();
  auto commit_counter = [&](const char* name) {
    return registry->GetCounter(name)->Value();
  };
  const uint64_t commits0 = commit_counter("commit.window.sharded.ops");
  const uint64_t waves0 = commit_counter("commit.window.sharded.syncs");
  const double steal0 = StealSeconds(cpu);
  PassResult run = bench->RunPass(
      Depth::kHttp, ConnStreams(spec, corpus, seed, kMainTag).Take(ops), true,
      cpu);
  const double steal_s = StealSeconds(cpu) - steal0;
  const uint64_t commits =
      commit_counter("commit.window.sharded.ops") - commits0;
  const uint64_t waves =
      commit_counter("commit.window.sharded.syncs") - waves0;
  const ThreadStats& s = *run.stats;
  // Peak of the serving process through set-up and run, before the
  // reopens below load the vault again.
  const double peak_rss_mb = PeakRssMb();

  Bench::ReopenTimes reopen;
  uint64_t dir_bytes = 0;
  Status durable = bench->CloseReopenVerify(reopens, &reopen, &dir_bytes);

  out.attempted = s.attempted;
  out.failed = s.failed;
  out.why = bench->oracle_failure();
  if (out.why.empty() && !durable.ok()) {
    out.why = "durability check: " + durable.ToString();
  }
  out.correct = out.why.empty();

  // Times are gated in CPU seconds at the reference's nominal speed,
  // not in wall seconds: on a shared host, ops_s and reopen wall time of
  // the same code spread 50-180% across ten runs, following how long
  // threads waited for a CPU, and raw CPU time still followed the
  // host's speed level (README). Raw figures are printed beside them.
  const double whole_cpu_us_per_op =
      Ratio(run.server_cpu_s * 1e6, static_cast<double>(s.attempted));
  const double raw_cpu_us_per_op = run.slice_cpu_us_per_op > 0
                                       ? run.slice_cpu_us_per_op
                                       : whole_cpu_us_per_op;
  out.metrics.push_back({"cpu_us_per_op",
                         raw_cpu_us_per_op * run.reference.Scale(), "us",
                         s.attempted});
  out.metrics.push_back({"setup_s", Median(setup_scaled), "s",
                         static_cast<uint64_t>(setups)});
  out.metrics.push_back({"reopen_cpu_s", reopen.scaled_cpu_s, "s",
                         static_cast<uint64_t>(reopens)});
  out.metrics.push_back({"peak_rss_mb", peak_rss_mb, "MB", 0});
  out.metrics.push_back(
      {"stored_bytes_per_user_byte",
       Ratio(static_cast<double>(dir_bytes),
             static_cast<double>(bench->user_bytes())),
       "ratio", 0});

  PrintKinds(s);
  printf("  %-28s %.6g 1/s (n=%llu; wall clock, not gated; slice median "
         "%.6g)\n",
         "ops_s", run.ops_s(), static_cast<unsigned long long>(s.attempted),
         run.slice_ops_s);
  printf("  %-28s %.6g us (raw: median of %zu of %zu slices, %zu of them "
         "steal-free; whole pass %.6g us; reference scale %.4f)\n",
         "cpu_us_per_op", raw_cpu_us_per_op, run.cost_slices, run.slices,
         run.steal_free_slices, whole_cpu_us_per_op, run.reference.Scale());
  printf("  %-28s %.6g s (raw CPU), %.6g s (wall), n=%d\n", "setup_s",
         Median(setup_cpu), Median(setup_times), setups);
  printf("  %-28s %.6g s (raw CPU), %.6g s (wall), n=%d\n", "reopen_s",
         reopen.cpu_s, reopen.wall_s, reopens);
  const std::string stolen_from =
      cpu < 0 ? "all CPUs" : "cpu " + std::to_string(cpu);
  printf("  %-28s %.6g s of CPU (%s) over a %.6g s pass\n", "host_steal_s",
         steal_s, stolen_from.c_str(), run.wall_s);
  if (waves > 0) {
    printf("  %-28s %.6g (%llu commits in %llu waves)\n", "ops_per_wave",
           Ratio(static_cast<double>(commits), static_cast<double>(waves)),
           static_cast<unsigned long long>(commits),
           static_cast<unsigned long long>(waves));
  }
  for (const auto& [name, p] : {std::pair{"op_p50_us", 0.50},
                                 std::pair{"op_p90_us", 0.90},
                                 std::pair{"op_p99_us", 0.99}}) {
    printf("  %-28s %.6g us (n=%llu; not gated: does not repeat within a "
           "tenth)\n",
           name, s.total.PercentileMicros(p),
           static_cast<unsigned long long>(s.attempted));
  }
  printf("  %-28s %.6f (%llu of %llu)\n", "error_rate",
         Ratio(static_cast<double>(s.failed), static_cast<double>(s.attempted)),
         static_cast<unsigned long long>(s.failed),
         static_cast<unsigned long long>(s.attempted));
  return out;
}

// ---------------------------------------------------------------------
// Traced run (--trace 1).

struct CryptoTimes {
  double seal_us, open_us, hmac_us, hkdf_us;
};

/// Mean microseconds per call of `fn`, the median over five batches.
double TimeCalls(uint64_t calls, const std::function<size_t()>& fn) {
  std::vector<double> batches;
  size_t sink = 0;
  for (int b = 0; b < 5; ++b) {
    const auto start = std::chrono::steady_clock::now();
    for (uint64_t i = 0; i < calls; ++i) sink += fn();
    batches.push_back(Seconds(start) * 1e6 / static_cast<double>(calls));
  }
  if (sink == 0) fprintf(stderr, "perfbench: crypto calls returned nothing\n");
  return Median(batches);
}

/// Each primitive on its own at the sizes the workloads use: a 1 KiB
/// note sealed and opened, a 64-byte HMAC, and the 32-byte HKDF that
/// Aead::Init runs per record key.
CryptoTimes TimeCrypto(uint64_t seed) {
  using namespace medvault::crypto;
  Rng rng(MixSeed(seed, 0xc7));
  std::string key(32, '\0');
  for (char& c : key) c = static_cast<char>(rng.Next());
  const std::string nonce(16, 'n');
  const std::string note = NoteText(seed, 0, 0);
  const std::string aad = "perfbench";
  const std::string message(64, 'm');
  Aead aead;
  if (!aead.Init(key).ok()) return {};
  auto sealed = aead.Seal(nonce, note, aad);
  if (!sealed.ok()) return {};
  CryptoTimes t;
  t.seal_us =
      TimeCalls(2000, [&] { return aead.Seal(nonce, note, aad)->size(); });
  t.open_us = TimeCalls(2000, [&] { return aead.Open(*sealed, aad)->size(); });
  t.hmac_us = TimeCalls(20000, [&] { return HmacSha256(key, message).size(); });
  t.hkdf_us = TimeCalls(5000, [&] {
    return HkdfSha256(key, "salt", "perfbench", 32)->size();
  });
  return t;
}

/// Counters read before and after each traced HTTP chunk.
struct Counters {
  uint64_t hits = 0, misses = 0, evictions = 0;
  uint64_t syncs = 0, write_bytes = 0, reads = 0, read_bytes = 0;
  uint64_t audit_events = 0, commits = 0, waves = 0, shed = 0, conns = 0;

  static Counters Read(Bench* bench) {
    medvault::obs::MetricsRegistry* metrics = bench->metrics();
    const auto cache = bench->vault()->CacheStats();
    const auto io = bench->io()->TakeSnapshot();
    Counters c;
    c.hits = cache.hits;
    c.misses = cache.misses;
    c.evictions = cache.evictions;
    c.syncs = io.syncs;
    c.write_bytes = io.write_bytes;
    c.reads = io.reads;
    c.read_bytes = io.read_bytes;
    c.audit_events = bench->AuditEvents();
    c.commits = metrics->GetCounter("commit.window.sharded.ops")->Value();
    c.waves = metrics->GetCounter("commit.window.sharded.syncs")->Value();
    c.shed = metrics->GetCounter("server.shed")->Value();
    c.conns = metrics->GetCounter("server.conns")->Value();
    return c;
  }

  void AddDelta(const Counters& a, const Counters& b) {
    hits += b.hits - a.hits;
    misses += b.misses - a.misses;
    evictions += b.evictions - a.evictions;
    syncs += b.syncs - a.syncs;
    write_bytes += b.write_bytes - a.write_bytes;
    reads += b.reads - a.reads;
    read_bytes += b.read_bytes - a.read_bytes;
    audit_events += b.audit_events - a.audit_events;
    commits += b.commits - a.commits;
    waves += b.waves - a.waves;
    shed += b.shed - a.shed;
    conns += b.conns - a.conns;
  }
};

/// The depths a traced run replays each chunk at.
enum Replay {
  kUntimedHttp = 0,
  kTimedHttp,
  kRouterDepth,
  kEngineDepth,
  kReplays
};

Outcome RunTraced(const WorkloadSpec& spec, uint64_t seed, double seconds,
                  const std::string& workdir) {
  Outcome out;
  Bench bench(spec, seed, workdir + "/vault", /*instrumented=*/true);
  Status s = bench.Setup();
  if (!s.ok()) {
    fprintf(stderr, "perfbench: set-up failed: %s\n", s.ToString().c_str());
    exit(1);
  }
  const uint64_t budget = OpsPerConn(spec, seconds);
  ConnStreams warm(spec, bench.corpus(), seed, kWarmTag);
  bench.RunPass(Depth::kHttp, warm.Take(budget / 10), false);
  bench.timing_env()->syncs()->Clear();

  // One seeded stream, cut into chunks dealt round-robin to the four
  // replays (untimed HTTP, timed HTTP, router, engine), the order
  // rotating every round. Each depth thus runs a quarter of the same
  // stream, interleaved in time, so host noise and state drift fall on
  // every depth alike, and no op is repeated, so the cache sees the
  // workload's own locality.
  const uint64_t chunk = std::max<uint64_t>(1, budget / kChunks);
  ConnStreams stream(spec, bench.corpus(), seed, kMainTag);
  std::vector<ThreadStats> stats(kReplays);  // ~0.4 MiB each: on the heap
  std::array<double, kReplays> wall{};
  Counters served;  // deltas over the timed HTTP replays
  for (int i = 0; i < kChunks; ++i) {
    const int replay = (i + i / kReplays) % kReplays;
    const Depth depth = replay == kRouterDepth   ? Depth::kRouter
                        : replay == kEngineDepth ? Depth::kEngine
                                                 : Depth::kHttp;
    const Counters before = Counters::Read(&bench);
    bench.timing_env()->set_enabled(replay != kUntimedHttp);
    PassResult pass =
        bench.RunPass(depth, stream.Take(chunk), replay != kUntimedHttp);
    if (replay == kTimedHttp) served.AddDelta(before, Counters::Read(&bench));
    stats[replay].Merge(*pass.stats);
    wall[replay] += pass.wall_s;
  }
  bench.timing_env()->set_enabled(true);
  const ThreadStats& http = stats[kTimedHttp];
  const ThreadStats& router = stats[kRouterDepth];
  const ThreadStats& engine = stats[kEngineDepth];
  auto rate = [&](int replay) {
    return Ratio(static_cast<double>(stats[replay].attempted), wall[replay]);
  };

  // Kinds the mix never issues are timed by a one-thread engine probe,
  // so every layer metric exists on every workload.
  auto owned_layer = std::make_unique<ThreadStats>(engine);
  ThreadStats& layer = *owned_layer;
  for (int k = 0; k < kKinds; ++k) {
    if (spec.mix[k] > 0) continue;
    auto probe = bench.Probe(k, kProbeOps);
    layer.by_kind[k] = probe->by_kind[k];
    if (engine.sync.count() == 0) layer.sync.Merge(probe->sync);
    if (engine.search_hits == 0) {
      layer.search_hits += probe->search_hits;
      layer.search_ns += probe->search_ns;
    }
    layer.attempted += probe->attempted;
    layer.failed += probe->failed;
  }
  const double lookup_us = bench.TimeSessionLookup(kLookups);
  const double live = static_cast<double>(bench.live_sessions());
  const LogHistogram storage_syncs = bench.timing_env()->syncs()->Snapshot();
  const CryptoTimes crypto = TimeCrypto(seed);

  Bench::ReopenTimes reopen;
  uint64_t dir_bytes = 0;
  Status durable = bench.CloseReopenVerify(1, &reopen, &dir_bytes);

  out.attempted = stats[kUntimedHttp].attempted + http.attempted +
                  router.attempted + layer.attempted;
  out.failed = stats[kUntimedHttp].failed + http.failed + router.failed +
               layer.failed;
  out.why = bench.oracle_failure();
  if (out.why.empty() && !durable.ok()) {
    out.why = "durability check: " + durable.ToString();
  }
  out.correct = out.why.empty();

  auto& m = out.metrics;
  const uint64_t n = http.attempted;
  const double per_op = static_cast<double>(n);
  m.push_back({"server.wire_us",
               http.total.MeanMicros() - router.total.MeanMicros(), "us", n});
  m.push_back({"server.route_us",
               router.total.MeanMicros() - engine.total.MeanMicros(), "us", n});
  m.push_back({"admission.shed_frac",
               Ratio(static_cast<double>(served.shed),
                     static_cast<double>(served.conns)),
               "frac", 0});
  m.push_back({"session.lookup_us", lookup_us, "us", kLookups});
  m.push_back({"session.live", live, "count", 0});
  static const char* const kVaultNames[kKinds] = {
      "vault.read", "vault.search", "vault.create", "vault.correct",
      "vault.disclosures"};
  for (int k = 0; k < kKinds; ++k) {
    AddLatency(&m, kVaultNames[k], layer.by_kind[k]);
  }
  const double hits = static_cast<double>(served.hits);
  m.push_back({"cache.hit_ratio",
               Ratio(hits, hits + static_cast<double>(served.misses)), "frac",
               0});
  m.push_back({"cache.evictions_per_op",
               Ratio(static_cast<double>(served.evictions), per_op), "count",
               0});
  m.push_back({"index.hits_per_search",
               Ratio(static_cast<double>(layer.search_hits),
                     static_cast<double>(layer.by_kind[kSearch].count())),
               "count", 0});
  m.push_back({"index.us_per_hit",
               Ratio(static_cast<double>(layer.search_ns) / 1e3,
                     static_cast<double>(layer.search_hits)),
               "us", 0});
  AddLatency(&m, "commit.sync", layer.sync);
  m.push_back({"commit.ops_per_wave",
               Ratio(static_cast<double>(served.commits),
                     static_cast<double>(served.waves)),
               "count", 0});
  AddLatency(&m, "storage.sync", storage_syncs);
  m.push_back({"storage.syncs_per_op",
               Ratio(static_cast<double>(served.syncs), per_op), "count", 0});
  m.push_back({"storage.write_bytes_per_op",
               Ratio(static_cast<double>(served.write_bytes), per_op), "B", 0});
  m.push_back({"storage.reads_per_op",
               Ratio(static_cast<double>(served.reads), per_op), "count", 0});
  m.push_back({"storage.read_bytes_per_op",
               Ratio(static_cast<double>(served.read_bytes), per_op), "B", 0});
  m.push_back({"crypto.aead_seal_us", crypto.seal_us, "us", 0});
  m.push_back({"crypto.aead_open_us", crypto.open_us, "us", 0});
  m.push_back({"crypto.hmac_us", crypto.hmac_us, "us", 0});
  m.push_back({"crypto.hkdf_us", crypto.hkdf_us, "us", 0});
  m.push_back({"audit.events_per_op",
               Ratio(static_cast<double>(served.audit_events), per_op),
               "count", 0});
  m.push_back({"trace.overhead_frac",
               1.0 - Ratio(rate(kTimedHttp), rate(kUntimedHttp)), "frac", 0});

  printf("  HTTP depth, timed (%.0f ops/s; untimed %.0f ops/s):\n",
         rate(kTimedHttp), rate(kUntimedHttp));
  PrintKinds(http);
  printf("  router depth %.1f us/op, engine depth %.1f us/op\n",
         router.total.MeanMicros(), engine.total.MeanMicros());
  return out;
}

// ---------------------------------------------------------------------
// Host stamp and output.

std::string ReadCpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string FilesystemOf(const std::string& path) {
  struct statfs fs;
  if (statfs(path.c_str(), &fs) != 0) return "unknown";
  static const std::map<long, const char*> kNames = {
      {0xEF53, "ext4"},         {0x58465342, "xfs"},
      {0x9123683E, "btrfs"},    {0x01021994, "tmpfs"},
      {0x794c7630, "overlayfs"}, {0x6969, "nfs"}};
  auto it = kNames.find(static_cast<long>(fs.f_type));
  if (it != kNames.end()) return it->second;
  char hex[32];
  snprintf(hex, sizeof(hex), "0x%lx", static_cast<long>(fs.f_type));
  return hex;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

void PrintStamp(const std::string& workload, uint64_t seed, int trace,
                const std::string& workdir, const std::string& commit,
                int pinned_cpu) {
  struct utsname uts;
  uname(&uts);
  printf("host {\"nproc\":%ld,\"cpu\":\"%s\",\"kernel\":\"%s\","
         "\"vault_fs\":\"%s\",\"compiler\":\"g++ %s\","
         "\"build_type\":\"%s\",\"commit\":\"%s\",\"workload\":\"%s\","
         "\"seed\":%llu,\"trace\":%d,\"pinned_cpu\":%d}\n",
         sysconf(_SC_NPROCESSORS_ONLN), JsonEscape(ReadCpuModel()).c_str(),
         JsonEscape(uts.release).c_str(), FilesystemOf(workdir).c_str(),
         JsonEscape(__VERSION__).c_str(), PERFBENCH_BUILD_TYPE,
         JsonEscape(commit).c_str(), workload.c_str(),
         static_cast<unsigned long long>(seed), trace, pinned_cpu);
}

void PrintOutcome(const Outcome& o) {
  for (const Metric& m : o.metrics) {
    if (m.samples > 0) {
      printf("  %-28s %.6g %s (n=%llu)\n", m.name.c_str(), m.value,
             m.unit.c_str(), static_cast<unsigned long long>(m.samples));
    } else {
      printf("  %-28s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
  if (!o.correct) printf("  CHECK FAILED: %s\n", o.why.c_str());
  std::string json = "{\"correct\": ";
  json += o.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(o.attempted);
  json += ", \"failed\": " + std::to_string(o.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < o.metrics.size(); ++i) {
    char value[64];
    snprintf(value, sizeof(value), "%.17g",
             std::isfinite(o.metrics[i].value) ? o.metrics[i].value : 0.0);
    json += (i ? ", \"" : "\"") + o.metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + o.metrics[i].unit + "\"}";
  }
  json += "}}";
  printf("%s\n", json.c_str());
  fflush(stdout);
}

// ---------------------------------------------------------------------
// Self-test: the benchmark's own checks, small enough for ctest.

int Check(bool ok, const std::string& what) {
  printf("  [%s] %s\n", ok ? "ok" : "FAIL", what.c_str());
  return ok ? 0 : 1;
}

int SelfTest(const std::string& workdir) {
  int failures = 0;

  // Histogram percentiles within 1% of the exact order statistic.
  {
    Rng rng(7);
    std::vector<uint64_t> values;
    LogHistogram h;
    for (int i = 0; i < 200000; ++i) {
      const uint64_t v = static_cast<uint64_t>(
          std::exp(rng.Unit() * std::log(1e10)));  // 1 ns .. 10 s
      values.push_back(v);
      h.Record(v);
    }
    std::sort(values.begin(), values.end());
    double worst = 0;
    for (double p : {0.01, 0.5, 0.9, 0.99, 0.999}) {
      const double exact =
          static_cast<double>(values[static_cast<size_t>(p * values.size())]);
      const double got = h.PercentileMicros(p) * 1e3;
      if (exact >= LogHistogram::kSub) {
        worst = std::max(worst, std::fabs(got - exact) / exact);
      }
    }
    failures += Check(worst <= 0.01, "histogram percentile error " +
                                         std::to_string(worst * 100) + "%");
  }

  // Every workload end to end and traced, shrunk: the oracle, the
  // durability check and every metric must come out.
  for (const WorkloadSpec& full : AllWorkloads()) {
    WorkloadSpec spec = full;
    spec.notes = std::min<uint32_t>(spec.notes, 4096);
    spec.ops_per_second = 800;
    for (int trace = 0; trace <= 1; ++trace) {
      Outcome o = trace == 0
                      ? RunEndToEnd(spec, 11, 1.0, workdir, 1, 1, -1)
                      : RunTraced(spec, 11, 1.0, workdir);
      bool finite = !o.metrics.empty();
      for (const Metric& m : o.metrics) {
        finite = finite && std::isfinite(m.value);
      }
      const std::string what = std::string(spec.name) +
                               (trace ? " traced" : " end-to-end") +
                               (o.why.empty() ? "" : ": " + o.why);
      failures += Check(
          o.correct && o.failed == 0 && o.attempted > 0 && finite, what);
    }
  }

  // The oracle is not vacuous: a wrong text for a note is caught.
  {
    WorkloadSpec spec = *FindWorkload("portal_reads");
    Bench bench(spec, 5, workdir + "/vault", false);
    Status s = bench.Setup();
    failures += Check(s.ok(), "oracle probe set-up");
    const bool caught = !bench.ExpectRead(0, 0, NoteText(5, 1, 0)) &&
                        !bench.oracle_failure().empty();
    failures += Check(caught, "oracle rejects another note's text");
  }
  std::filesystem::remove_all(workdir + "/vault");
  printf("self-test: %s\n", failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}

int Usage() {
  fprintf(stderr,
          "usage: medvault_perfbench --workload <name> --seed <n> "
          "--seconds <s> --trace <0|1> --workdir <dir> [--commit <sha>]\n"
          "       medvault_perfbench --self-test --workdir <dir>\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  std::string workdir;
  std::string commit = "unknown";
  uint64_t seed = 1;
  double seconds = 5;
  int trace = 0;
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--self-test") {
      self_test = true;
      continue;
    }
    if (value == nullptr) return Usage();
    ++i;
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::atof(value);
    } else if (arg == "--trace") {
      trace = std::atoi(value);
    } else if (arg == "--workdir") {
      workdir = value;
    } else if (arg == "--commit") {
      commit = value;
    } else {
      return Usage();
    }
  }
  if (workdir.empty()) return Usage();
  std::filesystem::create_directories(workdir);
  if (self_test) return SelfTest(workdir);

  const WorkloadSpec* spec = FindWorkload(workload);
  if (spec == nullptr || seconds <= 0 || (trace != 0 && trace != 1)) {
    return Usage();
  }
  // The end-to-end run is measured on one CPU; the traced run keeps
  // every CPU, so its per-layer latencies include the program's own
  // parallelism.
  const int cpu = trace == 0 ? PinToOneCpu() : -1;
  PrintStamp(workload, seed, trace, workdir, commit, cpu);
  Outcome o = trace == 0 ? RunEndToEnd(*spec, seed, seconds, workdir, kSetups,
                                       kReopens, cpu)
                         : RunTraced(*spec, seed, seconds, workdir);
  std::filesystem::remove_all(workdir + "/vault");
  PrintOutcome(o);
  return o.correct ? 0 : 1;
}
