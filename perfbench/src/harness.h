#ifndef MEDVAULT_PERFBENCH_HARNESS_H_
#define MEDVAULT_PERFBENCH_HARNESS_H_

#include <time.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "core/sharded_vault.h"
#include "histogram.h"
#include "reference.h"
#include "obs/metrics.h"
#include "server/server.h"
#include "storage/instrumented_env.h"
#include "timing_env.h"
#include "workload.h"

namespace perfbench {

/// Depth at which a pass drives the op stream.
enum class Depth {
  kHttp,    ///< HttpClient::Do over a keep-alive socket
  kRouter,  ///< MedVaultServer::Handle on a parsed request
  kEngine,  ///< ShardedVault calls, SyncAll timed on its own
};

/// What one connection saw in one pass.
struct ThreadStats {
  std::array<LogHistogram, kKinds> by_kind;  ///< engine: without SyncAll
  LogHistogram total;                        ///< whole op at this depth
  LogHistogram sync;                         ///< engine SyncAll calls
  uint64_t attempted = 0;
  uint64_t failed = 0;  ///< error or refused (503) responses
  uint64_t search_hits = 0;
  uint64_t search_ns = 0;  ///< engine time of the searches above

  void Merge(const ThreadStats& other);
};

/// CPU seconds on a CPU-time clock (CLOCK_PROCESS_CPUTIME_ID, or a
/// thread's clock from pthread_getcpuclockid); 0 if it cannot be read.
double CpuSeconds(clockid_t clock);

/// CPU seconds used so far by every thread of the process. Unlike wall
/// time, this does not grow while a thread waits: for a CPU, a lock, a
/// wake-up or I/O.
double ProcessCpuSeconds();

/// CPU seconds the host has taken from this guest's virtual CPU `cpu`
/// (the `steal` column of /proc/stat, in clock ticks), or from all of
/// them when `cpu` is negative. Allocates nothing.
double StealSeconds(int cpu);

/// Per-slice rates of a pass, sampled every kSliceSeconds while every
/// connection is busy. A slice's rate is its operations (or server CPU
/// per operation) over its own length; the pass reports the median.
/// The reference runs once per slice.
constexpr double kSliceSeconds = 0.1;
/// Server CPU per operation is the median over the slices in which the
/// host took no time from the CPU the pass runs on, when at least this
/// many had none; otherwise over the quarter of slices (at least 5)
/// with the least taken. See README, "Slices the host took time from".
constexpr size_t kMinStealFreeSlices = 10;

struct PassResult {
  std::unique_ptr<ThreadStats> stats;
  double wall_s = 0;
  /// Process CPU over the pass minus the connection threads' and the
  /// timing thread's own CPU: what the server, the vault and their
  /// background threads spent.
  double server_cpu_s = 0;
  /// Medians over the pass's slices; 0 when it had fewer than five.
  size_t slices = 0;
  double slice_ops_s = 0;
  double slice_cpu_us_per_op = 0;
  /// Slices the host took no CPU time from, and how many slices
  /// slice_cpu_us_per_op is the median of.
  size_t steal_free_slices = 0;
  size_t cost_slices = 0;
  /// Sampled by the pass's own timing thread once per slice.
  Reference reference;
  double ops_s() const {
    return wall_s > 0 ? static_cast<double>(stats->attempted) / wall_s : 0;
  }
};

/// One benchmark instance: a MedVaultServer with medvaultd's settings in
/// front of a disk-backed ShardedVault, the seeded corpus behind it, the
/// logged-in sessions, and the oracle every response is checked against.
class Bench {
 public:
  Bench(const WorkloadSpec& spec, uint64_t seed, std::string dir,
        bool instrumented);
  ~Bench();

  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

  /// Opens a fresh vault, registers principals, ingests the corpus,
  /// starts the server and logs every session in.
  medvault::Status Setup();

  /// Runs each connection's `ops` on its own thread at `depth`, all
  /// connections at once. `timed` false skips the per-op clock reads.
  /// `steal_cpu` is the CPU whose steal sorts the slices (-1: all).
  PassResult RunPass(Depth depth, const ConnOps& ops, bool timed,
                     int steal_cpu = -1);

  /// Times `count` engine calls of `kind` on one thread (conn 0).
  std::unique_ptr<ThreadStats> Probe(int kind, uint64_t count);

  /// Mean Lookup time against the live session table, microseconds.
  double TimeSessionLookup(uint64_t count);

  /// Medians over the reopens of one recovery open.
  struct ReopenTimes {
    double wall_s = 0;
    double cpu_s = 0;
    double scaled_cpu_s = 0;  ///< cpu_s at the reference's nominal speed
  };

  /// Stops the server, closes the vault, measures the directory, then
  /// reopens it `reopens` times, each between two reference samples,
  /// and checks that every acknowledged write reads back and
  /// VerifyEverything passes on the last open.
  medvault::Status CloseReopenVerify(int reopens, ReopenTimes* times,
                                     uint64_t* dir_bytes);

  const Corpus& corpus() const { return corpus_; }
  medvault::core::ShardedVault* vault() { return vault_.get(); }
  medvault::obs::MetricsRegistry* metrics() { return &metrics_; }
  medvault::storage::IoStats* io() { return &io_; }
  TimingEnv* timing_env() { return timing_.get(); }
  size_t live_sessions();
  uint64_t AuditEvents();
  uint64_t user_bytes() const { return user_bytes_.load(); }

  /// Checks a read of set-up note `note` against the oracle: the
  /// original text until a correction is acked (`acked_before` is the
  /// count acked when the read was sent), then that correction or a
  /// later issued one. A mismatch is recorded and returns false.
  bool ExpectRead(uint32_t note, uint32_t acked_before,
                  const std::string& content);

  /// Empty while every check passed; else the first mismatch.
  std::string oracle_failure();
  void FailOracle(const std::string& why);

 private:
  struct Created {
    std::string id;
    uint32_t seq;
    uint32_t patient;
  };
  struct Pending {
    Op op;
    uint32_t k = 0;             ///< correction number
    uint32_t seq = 0;           ///< create sequence
    uint32_t patient = 0;       ///< create patient
    uint32_t acked_before = 0;  ///< read: corrections acked at send
  };
  struct Call {
    std::string method;
    std::string target;
    std::string body;
    std::string bearer;
  };

  medvault::Status OpenVault();
  Pending Begin(int conn, const Op& op);
  Call ToCall(int conn, const Pending& p) const;
  bool FinishCall(int conn, const Pending& p, int status,
                  const std::string& body);
  bool RunEngine(int conn, const Pending& p, ThreadStats* stats, bool timed);
  void AckCreate(int conn, const Pending& p, const std::string& id);
  void AckCorrection(const Pending& p);
  std::string ExpectedNote(uint32_t note) const;
  const std::string& ActorToken(int conn, const Pending& p) const;

  const WorkloadSpec& spec_;
  const uint64_t seed_;
  const std::string dir_;
  Corpus corpus_;

  medvault::SystemClock clock_;
  medvault::storage::IoStats io_;
  std::unique_ptr<medvault::storage::InstrumentedEnv> counted_;
  std::unique_ptr<TimingEnv> timing_;
  medvault::storage::Env* env_;
  medvault::obs::MetricsRegistry metrics_;
  std::unique_ptr<medvault::core::ShardedVault> vault_;
  std::unique_ptr<medvault::server::MedVaultServer> server_;

  std::vector<std::string> note_ids_;
  std::vector<std::string> clinician_tokens_;
  std::vector<std::string> auditor_tokens_;
  std::vector<std::string> patient_tokens_;  ///< portal sessions only

  // Correction state per set-up note: corrections issued and acked.
  std::unique_ptr<std::atomic<uint32_t>[]> issued_;
  std::unique_ptr<std::atomic<uint32_t>[]> acked_;
  std::array<uint32_t, kConns> next_seq_{};          ///< per-conn creates
  std::array<std::vector<Created>, kConns> created_;  ///< acked creates
  std::atomic<uint64_t> user_bytes_{0};  ///< plaintext acknowledged

  std::mutex failure_mu_;
  std::string failure_;  // guarded by failure_mu_
};

}  // namespace perfbench

#endif  // MEDVAULT_PERFBENCH_HARNESS_H_
