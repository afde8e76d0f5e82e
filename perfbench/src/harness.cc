#include "harness.h"

#include <fcntl.h>
#include <pthread.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <latch>
#include <string_view>
#include <thread>
#include <unordered_set>
#include <utility>

#include "server/http.h"
#include "server/http_client.h"
#include "storage/posix_env.h"

namespace perfbench {
namespace {

using medvault::Result;
using medvault::Status;
using medvault::core::Role;
using medvault::core::ShardedVault;
using medvault::core::ShardedVaultOptions;
using medvault::core::Vault;
using medvault::server::HttpClient;
using medvault::server::HttpRequest;
using medvault::server::HttpResponse;
using medvault::server::MedVaultServer;
using medvault::server::ServerOptions;

constexpr char kApiSecret[] = "perfbench-api-secret";
constexpr char kAdmin[] = "admin";
constexpr char kReason[] = "perfbench correction";
constexpr size_t kIngestBatch = 256;

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double MedianOf(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// The server emits compact JSON (sorted keys, no whitespace) and every
// string the benchmark reads back is free of escapes, so fields are
// found by their exact `"key":` prefix.
bool JsonString(const std::string& body, const std::string& key,
                std::string* out) {
  const std::string needle = "\"" + key + "\":\"";
  size_t at = body.find(needle);
  if (at == std::string::npos) return false;
  at += needle.size();
  const size_t end = body.find('"', at);
  if (end == std::string::npos || body.find('\\', at) < end) return false;
  out->assign(body, at, end - at);
  return true;
}

bool JsonUint(const std::string& body, const std::string& key,
              uint64_t* out) {
  const std::string needle = "\"" + key + "\":";
  size_t at = body.find(needle);
  if (at == std::string::npos) return false;
  at += needle.size();
  uint64_t v = 0;
  size_t i = at;
  for (; i < body.size() && body[i] >= '0' && body[i] <= '9'; ++i) {
    v = v * 10 + static_cast<uint64_t>(body[i] - '0');
  }
  *out = v;
  return i > at;
}

bool JsonStringArray(const std::string& body, const std::string& key,
                     std::vector<std::string_view>* out) {
  const std::string needle = "\"" + key + "\":[";
  size_t at = body.find(needle);
  if (at == std::string::npos) return false;
  at += needle.size();
  const std::string_view view(body);
  while (at < body.size() && body[at] != ']') {
    if (body[at] == ',') ++at;
    if (at >= body.size() || body[at] != '"') return false;
    const size_t end = body.find('"', at + 1);
    if (end == std::string::npos) return false;
    out->push_back(view.substr(at + 1, end - at - 1));
    at = end + 1;
  }
  return at < body.size();
}

std::string KeywordsJson(const std::string& keyword) {
  return "[\"" + keyword + "\"]";
}

Result<std::string> Login(HttpClient* client, const std::string& principal) {
  auto r = client->Do("POST", "/v1/login",
                      "{\"principal\":\"" + principal + "\",\"secret\":\"" +
                          kApiSecret + "\"}");
  if (!r.ok()) return r.status();
  std::string token;
  if (r->status != 200 || !JsonString(r->body, "token", &token)) {
    return Status::PermissionDenied("login of " + principal +
                                    " failed: " + r->body);
  }
  return token;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

}  // namespace

double CpuSeconds(clockid_t clock) {
  struct timespec ts;
  if (clock_gettime(clock, &ts) != 0) return 0;
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double ProcessCpuSeconds() { return CpuSeconds(CLOCK_PROCESS_CPUTIME_ID); }

double StealSeconds(int cpu) {
  // Read with one read() into a stack buffer and parsed in place: the
  // pass samples this every slice, and heap allocation on the timing
  // thread perturbed the server's measured CPU.
  char buf[1 << 16];
  const int fd = open("/proc/stat", O_RDONLY | O_CLOEXEC);
  if (fd < 0) return 0;
  size_t len = 0;
  while (len < sizeof(buf) - 1) {
    const ssize_t got = read(fd, buf + len, sizeof(buf) - 1 - len);
    if (got <= 0) break;
    len += static_cast<size_t>(got);
  }
  close(fd);
  buf[len] = 0;
  char want[16];
  if (cpu < 0) {
    snprintf(want, sizeof(want), "cpu ");
  } else {
    snprintf(want, sizeof(want), "cpu%d ", cpu);
  }
  const size_t want_len = strlen(want);
  for (char* line = buf; *line != 0;) {
    char* next = strchr(line, '\n');
    if (strncmp(line, want, want_len) == 0) {
      char* p = line + want_len;
      double field = 0;
      for (int i = 0; i < 8; ++i) field = strtod(p, &p);
      return field / static_cast<double>(sysconf(_SC_CLK_TCK));
    }
    if (next == nullptr) break;
    line = next + 1;
  }
  return 0;
}

void ThreadStats::Merge(const ThreadStats& other) {
  for (int k = 0; k < kKinds; ++k) by_kind[k].Merge(other.by_kind[k]);
  total.Merge(other.total);
  sync.Merge(other.sync);
  attempted += other.attempted;
  failed += other.failed;
  search_hits += other.search_hits;
  search_ns += other.search_ns;
}

Bench::Bench(const WorkloadSpec& spec, uint64_t seed, std::string dir,
             bool instrumented)
    : spec_(spec),
      seed_(seed),
      dir_(std::move(dir)),
      corpus_(spec, seed),
      issued_(new std::atomic<uint32_t>[spec.notes]),
      acked_(new std::atomic<uint32_t>[spec.notes]) {
  env_ = medvault::storage::PosixEnv::Default();
  if (instrumented) {
    counted_ = std::make_unique<medvault::storage::InstrumentedEnv>(env_, &io_);
    timing_ = std::make_unique<TimingEnv>(counted_.get());
    env_ = timing_.get();
  }
  for (uint32_t n = 0; n < spec.notes; ++n) {
    issued_[n].store(0);
    acked_[n].store(0);
  }
}

Bench::~Bench() {
  if (server_) server_->Stop();
}

Status Bench::OpenVault() {
  ShardedVaultOptions options;
  options.env = env_;
  options.dir = dir_;
  options.clock = &clock_;
  options.master_key = std::string(32, 'k');
  options.entropy = "perfbench-entropy";
  options.num_shards = 4;
  options.metrics = &metrics_;
  // medvaultd's settings: 500 us commit window, degraded-open posture,
  // the default 4 MiB RecordCache.
  options.commit_window_micros = 500;
  options.open_mode = medvault::core::OpenMode::kDegraded;
  auto opened = ShardedVault::Open(options);
  if (!opened.ok()) return opened.status();
  vault_ = std::move(*opened);
  return Status::OK();
}

Status Bench::Setup() {
  std::filesystem::remove_all(dir_);
  std::filesystem::create_directories(dir_);
  MEDVAULT_RETURN_IF_ERROR(OpenVault());
  ShardedVault* v = vault_.get();

  MEDVAULT_RETURN_IF_ERROR(
      v->RegisterPrincipal("boot", {kAdmin, Role::kAdmin, "Admin"}));
  for (int c = 0; c < kConns; ++c) {
    MEDVAULT_RETURN_IF_ERROR(v->RegisterPrincipal(
        kAdmin, {Clinician(c), Role::kPhysician, Clinician(c)}));
    MEDVAULT_RETURN_IF_ERROR(v->RegisterPrincipal(
        kAdmin, {Auditor(c), Role::kAuditor, Auditor(c)}));
  }
  for (uint32_t p = 0; p < kPatients; ++p) {
    MEDVAULT_RETURN_IF_ERROR(v->RegisterPrincipal(
        kAdmin, {PatientId(p), Role::kPatient, PatientId(p)}));
    for (int c = 0; c < kConns; ++c) {
      MEDVAULT_RETURN_IF_ERROR(
          v->AssignCare(kAdmin, Clinician(c), PatientId(p)));
    }
  }

  note_ids_.clear();
  note_ids_.reserve(spec_.notes);
  std::vector<Vault::NewRecord> batch;
  for (uint32_t p = 0; p < kPatients; ++p) {
    for (uint32_t n = corpus_.FirstNote(p);
         n < corpus_.FirstNote(p) + corpus_.NoteCount(p); ++n) {
      batch.push_back({PatientId(p), "text/plain", NoteText(seed_, n, p),
                       {ChartKeyword(p)}, "hipaa-6y"});
      if (batch.size() == kIngestBatch ||
          n + 1 == corpus_.notes()) {
        auto ids = v->CreateRecordsBatch(Clinician(0), batch);
        if (!ids.ok()) return ids.status();
        note_ids_.insert(note_ids_.end(), ids->begin(), ids->end());
        batch.clear();
      }
    }
  }
  MEDVAULT_RETURN_IF_ERROR(v->SyncAll());
  user_bytes_ += static_cast<uint64_t>(spec_.notes) * kNoteBytes;

  ServerOptions options;
  options.port = 0;
  options.worker_threads = kConns;
  options.api_secret = kApiSecret;
  options.session_entropy = "perfbench-sessions";
  options.clock = &clock_;
  options.durable_writes = true;
  auto started = MedVaultServer::Start(v, options);
  if (!started.ok()) return started.status();
  server_ = std::move(*started);

  // The client closes before any pass starts, so its worker is free.
  HttpClient client;
  MEDVAULT_RETURN_IF_ERROR(client.Connect(server_->port()));
  clinician_tokens_.clear();
  auditor_tokens_.clear();
  patient_tokens_.clear();
  for (int c = 0; c < kConns; ++c) {
    MEDVAULT_ASSIGN_OR_RETURN(std::string doctor, Login(&client, Clinician(c)));
    MEDVAULT_ASSIGN_OR_RETURN(std::string auditor, Login(&client, Auditor(c)));
    clinician_tokens_.push_back(std::move(doctor));
    auditor_tokens_.push_back(std::move(auditor));
  }
  if (spec_.patient_sessions) {
    for (uint32_t p = 0; p < kPatients; ++p) {
      MEDVAULT_ASSIGN_OR_RETURN(std::string token,
                                Login(&client, PatientId(p)));
      patient_tokens_.push_back(std::move(token));
    }
  }
  return Status::OK();
}

Bench::Pending Bench::Begin(int conn, const Op& op) {
  Pending p;
  p.op = op;
  switch (op.kind) {
    case kRead:
      p.acked_before = acked_[op.target].load(std::memory_order_acquire);
      break;
    case kCorrect:
      // Only this connection corrects this note (see OpStream).
      p.k = issued_[op.target].load() + 1;
      issued_[op.target].store(p.k);
      break;
    case kCreate:
      p.seq = next_seq_[conn]++;
      p.patient = op.target;
      break;
    default:
      break;
  }
  return p;
}

const std::string& Bench::ActorToken(int conn, const Pending& p) const {
  if (p.op.kind == kRead && spec_.patient_sessions) {
    return patient_tokens_[corpus_.PatientOfNote(p.op.target)];
  }
  if (p.op.kind == kDisclosure) return auditor_tokens_[conn];
  return clinician_tokens_[conn];
}

Bench::Call Bench::ToCall(int conn, const Pending& p) const {
  const uint32_t t = p.op.target;
  Call call;
  call.bearer = ActorToken(conn, p);
  switch (p.op.kind) {
    case kRead:
      call.method = "GET";
      call.target = "/v1/records/" + note_ids_[t];
      break;
    case kSearch:
      call.method = "POST";
      call.target = "/v1/search";
      call.body = "{\"terms\":" + KeywordsJson(ChartKeyword(t)) + "}";
      break;
    case kCreate:
      call.method = "POST";
      call.target = "/v1/records";
      call.body = "{\"patient_id\":\"" + PatientId(t) + "\",\"content\":\"" +
                  CreatedText(seed_, conn, p.seq, t) +
                  "\",\"keywords\":" + KeywordsJson(IntakeKeyword(t)) + "}";
      break;
    case kCorrect:
      call.method = "POST";
      call.target = "/v1/records/" + note_ids_[t] + "/correct";
      call.body = "{\"content\":\"" + CorrectionText(seed_, t, p.k) +
                  "\",\"reason\":\"" + kReason + "\",\"keywords\":" +
                  KeywordsJson(ChartKeyword(corpus_.PatientOfNote(t))) + "}";
      break;
    case kDisclosure:
      call.method = "GET";
      call.target = "/v1/transparency/disclosures?patient=" + PatientId(t);
      break;
  }
  return call;
}

std::string Bench::ExpectedNote(uint32_t note) const {
  const uint32_t k = acked_[note].load();
  return k == 0 ? NoteText(seed_, note, corpus_.PatientOfNote(note))
                : CorrectionText(seed_, note, k);
}

bool Bench::ExpectRead(uint32_t note, uint32_t acked_before,
                       const std::string& content) {
  // The original text until a correction is acked; after that, the
  // acked correction or a later one already issued.
  const uint32_t k = CorrectionNumber(content);
  const bool ok =
      k == 0 ? acked_before == 0 &&
                   content == NoteText(seed_, note,
                                       corpus_.PatientOfNote(note))
             : k >= acked_before && k <= issued_[note].load() &&
                   content == CorrectionText(seed_, note, k);
  if (!ok) {
    FailOracle("read of note " + std::to_string(note) + " (" +
               note_ids_[note] + ") returned unexpected content");
  }
  return ok;
}

void Bench::AckCreate(int conn, const Pending& p, const std::string& id) {
  created_[conn].push_back({id, p.seq, p.patient});
  user_bytes_ += kNoteBytes;
}

void Bench::AckCorrection(const Pending& p) {
  acked_[p.op.target].store(p.k, std::memory_order_release);
  user_bytes_ += kNoteBytes;
}

bool Bench::FinishCall(int conn, const Pending& p, int status,
                       const std::string& body) {
  const uint32_t t = p.op.target;
  if (status != (p.op.kind == kCreate ? 201 : 200)) return false;
  switch (p.op.kind) {
    case kRead: {
      std::string content;
      if (!JsonString(body, "content", &content)) {
        FailOracle("read response without content: " + body.substr(0, 200));
        return true;
      }
      ExpectRead(t, p.acked_before, content);
      break;
    }
    case kSearch: {
      std::vector<std::string_view> ids;
      if (!JsonStringArray(body, "record_ids", &ids)) {
        FailOracle("search response without record_ids");
        return true;
      }
      const std::unordered_set<std::string_view> hits(ids.begin(), ids.end());
      for (uint32_t n = corpus_.FirstNote(t);
           n < corpus_.FirstNote(t) + corpus_.NoteCount(t); ++n) {
        if (hits.count(note_ids_[n]) == 0) {
          FailOracle("search for " + ChartKeyword(t) + " missed " +
                     note_ids_[n]);
          break;
        }
      }
      break;
    }
    case kCreate: {
      std::string id;
      if (!JsonString(body, "record_id", &id)) {
        FailOracle("create response without record_id");
        return true;
      }
      AckCreate(conn, p, id);
      break;
    }
    case kCorrect: {
      uint64_t version = 0;
      if (!JsonUint(body, "version", &version) || version != p.k + 1) {
        FailOracle("correction " + std::to_string(p.k) + " of " +
                   note_ids_[t] + " acked as version " +
                   std::to_string(version));
        return true;
      }
      AckCorrection(p);
      break;
    }
    case kDisclosure: {
      std::string patient;
      if (!JsonString(body, "patient", &patient) || patient != PatientId(t) ||
          body.find("\"events\":[") == std::string::npos) {
        FailOracle("disclosure report for " + PatientId(t) + " malformed");
      }
      break;
    }
  }
  return true;
}

bool Bench::RunEngine(int conn, const Pending& p, ThreadStats* stats,
                      bool timed) {
  ShardedVault* v = vault_.get();
  const uint32_t t = p.op.target;
  // Inputs are built before the clock starts: only the engine is timed.
  std::string text;
  if (p.op.kind == kCreate) text = CreatedText(seed_, conn, p.seq, t);
  if (p.op.kind == kCorrect) text = CorrectionText(seed_, t, p.k);
  const std::string actor =
      p.op.kind == kRead && spec_.patient_sessions
          ? PatientId(corpus_.PatientOfNote(t))
          : (p.op.kind == kDisclosure ? Auditor(conn) : Clinician(conn));

  const uint64_t t0 = timed ? NowNanos() : 0;
  uint64_t t1 = 0;
  uint64_t t2 = 0;
  bool ok = false;
  switch (p.op.kind) {
    case kRead: {
      auto r = v->ReadRecord(actor, note_ids_[t]);
      t1 = timed ? NowNanos() : 0;
      ok = r.ok();
      if (ok) ExpectRead(t, p.acked_before, r->plaintext);
      break;
    }
    case kSearch: {
      auto r = v->SearchKeyword(actor, ChartKeyword(t));
      t1 = timed ? NowNanos() : 0;
      ok = r.ok();
      if (ok) {
        stats->search_hits += r->size();
        stats->search_ns += t1 - t0;
        const std::unordered_set<std::string_view> hits(r->begin(), r->end());
        for (uint32_t n = corpus_.FirstNote(t);
             n < corpus_.FirstNote(t) + corpus_.NoteCount(t); ++n) {
          if (hits.count(note_ids_[n]) == 0) {
            FailOracle("engine search for " + ChartKeyword(t) + " missed " +
                       note_ids_[n]);
            break;
          }
        }
      }
      break;
    }
    case kCreate: {
      auto r = v->CreateRecord(actor, PatientId(t), "text/plain", text,
                               {IntakeKeyword(t)}, "hipaa-6y");
      t1 = timed ? NowNanos() : 0;
      Status synced = r.ok() ? v->SyncAll() : r.status();
      t2 = timed ? NowNanos() : 0;
      ok = synced.ok();
      if (ok) AckCreate(conn, p, *r);
      break;
    }
    case kCorrect: {
      auto r = v->CorrectRecord(actor, note_ids_[t], text, kReason,
                                {ChartKeyword(corpus_.PatientOfNote(t))});
      t1 = timed ? NowNanos() : 0;
      Status synced = r.ok() ? v->SyncAll() : r.status();
      t2 = timed ? NowNanos() : 0;
      ok = synced.ok();
      if (ok) {
        if (r->version != p.k + 1) {
          FailOracle("engine correction of " + note_ids_[t] +
                     " acked as version " + std::to_string(r->version));
        } else {
          AckCorrection(p);
        }
      }
      break;
    }
    case kDisclosure: {
      auto r = v->AccountingOfDisclosures(actor, PatientId(t));
      t1 = timed ? NowNanos() : 0;
      ok = r.ok();
      break;
    }
  }
  if (timed) {
    stats->by_kind[p.op.kind].Record(t1 - t0);
    if (t2 != 0) stats->sync.Record(t2 - t1);
    stats->total.Record((t2 != 0 ? t2 : t1) - t0);
  }
  return ok;
}

PassResult Bench::RunPass(Depth depth, const ConnOps& ops, bool timed,
                          int steal_cpu) {
  std::vector<std::unique_ptr<ThreadStats>> stats;
  for (int c = 0; c < kConns; ++c) {
    stats.push_back(std::make_unique<ThreadStats>());
  }
  // Each connection thread publishes its CPU clock, counts the ops it
  // completes, and stays alive after its last op until the pass has
  // read every clock, so the server's share of the process CPU is the
  // process clock minus the connection threads' clocks.
  std::array<clockid_t, kConns> client_clock{};
  std::array<uint64_t, kConns> end_ns{};
  std::atomic<uint64_t> completed{0};
  std::atomic<int> finished{0};
  std::latch ready(kConns);
  std::latch go(1);
  std::latch done(kConns);
  std::latch release(1);
  std::vector<std::thread> threads;
  for (int c = 0; c < kConns; ++c) {
    threads.emplace_back([&, c] {
      ThreadStats* st = stats[c].get();
      HttpClient client;
      const bool connected =
          depth != Depth::kHttp || client.Connect(server_->port()).ok();
      pthread_getcpuclockid(pthread_self(), &client_clock[c]);
      ready.count_down();
      go.wait();
      for (const Op& op : ops[c]) {
        const Pending p = Begin(c, op);
        ++st->attempted;
        bool ok = false;
        if (depth == Depth::kEngine) {
          ok = RunEngine(c, p, st, timed);
        } else if (connected) {
          const Call call = ToCall(c, p);
          const uint64_t t0 = timed ? NowNanos() : 0;
          int status = 0;
          std::string body;
          if (depth == Depth::kHttp) {
            auto r = client.Do(call.method, call.target, call.body,
                               call.bearer);
            if (r.ok()) {
              status = r->status;
              body = std::move(r->body);
            }
          } else {
            HttpRequest request;
            request.method = call.method;
            request.target = call.target;
            request.version = "HTTP/1.1";
            request.headers["authorization"] = "Bearer " + call.bearer;
            request.body = call.body;
            HttpResponse response = server_->Handle(request);
            status = response.status;
            body = std::move(response.body);
          }
          if (timed) {
            const uint64_t ns = NowNanos() - t0;
            st->by_kind[p.op.kind].Record(ns);
            st->total.Record(ns);
          }
          ok = FinishCall(c, p, status, body);
        }
        if (!ok) ++st->failed;
        completed.fetch_add(1, std::memory_order_relaxed);
      }
      end_ns[c] = NowNanos();
      finished.fetch_add(1);
      done.count_down();
      release.wait();
    });
  }
  auto server_cpu = [&] {
    double cpu = ProcessCpuSeconds() - CpuSeconds(CLOCK_THREAD_CPUTIME_ID);
    for (clockid_t clock : client_clock) cpu -= CpuSeconds(clock);
    return cpu;
  };
  PassResult result;
  ready.wait();
  const double cpu0 = server_cpu();
  const uint64_t start = NowNanos();
  go.count_down();
  std::vector<double> slice_rates;
  std::vector<double> slice_costs;
  std::vector<double> slice_steal;
  double steal_at = StealSeconds(steal_cpu);
  double cpu_at = cpu0;
  uint64_t ops_at = 0;
  uint64_t ns_at = start;
  const auto slice = std::chrono::duration<double>(kSliceSeconds);
  while (true) {
    std::this_thread::sleep_for(slice);
    if (finished.load() > 0) break;
    result.reference.Sample(1);
    const double cpu = server_cpu();
    const double steal = StealSeconds(steal_cpu);
    const uint64_t n = completed.load(std::memory_order_relaxed);
    const uint64_t ns = NowNanos();
    if (n > ops_at) {
      slice_rates.push_back(static_cast<double>(n - ops_at) * 1e9 /
                            static_cast<double>(ns - ns_at));
      slice_costs.push_back((cpu - cpu_at) * 1e6 /
                            static_cast<double>(n - ops_at));
      slice_steal.push_back(steal - steal_at);
    }
    steal_at = steal;
    cpu_at = cpu;
    ops_at = n;
    ns_at = ns;
  }
  done.wait();
  result.server_cpu_s = server_cpu() - cpu0;
  release.count_down();
  for (std::thread& t : threads) t.join();
  result.wall_s =
      static_cast<double>(*std::max_element(end_ns.begin(), end_ns.end()) -
                          start) /
      1e9;
  result.slices = slice_rates.size();
  if (slice_rates.size() >= 5) {
    result.slice_ops_s = MedianOf(slice_rates);
    // Order slices by the time the host took from the pass's CPU
    // (stable, so ties keep time order) and keep the steal-free ones,
    // or the least-stolen quarter when too few were free.
    std::vector<size_t> order(slice_costs.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return slice_steal[a] < slice_steal[b];
    });
    for (double stolen : slice_steal) {
      if (stolen == 0) ++result.steal_free_slices;
    }
    size_t keep = result.steal_free_slices;
    if (keep < kMinStealFreeSlices) {
      keep = std::max<size_t>(5, order.size() / 4);
    }
    std::vector<double> kept;
    for (size_t i = 0; i < keep; ++i) kept.push_back(slice_costs[order[i]]);
    result.slice_cpu_us_per_op = MedianOf(kept);
    result.cost_slices = keep;
  }
  result.stats = std::move(stats[0]);
  for (int c = 1; c < kConns; ++c) result.stats->Merge(*stats[c]);
  return result;
}

std::unique_ptr<ThreadStats> Bench::Probe(int kind, uint64_t count) {
  auto stats = std::make_unique<ThreadStats>();
  OpStream stream(spec_, corpus_, MixSeed(seed_, 0x9b0be + kind), 0);
  for (uint64_t i = 0; i < count; ++i) {
    const Pending p = Begin(0, stream.Of(kind));
    ++stats->attempted;
    if (!RunEngine(0, p, stats.get(), true)) ++stats->failed;
  }
  return stats;
}

double Bench::TimeSessionLookup(uint64_t count) {
  std::vector<std::string> tokens = clinician_tokens_;
  tokens.insert(tokens.end(), auditor_tokens_.begin(), auditor_tokens_.end());
  tokens.insert(tokens.end(), patient_tokens_.begin(), patient_tokens_.end());
  Rng rng(MixSeed(seed_, 0x5e55));
  uint64_t total_ns = 0;
  for (uint64_t i = 0; i < count; ++i) {
    const std::string& token =
        tokens[rng.Below(static_cast<uint32_t>(tokens.size()))];
    const uint64_t t0 = NowNanos();
    auto who = server_->sessions()->Lookup(token);
    total_ns += NowNanos() - t0;
    if (!who.ok()) FailOracle("live session token was refused");
  }
  return count == 0 ? 0 : static_cast<double>(total_ns) / count / 1e3;
}

size_t Bench::live_sessions() { return server_->sessions()->ActiveSessions(); }

uint64_t Bench::AuditEvents() {
  uint64_t events = 0;
  for (uint32_t k = 0; k < vault_->num_shards(); ++k) {
    if (Vault* shard = vault_->shard(k)) events += shard->audit()->size();
  }
  return events;
}

Status Bench::CloseReopenVerify(int reopens, ReopenTimes* out,
                                uint64_t* dir_bytes) {
  server_->Stop();
  server_.reset();
  vault_.reset();
  *dir_bytes = DirBytes(dir_);

  std::vector<double> wall;
  std::vector<double> cpu;
  std::vector<double> scaled;
  for (int i = 0; i < reopens; ++i) {
    vault_.reset();
    Reference reference;
    reference.Sample();
    const uint64_t t0 = NowNanos();
    const double cpu0 = ProcessCpuSeconds();
    MEDVAULT_RETURN_IF_ERROR(OpenVault());
    cpu.push_back(ProcessCpuSeconds() - cpu0);
    wall.push_back(static_cast<double>(NowNanos() - t0) / 1e9);
    reference.Sample();
    scaled.push_back(cpu.back() * reference.Scale());
  }
  out->wall_s = MedianOf(wall);
  out->cpu_s = MedianOf(cpu);
  out->scaled_cpu_s = MedianOf(scaled);

  for (uint32_t n = 0; n < spec_.notes; ++n) {
    auto r = vault_->ReadRecord(Clinician(0), note_ids_[n]);
    if (!r.ok()) return r.status();
    if (r->plaintext != ExpectedNote(n)) {
      return Status::Corruption("after reopen, " + note_ids_[n] +
                                " lost its last acknowledged version");
    }
  }
  for (int c = 0; c < kConns; ++c) {
    for (const Created& w : created_[c]) {
      auto r = vault_->ReadRecord(Clinician(0), w.id);
      if (!r.ok()) return r.status();
      if (r->plaintext != CreatedText(seed_, c, w.seq, w.patient)) {
        return Status::Corruption("after reopen, acknowledged write " + w.id +
                                  " reads back different content");
      }
    }
  }
  return vault_->VerifyEverything();
}

std::string Bench::oracle_failure() {
  std::lock_guard<std::mutex> lock(failure_mu_);
  return failure_;
}

void Bench::FailOracle(const std::string& why) {
  std::lock_guard<std::mutex> lock(failure_mu_);
  if (failure_.empty()) failure_ = why;
}

}  // namespace perfbench
