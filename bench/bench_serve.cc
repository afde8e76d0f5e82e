// E15 — HTTP front door: concurrent-connection latency curve and the
// admission-control saturation story (DESIGN.md "Server & admission
// control"; paper §3: availability under load without sacrificing the
// audited access path).
//
// Two tables:
//
//   1. Latency/throughput vs concurrent keep-alive connections: each
//      connection is a logged-in closed-loop client issuing a mixed
//      read/health workload. p50/p99 per request, aggregate req/s.
//   2. Saturation: a deliberately tiny server (2 workers, queue of 4)
//      with every worker parked mid-request and the queue full — the
//      acceptor must shed further offered load with an immediate 503 +
//      Retry-After instead of letting it hang. Measures time-to-503
//      for the shed requests and p99 for the accepted ones after the
//      parked connections drain, with the server.shed / server.accepted
//      counters printed for corroboration.
//
// Writes BENCH_serve.json (google-benchmark result format, consumed by
// tools/bench_compare.py against bench/baselines/BENCH_serve.json) and
// HEALTH_serve.json next to the binary.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/sharded_vault.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "server/http_client.h"
#include "server/server.h"
#include "storage/instrumented_env.h"
#include "storage/mem_env.h"
#include "storage/posix_env.h"

namespace medvault::bench {
namespace {

using core::Role;
using core::ShardedVault;
using core::ShardedVaultOptions;
using server::HttpClient;
using server::MedVaultServer;
using server::ServerOptions;

constexpr char kSecret[] = "bench-serve-secret";
constexpr int kPatients = 8;

struct Instance {
  storage::MemEnv env;
  std::unique_ptr<storage::InstrumentedEnv> ienv;
  ManualClock clock{1000000};
  std::unique_ptr<ShardedVault> vault;
  std::unique_ptr<MedVaultServer> server;
  std::vector<std::string> record_ids;

  ~Instance() {
    if (server) server->Stop();
  }
};

std::unique_ptr<Instance> MakeServer(unsigned workers, size_t max_queue,
                                     int records) {
  auto in = std::make_unique<Instance>();
  in->ienv = std::make_unique<storage::InstrumentedEnv>(
      &in->env, obs::ProcessIoStats());

  ShardedVaultOptions vopt;
  vopt.env = in->ienv.get();
  vopt.dir = "served";
  vopt.clock = &in->clock;
  vopt.master_key = std::string(32, 'B');
  vopt.entropy = "bench-serve-entropy";
  vopt.num_shards = 2;
  vopt.signer_height = 8;
  vopt.metrics = obs::MetricsRegistry::Default();
  auto opened = ShardedVault::Open(vopt);
  if (!opened.ok()) {
    fprintf(stderr, "open failed: %s\n", opened.status().ToString().c_str());
    abort();
  }
  in->vault = std::move(*opened);
  ShardedVault* v = in->vault.get();
  (void)v->RegisterPrincipal("boot", {"admin", Role::kAdmin, "A"});
  (void)v->RegisterPrincipal("admin", {"dr", Role::kPhysician, "D"});
  for (int p = 0; p < kPatients; p++) {
    std::string pat = "pat-" + std::to_string(p);
    (void)v->RegisterPrincipal("admin", {pat, Role::kPatient, pat});
    (void)v->AssignCare("admin", "dr", pat);
  }
  for (int i = 0; i < records; i++) {
    auto id = v->CreateRecord("dr", "pat-" + std::to_string(i % kPatients),
                              "text/plain",
                              "note " + std::to_string(i) +
                                  std::string(400, 'n'),
                              {"note"}, "hipaa-6y");
    if (!id.ok()) {
      fprintf(stderr, "create failed: %s\n", id.status().ToString().c_str());
      abort();
    }
    in->record_ids.push_back(*id);
  }
  Status synced = v->SyncAll();
  if (!synced.ok()) {
    fprintf(stderr, "sync failed: %s\n", synced.ToString().c_str());
    abort();
  }

  ServerOptions sopt;
  sopt.port = 0;
  sopt.worker_threads = workers;
  sopt.admission.max_queue = max_queue;
  sopt.api_secret = kSecret;
  sopt.session_entropy = "bench-serve-session-entropy";
  sopt.clock = &in->clock;
  sopt.durable_writes = false;  // latency curve, not the fsync story (E14)
  auto started = MedVaultServer::Start(v, sopt);
  if (!started.ok()) {
    fprintf(stderr, "server start failed: %s\n",
            started.status().ToString().c_str());
    abort();
  }
  in->server = std::move(*started);
  return in;
}

std::string Login(HttpClient* client) {
  auto r = client->Do("POST", "/v1/login",
                      std::string("{\"principal\": \"dr\", \"secret\": \"") +
                          kSecret + "\"}");
  if (!r.ok() || r->status != 200) {
    fprintf(stderr, "login failed\n");
    abort();
  }
  const std::string& body = r->body;
  size_t key = body.find("\"token\"");
  size_t open = body.find('"', body.find(':', key));
  size_t close = body.find('"', open + 1);
  return body.substr(open + 1, close - open - 1);
}

double Percentile(std::vector<double>* sorted_us, double p) {
  if (sorted_us->empty()) return 0;
  std::sort(sorted_us->begin(), sorted_us->end());
  size_t idx = static_cast<size_t>(p * (sorted_us->size() - 1));
  return (*sorted_us)[idx];
}

double NowUs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
             .count() /
         1000.0;
}

struct CurvePoint {
  int conns;
  double reqs_per_sec;
  double p50_us;
  double p99_us;
};

CurvePoint RunCurvePoint(Instance* in, int conns, int reqs_per_conn) {
  std::vector<std::vector<double>> lat(conns);
  std::atomic<int> failures{0};
  double start = NowUs();
  std::vector<std::thread> threads;
  threads.reserve(conns);
  for (int c = 0; c < conns; c++) {
    threads.emplace_back([&, c] {
      HttpClient client;
      if (!client.Connect(in->server->port()).ok()) {
        failures.fetch_add(reqs_per_conn);
        return;
      }
      std::string token = Login(&client);
      lat[c].reserve(reqs_per_conn);
      for (int i = 0; i < reqs_per_conn; i++) {
        // 3:1 record reads to health probes, records spread over shards.
        const std::string& target =
            (i % 4 == 3) ? "/v1/health"
                         : "/v1/records/" +
                               in->record_ids[(c * reqs_per_conn + i) %
                                              in->record_ids.size()];
        double t0 = NowUs();
        auto r = client.Do("GET", target, "", token);
        double t1 = NowUs();
        if (!r.ok() || r->status != 200) {
          failures.fetch_add(1);
          continue;
        }
        lat[c].push_back(t1 - t0);
      }
    });
  }
  for (auto& t : threads) t.join();
  double elapsed_us = NowUs() - start;
  if (failures.load() != 0) {
    fprintf(stderr, "curve point c=%d: %d failed requests\n", conns,
            failures.load());
    abort();
  }
  std::vector<double> all;
  for (auto& per_conn : lat) {
    all.insert(all.end(), per_conn.begin(), per_conn.end());
  }
  CurvePoint point;
  point.conns = conns;
  point.reqs_per_sec = all.size() / (elapsed_us / 1e6);
  point.p50_us = Percentile(&all, 0.50);
  point.p99_us = Percentile(&all, 0.99);
  return point;
}

struct SaturationResult {
  size_t shed = 0;
  size_t served = 0;
  double shed_p50_us = 0;
  double shed_p99_us = 0;
  double accepted_p99_us = 0;
};

SaturationResult RunSaturation(Instance* in, int offered) {
  SaturationResult result;
  uint16_t port = in->server->port();

  // Park both workers and fill the whole queue with half-sent
  // requests: the server is now hard-saturated, as if every handler
  // were stuck in a slow disk write.
  std::vector<std::unique_ptr<HttpClient>> parked;
  for (int i = 0; i < 2 + 4; i++) {
    auto client = std::make_unique<HttpClient>();
    if (!client->Connect(port).ok()) abort();
    if (!client->SendRaw("GET /v1/health HTTP/1.1\r\nConnection: close\r\n")
             .ok()) {
      abort();
    }
    parked.push_back(std::move(client));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }

  // Everything offered beyond capacity must be shed, promptly.
  std::vector<double> shed_lat;
  for (int i = 0; i < offered; i++) {
    HttpClient client;
    if (!client.Connect(port).ok()) abort();
    double t0 = NowUs();
    auto r = client.Do("GET", "/v1/health");
    double t1 = NowUs();
    if (!r.ok()) abort();
    if (r->status == 503) {
      result.shed++;
      shed_lat.push_back(t1 - t0);
    } else if (r->status == 200) {
      result.served++;  // a parked conn timed out and freed a slot
    }
  }
  result.shed_p50_us = Percentile(&shed_lat, 0.50);
  result.shed_p99_us = Percentile(&shed_lat, 0.99);

  // Release the parked connections; the queued ones drain.
  for (auto& client : parked) {
    (void)client->SendRaw("\r\n");
    (void)client->ReadResponse();
  }

  // With the jam cleared, accepted-path p99 comes straight back.
  std::vector<double> accepted_lat;
  HttpClient client;
  if (!client.Connect(port).ok()) abort();
  for (int i = 0; i < 100; i++) {
    double t0 = NowUs();
    auto r = client.Do("GET", "/v1/health");
    if (!r.ok() || r->status != 200) abort();
    accepted_lat.push_back(NowUs() - t0);
  }
  result.accepted_p99_us = Percentile(&accepted_lat, 0.99);
  return result;
}

void WriteServeJson(const std::vector<CurvePoint>& curve,
                    const SaturationResult& saturation) {
  std::vector<BenchEntry> entries;
  for (const CurvePoint& p : curve) {
    entries.push_back({"BM_ServeRead/conns:" + std::to_string(p.conns),
                       p.p99_us, p.reqs_per_sec});
  }
  // Shed promptness as a throughput: 503s answered per second while
  // hard-saturated. A regression here means shedding started to block.
  if (saturation.shed_p50_us > 0) {
    entries.push_back({"BM_ServeShed503", saturation.shed_p99_us,
                       1e6 / saturation.shed_p50_us});
  }
  WriteBenchJson("serve", entries);
}

}  // namespace
}  // namespace medvault::bench

int main() {
  using namespace medvault::bench;

  printf("E15a: latency vs concurrent keep-alive connections "
         "(4 workers, queue 64, MemEnv, durable_writes off)\n");
  printf("%6s %10s %10s %10s\n", "conns", "req/s", "p50-us", "p99-us");
  std::vector<CurvePoint> curve;
  {
    auto in = MakeServer(/*workers=*/4, /*max_queue=*/64, /*records=*/64);
    for (int conns : {1, 2, 4, 8}) {
      CurvePoint p = RunCurvePoint(in.get(), conns, /*reqs_per_conn=*/50);
      printf("%6d %10.0f %10.1f %10.1f\n", p.conns, p.reqs_per_sec, p.p50_us,
             p.p99_us);
      curve.push_back(p);
    }
    in->server->Stop();
  }

  printf("\nE15b: saturation shedding (2 workers, queue 4, all parked; "
         "128 requests offered beyond capacity)\n");
  SaturationResult saturation;
  {
    auto in = MakeServer(/*workers=*/2, /*max_queue=*/4, /*records=*/8);
    saturation = RunSaturation(in.get(), /*offered=*/128);
    printf("%10s %10s %12s %12s %14s\n", "shed-503", "served", "shed-p50-us",
           "shed-p99-us", "accepted-p99-us");
    printf("%10zu %10zu %12.1f %12.1f %14.1f\n", saturation.shed,
           saturation.served, saturation.shed_p50_us, saturation.shed_p99_us,
           saturation.accepted_p99_us);
    auto snapshot = medvault::obs::MetricsRegistry::Default()->TakeSnapshot();
    printf("registry: server.shed=%llu server.accepted=%llu "
           "server.conns=%llu server.requests=%llu\n",
           static_cast<unsigned long long>(snapshot.counters["server.shed"]),
           static_cast<unsigned long long>(
               snapshot.counters["server.accepted"]),
           static_cast<unsigned long long>(snapshot.counters["server.conns"]),
           static_cast<unsigned long long>(
               snapshot.counters["server.requests"]));
    printf("\nshape check: every over-capacity request gets an immediate "
           "503 (shed p99 well under the queue-wait limit), and accepted "
           "p99 recovers as soon as the jam clears.\n");
    in->server->Stop();
  }

  WriteServeJson(curve, saturation);
  WriteHealthJson("serve", CollectProcessHealthNow());
  return 0;
}
