// E-server — the run-to-completion wire server: pipelining and the cost
// of the wire.
//
// The server's threads share one epoll set; the thread that reads a
// request executes it and writes the reply. Clients tag requests with
// request_ids and pipeline many of them per socket, so "64 clients" is
// 64 logical sessions over a handful of connections driven by one
// thread. The bench prices that design:
//
//  - throughput_vs_clients (sync): one request in flight per session,
//    sessions spread over pooled connections — the pre-pipelining
//    baseline shape, which plateaus on per-request wire round-trips.
//  - throughput_vs_clients (pipelined): depth-8 pipelining per session;
//    submits and responses batch on the sockets, so throughput scales
//    past the sync plateau even on one core.
//  - pipelined_vs_sync_one_client: one client's depth-8 req/s over its
//    sync req/s, the medians of alternating runs — a lone pipelining
//    client must not be slower than a synchronous one.
//  - wire_overhead: the same statement through an in-process session vs
//    over the loopback wire — the frame + socket tax per request.
//  - admission_control: 2x the session cap connecting at once; the
//    overflow half receives structured BUSY rejections immediately, and
//    the admitted half completes its workload.
//
// main() writes BENCH_server.json.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "client/client.h"
#include "client/pool.h"
#include "mlds/mlds.h"
#include "server/demo.h"
#include "server/server.h"
#include "server/session.h"

namespace {

using namespace mlds;

constexpr const char* kStatement = "SELECT name FROM staff WHERE wage > 80";

double ElapsedMs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// A demo-loaded system plus a running server.
struct Harness {
  explicit Harness(server::ServerOptions options = {}) {
    ok = server::LoadDemoDatabases(&system).ok();
    if (!ok) return;
    server = std::make_unique<server::MldsServer>(&system, options);
    ok = server->Start().ok();
  }
  ~Harness() {
    if (server != nullptr) server->Shutdown();
  }
  MldsSystem system;
  std::unique_ptr<server::MldsServer> server;
  bool ok = false;
};

struct ThroughputPoint {
  int clients = 0;
  int depth = 0;
  int total_requests = 0;
  double wall_ms = 0.0;
  double requests_per_sec = 0.0;
};

/// `clients` logical sessions over pooled connections, each keeping up
/// to `depth` requests in flight, driven by one thread. depth == 1 is
/// the synchronous baseline: every request waits out its own wire round
/// trip before the next is sent.
ThroughputPoint MeasureThroughput(int clients, int requests_per_client,
                                  int depth) {
  ThroughputPoint out;
  out.clients = clients;
  out.depth = depth;
  out.total_requests = clients * requests_per_client;
  server::ServerOptions options;
  options.max_sessions = clients + 2;
  options.max_queue_depth = static_cast<size_t>(depth) + 2;
  Harness harness(options);
  if (!harness.ok) return out;

  // 64 sessions ride on at most 8 sockets; the server still runs each
  // session's requests serially and different sessions' concurrently.
  const size_t connections = std::min(clients, 8);
  client::ClientPool pool;
  if (!pool.Connect("127.0.0.1", harness.server->port(),
                    static_cast<size_t>(clients), connections)
           .ok()) {
    return out;
  }
  for (int c = 0; c < clients; ++c) {
    if (!pool.session(c).Use("sql", "payroll").ok()) return out;
  }

  std::vector<std::deque<uint32_t>> in_flight(clients);
  std::vector<int> submitted(clients, 0);
  bool failed = false;
  const auto start = std::chrono::steady_clock::now();
  // Round-robin driver: top every session up to `depth`, then await the
  // oldest response of each session that is full or finished submitting.
  int done = 0;
  while (done < clients && !failed) {
    done = 0;
    for (int c = 0; c < clients; ++c) {
      while (submitted[c] < requests_per_client &&
             in_flight[c].size() < static_cast<size_t>(depth)) {
        Result<uint32_t> id = pool.session(c).SubmitExecute(kStatement);
        if (!id.ok()) {
          failed = true;
          break;
        }
        in_flight[c].push_back(*id);
        ++submitted[c];
      }
      if (!in_flight[c].empty()) {
        Result<wire::ExecuteResult> result =
            pool.session(c).Await(in_flight[c].front());
        in_flight[c].pop_front();
        if (!result.ok()) {
          failed = true;
          break;
        }
      }
      if (submitted[c] == requests_per_client && in_flight[c].empty()) {
        ++done;
      }
    }
  }
  out.wall_ms = ElapsedMs(start);
  if (!failed && out.wall_ms > 0.0) {
    out.requests_per_sec = out.total_requests / (out.wall_ms / 1000.0);
  }
  (void)pool.Close();
  return out;
}

/// One client, depth 8 over sync: the ratio of the median req/s of
/// `pairs` alternating runs each. A single 200-request row swings by a
/// third run to run; the median of alternating pairs is steady enough
/// to gate.
double MeasureOneClientPipelining(int pairs, int requests) {
  std::vector<double> sync, pipelined;
  for (int i = 0; i < pairs; ++i) {
    sync.push_back(MeasureThroughput(1, requests, 1).requests_per_sec);
    pipelined.push_back(MeasureThroughput(1, requests, 8).requests_per_sec);
  }
  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  const double sync_rps = median(sync);
  return sync_rps > 0.0 ? median(pipelined) / sync_rps : 0.0;
}

/// The same statement through an in-process session: no frames, no
/// sockets, same formatters — the baseline the wire tax is measured
/// against.
double MeasureInProcessMs(int requests) {
  MldsSystem system;
  if (!server::LoadDemoDatabases(&system).ok()) return -1.0;
  server::Session session(1, &system);
  if (!session.Use({"sql", "payroll"}).ok()) return -1.0;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < requests; ++i) {
    auto result = session.Execute(kStatement, /*explain=*/false);
    if (!result.ok()) return -1.0;
  }
  return ElapsedMs(start);
}

struct AdmissionOutcome {
  int attempted = 0;
  int admitted = 0;
  int busy_rejected = 0;
  int other_failures = 0;
  double max_rejection_ms = 0.0;
  bool admitted_all_completed = false;
  uint64_t server_counted_rejections = 0;
};

/// 2x the cap connects at once; the overflow must be rejected with BUSY
/// (kUnavailable), immediately, while admitted sessions finish real work.
AdmissionOutcome MeasureAdmission(int cap, int requests_per_client) {
  AdmissionOutcome out;
  out.attempted = cap * 2;
  server::ServerOptions options;
  options.max_sessions = cap;
  Harness harness(options);
  if (!harness.ok) return out;

  std::atomic<int> admitted{0}, busy{0}, other{0}, completed{0};
  std::atomic<int64_t> worst_reject_us{0};
  std::vector<std::thread> threads;
  threads.reserve(out.attempted);
  for (int c = 0; c < out.attempted; ++c) {
    threads.emplace_back([&] {
      client::MldsClient session;
      const auto start = std::chrono::steady_clock::now();
      const Status connected =
          session.Connect("127.0.0.1", harness.server->port());
      if (!connected.ok()) {
        if (connected.code() == StatusCode::kUnavailable) {
          busy.fetch_add(1);
          const auto us = static_cast<int64_t>(ElapsedMs(start) * 1000.0);
          int64_t seen = worst_reject_us.load();
          while (us > seen &&
                 !worst_reject_us.compare_exchange_weak(seen, us)) {
          }
        } else {
          other.fetch_add(1);
        }
        return;
      }
      admitted.fetch_add(1);
      if (!session.Use("sql", "payroll").ok()) return;
      for (int i = 0; i < requests_per_client; ++i) {
        if (!session.Execute(kStatement).ok()) return;
      }
      completed.fetch_add(1);
      (void)session.Close();
    });
  }
  for (std::thread& thread : threads) thread.join();
  out.admitted = admitted.load();
  out.busy_rejected = busy.load();
  out.other_failures = other.load();
  out.max_rejection_ms = worst_reject_us.load() / 1000.0;
  out.admitted_all_completed = completed.load() == out.admitted;
  out.server_counted_rejections =
      harness.server->stats().sessions_rejected;
  return out;
}

void WriteServerJson(const char* path) {
  bench::BenchReport report("server");

  constexpr int kRequestsPerClient = 200;
  constexpr int kPipelineDepth = 8;
  double sync_one_client_rps = 0.0, sync_best_rps = 0.0;
  double pipelined_best_rps = 0.0;
  for (int clients : {1, 2, 4, 8, 16, 32, 64}) {
    for (int depth : {1, kPipelineDepth}) {
      const ThroughputPoint p =
          MeasureThroughput(clients, kRequestsPerClient, depth);
      if (depth == 1) {
        if (clients == 1) sync_one_client_rps = p.requests_per_sec;
        sync_best_rps = std::max(sync_best_rps, p.requests_per_sec);
      } else {
        pipelined_best_rps =
            std::max(pipelined_best_rps, p.requests_per_sec);
      }
      report.AddRow("throughput_vs_clients")
          .Set("clients", p.clients)
          .Set("depth", p.depth)
          .Set("mode", depth == 1 ? "sync" : "pipelined")
          .Set("total_requests", p.total_requests)
          .Set("wall_ms", p.wall_ms)
          .Set("requests_per_sec", p.requests_per_sec);
    }
  }
  report.root()
      .Set("sync_one_client_rps", sync_one_client_rps)
      .Set("sync_best_rps", sync_best_rps)
      .Set("pipelined_best_rps", pipelined_best_rps)
      .Set("scales_past_one_client", sync_best_rps > sync_one_client_rps)
      .Set("pipelining_beats_sync_plateau",
           pipelined_best_rps > sync_best_rps)
      .Set("pipelined_vs_sync_one_client",
           MeasureOneClientPipelining(/*pairs=*/5, /*requests=*/1000));

  constexpr int kOverheadRequests = 500;
  const double in_process_ms = MeasureInProcessMs(kOverheadRequests);
  const ThroughputPoint wire =
      MeasureThroughput(1, kOverheadRequests, /*depth=*/1);
  const double per_request_us =
      (wire.wall_ms - in_process_ms) / kOverheadRequests * 1000.0;
  report.root()
      .Set("overhead_requests", kOverheadRequests)
      .Set("in_process_wall_ms", in_process_ms)
      .Set("wire_wall_ms", wire.wall_ms)
      .Set("wire_tax_us_per_request", per_request_us);

  constexpr int kCap = 4;
  const AdmissionOutcome admission = MeasureAdmission(kCap, 50);
  report.root()
      .Set("admission_cap", kCap)
      .Set("admission_attempted", admission.attempted)
      .Set("admission_admitted", admission.admitted)
      .Set("admission_busy_rejected", admission.busy_rejected)
      .Set("admission_other_failures", admission.other_failures)
      .Set("admission_max_rejection_ms", admission.max_rejection_ms)
      .Set("admission_admitted_all_completed",
           admission.admitted_all_completed)
      .Set("admission_server_counted_rejections",
           admission.server_counted_rejections);

  if (report.Write(path)) {
    std::printf(
        "wrote %s (sync 1 client %.0f req/s, sync best %.0f req/s, "
        "pipelined best %.0f req/s, wire tax %.1f us/req, admission %d "
        "admitted / %d busy of %d)\n",
        path, sync_one_client_rps, sync_best_rps, pipelined_best_rps,
        per_request_us, admission.admitted, admission.busy_rejected,
        admission.attempted);
  }
}

}  // namespace

int main() {
  WriteServerJson("BENCH_server.json");
  return 0;
}
