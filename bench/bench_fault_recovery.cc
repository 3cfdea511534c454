// E-faults — durability and availability under injected failure.
//
// This PR gave every KDS engine a write-ahead log with checkpointed
// crash recovery, and MBDS per-backend fault injection with quarantine
// and WAL-replay reintegration. The bench quantifies the three costs
// that design trades:
//
//  - recovery_vs_wal_length: wall time of RecoverEngine as the log
//    grows; linear in entries. A checkpoint bounds the replay by |state|
//    instead of |history| (snapshot load replays one INSERT per live
//    record, however many mutations the log accumulated) — the knob that
//    bounds reintegration time.
//  - wal_overhead: wall time of an insert-heavy workload with the log
//    attached vs detached. The detached path is a single relaxed atomic
//    load per request, so overhead lives in the frame/checksum append.
//  - degraded_throughput: broadcast-retrieve throughput of a 4-backend
//    controller healthy vs with one backend quarantined (3-of-4). The
//    paper's response-time model says losing a quarter of the partitions
//    should not slow the survivors down.
//
// main() writes BENCH_fault_recovery.json.

#include <chrono>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "abdl/parser.h"
#include "bench_json.h"
#include "kds/engine.h"
#include "kds/snapshot.h"
#include "kds/wal.h"
#include "mbds/controller.h"

namespace {

using namespace mlds;

abdm::FileDescriptor ItemFile() {
  abdm::FileDescriptor f;
  f.name = "item";
  f.attributes = {
      {"FILE", abdm::ValueKind::kString, 0, true},
      {"key", abdm::ValueKind::kInteger, 0, true},
      {"payload", abdm::ValueKind::kString, 0, false},
  };
  return f;
}

abdl::Request InsertItem(int key) {
  auto req = abdl::ParseRequest("INSERT (<FILE, item>, <key, " +
                                std::to_string(key) + ">, <payload, 'x'>)");
  return *req;
}

double ElapsedMs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Fills a WAL with `entries` logged inserts (plus the DEFINE), as a
/// crashed engine would leave behind.
std::string BuildLog(int entries) {
  kds::WalWriter wal;
  kds::Engine engine;
  engine.AttachWal(&wal);
  engine.DefineFile(ItemFile());
  for (int i = 0; i < entries; ++i) {
    (void)engine.Execute(InsertItem(i));
  }
  return wal.contents();
}

double MeasureRecoveryMs(const std::string& log, int reps) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    kds::Engine fresh;
    std::istringstream no_checkpoint("");
    const auto start = std::chrono::steady_clock::now();
    auto report = kds::RecoverEngine(no_checkpoint, log, &fresh);
    const double ms = ElapsedMs(start);
    if (!report.ok()) return -1.0;
    best = std::min(best, ms);
  }
  return best;
}

/// Insert-heavy workload wall time, WAL attached or not.
double MeasureWorkloadMs(int records, bool wal_on, int reps) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    kds::WalWriter wal;
    kds::Engine engine;
    if (wal_on) engine.AttachWal(&wal);
    engine.DefineFile(ItemFile());
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < records; ++i) {
      (void)engine.Execute(InsertItem(i));
    }
    best = std::min(best, ElapsedMs(start));
  }
  return best;
}

struct Throughput {
  double wall_ms = 0.0;
  double requests_per_sec = 0.0;
  size_t records_per_retrieve = 0;
};

/// Broadcast-retrieve throughput over a 4-backend controller, optionally
/// with one backend quarantined first (degraded 3-of-4 service).
Throughput MeasureDegraded(bool quarantine_one, int retrieves) {
  mbds::MbdsOptions options;
  options.num_backends = 4;
  options.fault_tolerance.request_deadline_ms = 1000.0;
  // Keep the quarantined backend sidelined for the whole measurement:
  // this bench prices degraded service, not the reintegration.
  options.fault_tolerance.health.reintegrate_after = 1 << 20;
  Throughput out;
  mbds::Controller controller(options);
  if (!controller.DefineFile(ItemFile()).ok()) return out;
  for (int i = 0; i < 2048; ++i) {
    if (!controller.Execute(InsertItem(i)).ok()) return out;
  }
  auto retrieve = abdl::ParseRequest("RETRIEVE ((payload = 'x')) (key)");
  if (quarantine_one) {
    // A crash on a mutation is fatal on the first strike.
    controller.InjectFault(
        3, {.kind = mbds::FaultKind::kCrash, .at_attempt = 0, .count = 1});
    auto update = abdl::ParseRequest("UPDATE ((key = 0)) (payload = 'x')");
    (void)controller.Execute(*update);
    if (controller.backend(3).health().state() !=
        mbds::BackendHealth::kQuarantined) {
      return out;
    }
  }
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < retrieves; ++i) {
    auto report = controller.Execute(*retrieve);
    if (!report.ok()) return out;
    out.records_per_retrieve = report->response.records.size();
  }
  out.wall_ms = ElapsedMs(start);
  out.requests_per_sec = retrieves / (out.wall_ms / 1000.0);
  return out;
}

void WriteFaultRecoveryJson(const char* path) {
  bench::BenchReport report("fault_recovery");

  // Recovery time vs log length, plus the checkpoint counterfactual:
  // recovery from (checkpoint, empty log) for the largest state.
  constexpr int kReps = 3;
  const int lengths[] = {256, 1024, 4096};
  double largest_recovery_ms = 0.0;
  for (int entries : lengths) {
    const std::string log = BuildLog(entries);
    const double ms = MeasureRecoveryMs(log, kReps);
    largest_recovery_ms = ms;
    report.AddRow("recovery_vs_wal_length")
        .Set("wal_entries", entries)
        .Set("log_bytes", static_cast<uint64_t>(log.size()))
        .Set("recover_wall_ms", ms);
  }
  {
    kds::WalWriter wal;
    kds::Engine engine;
    engine.AttachWal(&wal);
    engine.DefineFile(ItemFile());
    for (int i = 0; i < lengths[2]; ++i) {
      (void)engine.Execute(InsertItem(i));
    }
    std::ostringstream checkpoint;
    double checkpoint_ms = -1.0, recover_ms = -1.0;
    const auto cp_start = std::chrono::steady_clock::now();
    if (kds::Checkpoint(engine, checkpoint, &wal).ok()) {
      checkpoint_ms = ElapsedMs(cp_start);
      double best = 1e300;
      for (int r = 0; r < kReps; ++r) {
        kds::Engine fresh;
        std::istringstream snapshot(checkpoint.str());
        const auto start = std::chrono::steady_clock::now();
        auto rec = kds::RecoverEngine(snapshot, wal.contents(), &fresh);
        const double ms = ElapsedMs(start);
        if (!rec.ok()) break;
        best = std::min(best, ms);
      }
      recover_ms = best;
    }
    report.root()
        .Set("checkpoint_entries", lengths[2])
        .Set("checkpoint_wall_ms", checkpoint_ms)
        .Set("recover_from_checkpoint_wall_ms", recover_ms)
        .Set("recover_from_log_wall_ms", largest_recovery_ms);
  }

  // WAL overhead on an insert-heavy workload.
  constexpr int kOverheadRecords = 4096;
  const double wal_off_ms = MeasureWorkloadMs(kOverheadRecords, false, 5);
  const double wal_on_ms = MeasureWorkloadMs(kOverheadRecords, true, 5);
  const double overhead_pct = 100.0 * (wal_on_ms - wal_off_ms) / wal_off_ms;
  report.root()
      .Set("overhead_records", kOverheadRecords)
      .Set("wal_detached_wall_ms", wal_off_ms)
      .Set("wal_attached_wall_ms", wal_on_ms)
      .Set("wal_attached_overhead_pct", overhead_pct);

  // Degraded 3-of-4 throughput.
  constexpr int kRetrieves = 64;
  const Throughput healthy = MeasureDegraded(false, kRetrieves);
  const Throughput degraded = MeasureDegraded(true, kRetrieves);
  for (const auto* t : {&healthy, &degraded}) {
    report.AddRow("degraded_throughput")
        .Set("backends_serving", t == &healthy ? 4 : 3)
        .Set("retrieves", kRetrieves)
        .Set("records_per_retrieve",
             static_cast<uint64_t>(t->records_per_retrieve))
        .Set("wall_ms", t->wall_ms)
        .Set("requests_per_sec", t->requests_per_sec);
  }
  report.root().Set(
      "degraded_throughput_within_2x",
      degraded.requests_per_sec > 0.0 &&
          degraded.requests_per_sec >= healthy.requests_per_sec / 2.0);

  if (report.Write(path)) {
    std::printf(
        "wrote %s (recover 4096 entries %.2f ms, wal overhead %.1f%%, "
        "degraded %.0f req/s vs healthy %.0f req/s)\n",
        path, largest_recovery_ms, overhead_pct, degraded.requests_per_sec,
        healthy.requests_per_sec);
  }
}

}  // namespace

int main() {
  WriteFaultRecoveryJson("BENCH_fault_recovery.json");
  return 0;
}
