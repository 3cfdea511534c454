// E8 — intra-backend concurrency and the KMS translation cache.
//
// PR 2 replaced the engine's single global mutex with two-level
// reader-writer locking (files-map lock + per-file locks), so read-only
// clients of ONE backend execute concurrently; and gave KMS a shared
// compiled-translation cache keyed on the schema epoch. This bench
// demonstrates both:
//
//  - concurrent_readers: 4 clients issue identical read-only workloads
//    against a single engine with disk-latency injection on. Shared
//    locks let the injected disk waits overlap, so wall-clock must beat
//    the serialized replay of the same 4 workloads by >= 2x (the
//    acceptance floor; ideal is ~4x). Exclusive writers are measured
//    alongside to show they still serialize.
//  - translation_cache: a SQL session repeats one statement; after the
//    first (cold) translation every repeat must hit, for a warm hit
//    rate > 90%.
//
// main() writes BENCH_intra_backend.json first, then runs the
// registered google-benchmarks.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "abdl/parser.h"
#include "bench_json.h"
#include "kds/engine.h"
#include "mlds/mlds.h"

namespace {

using namespace mlds;

constexpr int kRecords = 2048;
constexpr int kClients = 4;
constexpr int kRequestsPerClient = 6;
/// Emulated disk: a pure per-block transfer cost, really waited at
/// latency scale 1. A full scan of the 2048-record file (128 blocks at
/// 16 records/block) sleeps ~6.4 ms while holding its file lock shared.
constexpr kds::DiskModel kDisk{.seek_ms = 0,
                               .transfer_ms_per_block = 0.05,
                               .index_probe_ms = 0,
                               .cpu_ms_per_record = 0};

kds::EngineOptions EmulatedDiskOptions() {
  kds::EngineOptions options;
  options.disk = kDisk;
  return options;
}

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

void LoadEngine(kds::Engine* engine, int records) {
  engine->DefineFile(ItemFile());
  for (int i = 0; i < records; ++i) {
    auto req = abdl::ParseRequest("INSERT (<FILE, item>, <key, " +
                                  std::to_string(i) + ">, <payload, 'x'>)");
    benchmark::DoNotOptimize(engine->Execute(*req));
  }
}

std::vector<abdl::Request> ReadWorkload() {
  std::vector<abdl::Request> reqs;
  for (int i = 0; i < kRequestsPerClient; ++i) {
    // Full scans: every request reads all blocks, maximizing the held
    // lock's span so overlap (or its absence) dominates the wall clock.
    auto req = abdl::ParseRequest("RETRIEVE ((payload = 'x')) (key)");
    reqs.push_back(*req);
  }
  return reqs;
}

double RunClients(kds::Engine* engine, int clients) {
  const std::vector<abdl::Request> workload = ReadWorkload();
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      for (const auto& req : workload) {
        benchmark::DoNotOptimize(engine->Execute(req));
      }
    });
  }
  for (auto& t : threads) t.join();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

double RunSerial(kds::Engine* engine, int clients) {
  const std::vector<abdl::Request> workload = ReadWorkload();
  const auto start = std::chrono::steady_clock::now();
  for (int c = 0; c < clients; ++c) {
    for (const auto& req : workload) {
      benchmark::DoNotOptimize(engine->Execute(req));
    }
  }
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Writers take the file lock exclusively: their injected waits cannot
/// overlap, so concurrent updaters stay near the serial wall clock.
double RunWriters(kds::Engine* engine, int clients, bool concurrent) {
  auto req = abdl::ParseRequest("UPDATE ((payload = 'x')) (payload = 'x')");
  const auto start = std::chrono::steady_clock::now();
  if (concurrent) {
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back(
          [&] { benchmark::DoNotOptimize(engine->Execute(*req)); });
    }
    for (auto& t : threads) t.join();
  } else {
    for (int c = 0; c < clients; ++c) {
      benchmark::DoNotOptimize(engine->Execute(*req));
    }
  }
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

struct CacheStats {
  uint64_t statements = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  double hit_rate = 0.0;
};

CacheStats MeasureCacheHitRate() {
  CacheStats out;
  MldsSystem system;
  if (!system
           .LoadRelationalDatabase(
               "SCHEMA bench;\nCREATE TABLE part (pno INTEGER NOT NULL, "
               "payload CHAR(8));")
           .ok()) {
    return out;
  }
  auto session = system.OpenSqlSession("bench");
  if (!session.ok()) return out;
  for (int i = 0; i < 32; ++i) {
    (void)(*session)->ExecuteText("INSERT INTO part (pno, payload) VALUES (" +
                                  std::to_string(i) + ", 'x')");
  }
  // The measured loop: one canned query, re-issued warm.
  constexpr int kRepeats = 100;
  const kms::TranslationCache::Stats before =
      system.translation_cache().stats();
  for (int i = 0; i < kRepeats; ++i) {
    auto rows = (*session)->ExecuteText("SELECT pno FROM part WHERE pno < 8");
    if (!rows.ok() || rows->rows.size() != 8) return out;
  }
  const kms::TranslationCache::Stats after = system.translation_cache().stats();
  out.statements = kRepeats;
  out.hits = after.hits - before.hits;
  out.misses = after.misses - before.misses;
  out.hit_rate =
      static_cast<double>(out.hits) / static_cast<double>(kRepeats);
  return out;
}

void WriteIntraBackendJson(const char* path) {
  kds::Engine engine{EmulatedDiskOptions()};
  LoadEngine(&engine, kRecords);
  engine.set_latency_scale(1.0);

  double serial_ms = 1e300, concurrent_ms = 1e300;
  double writers_serial_ms = 1e300, writers_concurrent_ms = 1e300;
  for (int rep = 0; rep < 3; ++rep) {  // best-of-3 wall clock
    serial_ms = std::min(serial_ms, RunSerial(&engine, kClients));
    concurrent_ms = std::min(concurrent_ms, RunClients(&engine, kClients));
    writers_serial_ms =
        std::min(writers_serial_ms, RunWriters(&engine, kClients, false));
    writers_concurrent_ms =
        std::min(writers_concurrent_ms, RunWriters(&engine, kClients, true));
  }
  engine.set_latency_scale(0.0);
  const double speedup = serial_ms / concurrent_ms;
  const CacheStats cache = MeasureCacheHitRate();

  bench::BenchReport report("intra_backend");
  report.root()
      .Set("records", kRecords)
      .Set("clients", kClients)
      .Set("requests_per_client", kRequestsPerClient)
      .Set("transfer_ms_per_block", kDisk.transfer_ms_per_block)
      .Set("read_serial_wall_ms", serial_ms)
      .Set("read_concurrent_wall_ms", concurrent_ms)
      .Set("read_speedup", speedup)
      .Set("read_speedup_at_least_2x", speedup >= 2.0)
      .Set("write_serial_wall_ms", writers_serial_ms)
      .Set("write_concurrent_wall_ms", writers_concurrent_ms)
      .Set("cache_statements", cache.statements)
      .Set("cache_hits", cache.hits)
      .Set("cache_misses", cache.misses)
      .Set("cache_warm_hit_rate", cache.hit_rate)
      .Set("cache_hit_rate_above_90pct", cache.hit_rate > 0.9);
  if (report.Write(path)) {
    std::printf("wrote %s (read speedup %.2fx, warm hit rate %.1f%%)\n", path,
                speedup, 100.0 * cache.hit_rate);
  }
}

// Registered benchmarks: the same read workload, serial vs concurrent,
// without latency injection (pure lock-overhead view).
void BM_IntraBackend_SerialReads(benchmark::State& state) {
  kds::Engine engine{kds::EngineOptions{}};
  LoadEngine(&engine, kRecords);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunSerial(&engine, kClients));
  }
}
BENCHMARK(BM_IntraBackend_SerialReads)->Unit(benchmark::kMillisecond);

void BM_IntraBackend_ConcurrentReads(benchmark::State& state) {
  kds::Engine engine{kds::EngineOptions{}};
  LoadEngine(&engine, kRecords);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunClients(&engine, kClients));
  }
}
BENCHMARK(BM_IntraBackend_ConcurrentReads)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  WriteIntraBackendJson("BENCH_intra_backend.json");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
