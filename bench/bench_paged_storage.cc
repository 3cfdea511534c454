// E-paged — the paged storage engine: buffer-pool sweep and secondary
// index access paths.
//
// Two claims are measured. (1) Point lookups are directory-guided, so
// their physical reads stay flat as the buffer pool shrinks: sweeping
// the pool from 1x to 4x of a small base must not move the lookup
// workload's blocks_read by more than 1.5x (the pool only shifts where
// the reads land, hit vs. miss). (2) A secondary index on a
// non-directory attribute turns equality and range predicates into
// index probes that read fewer blocks than the full scan, and EXPLAIN
// names the [secondary] access path. (3) The per-page checksum verify
// on every fetch prices at no more than 5% of the point-lookup
// workload in write-through mode, where every fetch reads — and
// verifies — the file. main() writes BENCH_paged_storage.json.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "abdl/parser.h"
#include "bench_json.h"
#include "kds/engine.h"
#include "kfs/formatter.h"

namespace {

using namespace mlds;

constexpr int kRecords = 4096;
constexpr int kLookups = 256;
constexpr size_t kBasePoolPages = 16;

abdm::FileDescriptor ItemFile() {
  abdm::FileDescriptor f;
  f.name = "item";
  f.attributes = {
      {"FILE", abdm::ValueKind::kString, 0, true},
      {"key", abdm::ValueKind::kInteger, 0, true},
      {"tag", abdm::ValueKind::kString, 0, false},
      {"payload", abdm::ValueKind::kString, 0, false},
  };
  return f;
}

std::string BenchDataDir(const std::string& variant) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / ("mlds_bench_paged_" + variant);
  std::error_code ec;
  fs::remove_all(dir, ec);
  return dir.string();
}

kds::Response MustRun(kds::Engine& engine, const std::string& text) {
  auto req = abdl::ParseRequest(text);
  if (!req.ok()) {
    std::fprintf(stderr, "parse failed: %s\n", req.status().ToString().c_str());
    return {};
  }
  auto resp = engine.Execute(*req);
  if (!resp.ok()) {
    std::fprintf(stderr, "exec failed: %s\n", resp.status().ToString().c_str());
    return {};
  }
  return std::move(*resp);
}

/// A paged engine over a fresh data dir, loaded with kRecords items and
/// a secondary index on the non-directory `tag` attribute. `tag` takes
/// 64 distinct values so equality probes select kRecords/64 records.
std::unique_ptr<kds::Engine> LoadedEngine(size_t pool_pages,
                                          const std::string& variant) {
  kds::EngineOptions options;
  options.data_dir = BenchDataDir(variant);
  options.pool_pages = pool_pages;
  auto engine = std::make_unique<kds::Engine>(options);
  engine->DefineFile(ItemFile());
  for (int i = 0; i < kRecords; ++i) {
    auto req = abdl::ParseRequest(
        "INSERT (<FILE, item>, <key, " + std::to_string(i) + ">, <tag, 't" +
        std::to_string(i % 64) + "'>, <payload, 'x" + std::to_string(i) +
        "'>)");
    engine->Execute(*req);
  }
  engine->CreateIndex("item", "tag");
  return engine;
}

/// Runs `count` point lookups and returns their physical reads.
uint64_t RunLookupsN(kds::Engine& engine, int count) {
  const uint64_t before = engine.cumulative_io().blocks_read;
  for (int i = 0; i < count; ++i) {
    const int key = (i * 37) % kRecords;  // deterministic spread.
    MustRun(engine, "RETRIEVE ((FILE = item) and (key = " +
                        std::to_string(key) + ")) (key)");
  }
  return engine.cumulative_io().blocks_read - before;
}

/// Runs the fixed point-lookup workload and returns its physical reads.
uint64_t RunLookups(kds::Engine& engine) { return RunLookupsN(engine, kLookups); }

void WritePagedJson(const char* path) {
  bench::BenchReport report("paged_storage");

  // --- buffer-pool sweep: 1x..4x, same workload, flat physical reads.
  std::vector<uint64_t> sweep_blocks;
  for (const size_t pool :
       {kBasePoolPages, kBasePoolPages * 2, kBasePoolPages * 4}) {
    auto engine = LoadedEngine(pool, "sweep" + std::to_string(pool));
    (void)RunLookups(*engine);  // warm-up pass fills the pool.
    const kds::PoolCounters before = engine->counters().pool;
    const uint64_t blocks = RunLookups(*engine);
    const kds::PoolCounters counters = engine->counters().pool;
    sweep_blocks.push_back(blocks);
    report.AddRow("pool_sweep")
        .Set("pool_pages", static_cast<uint64_t>(pool))
        .Set("lookups", kLookups)
        .Set("blocks_read", blocks)
        .Set("pool_hits", counters.hits - before.hits)
        .Set("pool_misses", counters.misses - before.misses)
        .Set("pool_evictions", counters.evictions - before.evictions)
        .Set("pool_dirty_writebacks",
             counters.dirty_writebacks - before.dirty_writebacks);
  }
  const uint64_t min_blocks =
      *std::min_element(sweep_blocks.begin(), sweep_blocks.end());
  const uint64_t max_blocks =
      *std::max_element(sweep_blocks.begin(), sweep_blocks.end());
  const bool flat = max_blocks * 2 <= min_blocks * 3;  // within 1.5x.
  report.root()
      .Set("records", kRecords)
      .Set("base_pool_pages", static_cast<uint64_t>(kBasePoolPages))
      .Set("point_lookup_min_blocks", min_blocks)
      .Set("point_lookup_max_blocks", max_blocks)
      .Set("point_lookup_flat_within_1p5x", flat);

  // --- secondary index floors: equality and range probes on the
  // non-directory `tag` attribute vs. the full scan, with EXPLAIN
  // naming the access path.
  auto engine = LoadedEngine(kBasePoolPages, "floors");
  const uint64_t full_scan_blocks = engine->TotalBlocks();
  struct Probe {
    const char* name;
    const char* text;
  };
  const Probe probes[] = {
      {"secondary_equality",
       "EXPLAIN RETRIEVE ((FILE = item) and (tag = 't7')) (key)"},
      {"secondary_range", "EXPLAIN RETRIEVE ((tag >= 't60')) (key)"},
  };
  for (const Probe& probe : probes) {
    kds::Response resp = MustRun(*engine, probe.text);
    const std::string plan =
        resp.plan == nullptr ? std::string() : kfs::FormatPlan(*resp.plan);
    report.AddRow("secondary_floors")
        .Set("name", probe.name)
        .Set("rows", static_cast<uint64_t>(resp.records.size()))
        .Set("blocks_read", resp.io.blocks_read)
        .Set("full_scan_blocks", full_scan_blocks)
        .Set("below_scan", resp.io.blocks_read < full_scan_blocks)
        .Set("plan_uses_secondary",
             plan.find("[secondary]") != std::string::npos);
  }

  // --- checksum overhead: the same point-lookup workload with the
  // per-page verify on (production) vs. off, in write-through mode so
  // every fetch reads the file and pays — or skips — the verify.
  auto priced = LoadedEngine(/*pool_pages=*/0, "checksum");
  const uint64_t verified_blocks = RunLookups(*priced);  // also warms up.
  // Scheduler noise on a shared 1-vCPU box dwarfs the ~100ns-per-page
  // verify: steal bursts land in most multi-lookup timing windows, so
  // window minima and window medians both wander by more than the
  // effect being measured. Timing each ~5µs lookup individually and
  // alternating verify on/off per lookup fixes that — the two samples
  // interleave through identical machine conditions, the per-side
  // median ignores the small fraction of preempted lookups, and with
  // thousands of samples per side it is stable to well under 1%.
  constexpr int kSamplesPerSide = 8192;
  std::vector<double> on_ns, off_ns;
  on_ns.reserve(kSamplesPerSide);
  off_ns.reserve(kSamplesPerSide);
  for (int i = 0; i < 2 * kSamplesPerSide; ++i) {
    const bool verify = (i % 2) == 0;
    priced->SetVerifyReads(verify);
    const std::string text = "RETRIEVE ((FILE = item) and (key = " +
                             std::to_string((i * 37) % kRecords) + ")) (key)";
    auto start = std::chrono::steady_clock::now();
    MustRun(*priced, text);
    std::chrono::duration<double, std::nano> took =
        std::chrono::steady_clock::now() - start;
    (verify ? on_ns : off_ns).push_back(took.count());
  }
  priced->SetVerifyReads(true);
  std::sort(on_ns.begin(), on_ns.end());
  std::sort(off_ns.begin(), off_ns.end());
  const double median_on = on_ns[on_ns.size() / 2];
  const double median_off = off_ns[off_ns.size() / 2];
  const double verify_on_s = median_on * kLookups * 1e-9;
  const double verify_off_s = median_off * kLookups * 1e-9;
  const double overhead_pct =
      median_off > 0.0
          ? std::max(0.0, (median_on - median_off) / median_off * 100.0)
          : 0.0;
  report.AddRow("checksum_overhead")
      .Set("lookups", kLookups)
      .Set("blocks_verified", verified_blocks)
      .Set("verify_on_seconds", verify_on_s)
      .Set("verify_off_seconds", verify_off_s);
  report.root()
      .Set("checksum_overhead_pct", overhead_pct)
      .Set("verify_overhead_within_5pct", overhead_pct <= 5.0);

  if (report.Write(path)) {
    std::printf("wrote %s (lookup blocks %llu..%llu across pool sweep)\n",
                path, static_cast<unsigned long long>(min_blocks),
                static_cast<unsigned long long>(max_blocks));
  }
}

}  // namespace

int main() {
  WritePagedJson("BENCH_paged_storage.json");
  return 0;
}
