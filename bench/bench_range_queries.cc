// E-range — directory-assisted range predicates vs. full block scans.
//
// The attribute directory is an ordered map, so >, >=, <, <= resolve to a
// lower/upper-bound seek plus iteration over qualifying buckets, and both
// bounds of a two-sided range fold into one such walk; only the blocks
// holding candidate records are fetched. This benchmark measures
// blocks_read and the candidate ids each access path produced for
// representative predicates against the full-scan block count, plus the
// EXPLAIN overhead, and writes BENCH_range_queries.json.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "abdl/parser.h"
#include "bench_json.h"
#include "kds/engine.h"

namespace {

using namespace mlds;

constexpr int kRecords = 8192;

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

kds::Engine& LoadedEngine() {
  static kds::Engine* engine = [] {
    auto* e = new kds::Engine();
    e->DefineFile(ItemFile());
    for (int i = 0; i < kRecords; ++i) {
      auto req = abdl::ParseRequest("INSERT (<FILE, item>, <key, " +
                                    std::to_string(i) + ">, <payload, 'x'>)");
      e->Execute(*req);
    }
    return e;
  }();
  return *engine;
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

struct QueryStat {
  const char* name;
  const char* text;
  uint64_t blocks_read = 0;
  uint64_t records_examined = 0;
  uint64_t candidates = 0;
  size_t rows = 0;
};

/// Record ids the access path of a one-conjunction plan produced before
/// verification: every executed probe of an intersection hands over its
/// whole candidate list; a lone probe or a full scan produces exactly the
/// records it fetches.
uint64_t Candidates(const kds::PlanNode& plan, uint64_t records_examined) {
  const kds::PlanNode* node = &plan;
  while (node->children.size() == 1) node = &node->children.front();
  if (node->kind != kds::PlanNodeKind::kIntersect) return records_examined;
  uint64_t listed = 0;
  for (const kds::PlanNode& probe : node->children) {
    if (probe.executed) listed += probe.actual_rows;
  }
  return listed;
}

void WriteRangeJson(const char* path) {
  kds::Engine& engine = LoadedEngine();
  const uint64_t full_scan_blocks = engine.TotalBlocks();
  QueryStat stats[] = {
      {"point_lookup", "RETRIEVE ((FILE = item) and (key = 4242)) (key)"},
      {"range_narrow", "RETRIEVE ((key >= 8128)) (key)"},
      {"range_narrow_with_file_eq",
       "RETRIEVE ((FILE = item) and (key >= 8128)) (key)"},
      {"range_broad", "RETRIEVE ((key < 4096)) (key)"},
      {"range_empty", "RETRIEVE ((key > 100000)) (key)"},
      {"full_scan_nonindexed", "RETRIEVE ((payload = 'missing')) (key)"},
      // Both bounds fold into one directory interval: one seek, and no
      // candidate outside the 64 result rows.
      {"range_bounded", "RETRIEVE ((key >= 4000) and (key < 4064)) (key)"},
  };
  for (QueryStat& q : stats) {
    kds::Response resp = MustRun(engine, std::string("EXPLAIN ") + q.text);
    q.blocks_read = resp.io.blocks_read;
    q.records_examined = resp.io.records_examined;
    q.candidates = Candidates(*resp.plan, resp.io.records_examined);
    q.rows = resp.records.size();
  }
  const QueryStat& bounded = stats[std::size(stats) - 1];

  bench::BenchReport report("range_queries");
  report.root()
      .Set("records", kRecords)
      .Set("full_scan_blocks", full_scan_blocks)
      .Set("bounded_range_single_probe",
           bounded.rows > 0 && bounded.candidates == bounded.rows);
  for (const QueryStat& q : stats) {
    report.AddRow("queries")
        .Set("name", q.name)
        .Set("blocks_read", q.blocks_read)
        .Set("records_examined", q.records_examined)
        .Set("candidates", q.candidates)
        .Set("rows", q.rows)
        .Set("indexed_below_scan", q.blocks_read < full_scan_blocks);
  }

  // E-explain: same request with and without the EXPLAIN prefix, timed
  // back to back. The ratio is the plan-annotation overhead — the request
  // still executes; EXPLAIN only adds tree construction and counters.
  struct ExplainPair {
    const char* name;
    const char* plain;
    const char* explained;
  };
  const ExplainPair pairs[] = {
      {"point_lookup", "RETRIEVE ((FILE = item) and (key = 4242)) (key)",
       "EXPLAIN RETRIEVE ((FILE = item) and (key = 4242)) (key)"},
      {"range_broad", "RETRIEVE ((key < 4096)) (key)",
       "EXPLAIN RETRIEVE ((key < 4096)) (key)"},
  };
  constexpr int kTimingIters = 100;
  constexpr int kRepetitions = 7;
  auto time_ns = [&](const char* text) {
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kTimingIters; ++i) {
      MustRun(engine, text);
    }
    const auto stop = std::chrono::steady_clock::now();
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start)
            .count() /
        kTimingIters);
  };
  for (const ExplainPair& p : pairs) {
    // Interleave the two variants and keep each one's fastest repetition:
    // the minimum discards scheduler and allocator noise that would
    // otherwise swamp the small annotation overhead.
    uint64_t plain_ns = ~0ull;
    uint64_t explain_ns = ~0ull;
    MustRun(engine, p.plain);      // warm the translation paths
    MustRun(engine, p.explained);
    for (int rep = 0; rep < kRepetitions; ++rep) {
      plain_ns = std::min(plain_ns, time_ns(p.plain));
      explain_ns = std::min(explain_ns, time_ns(p.explained));
    }
    report.AddRow("explain_overhead")
        .Set("name", p.name)
        .Set("plain_ns_per_op", plain_ns)
        .Set("explain_ns_per_op", explain_ns)
        .Set("overhead_ratio",
             plain_ns == 0 ? 0.0
                           : static_cast<double>(explain_ns) /
                                 static_cast<double>(plain_ns));
  }
  if (report.Write(path)) {
    std::printf("wrote %s (narrow range reads %llu of %llu blocks)\n", path,
                static_cast<unsigned long long>(stats[1].blocks_read),
                static_cast<unsigned long long>(full_scan_blocks));
  }
}

}  // namespace

int main() {
  WriteRangeJson("BENCH_range_queries.json");
  return 0;
}
