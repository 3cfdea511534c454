// E-joins — fused multi-file JOIN plans vs the per-record traversal path.
//
// A CODASYL set chain (region <- store <- clerk <- sale, three
// member-side set levels) is walked two ways over the same data:
//
//  * per-record: the classical navigational path — one RETRIEVE per
//    owner occurrence per level, the request pattern FIND FIRST/NEXT
//    WITHIN loops generate (1 + owners-per-level kernel round trips);
//  * fused: the WALK statement, which lowers the whole chain to one
//    RETRIEVE-COMMON join per level, strategy chosen from the statistics
//    subsystem's estimates.
//
// The asymmetry the bench measures is block traffic: the per-record
// path pays one scattered block fetch per member record it visits,
// while a fused join fetches every data page once, page-grouped. Both
// paths run under the engine's disk-latency emulation (a per-block
// kds::DiskModel waited at latency scale 1 — data is loaded with the
// scale at 0, timed with it at 1) so the block-count advantage is
// observable as wall-clock speedup; the raw block counts are reported
// alongside the timings.
//
// Both paths must visit the same final-level records; main() writes
// BENCH_joins.json (with the `fused_speedup_ge_5x` floor that
// tools/check.sh greps) before running the registered google-benchmarks.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "abdl/request.h"
#include "bench_json.h"
#include "daplex/ddl_parser.h"
#include "kc/executor.h"
#include "kds/engine.h"
#include "kms/dml_machine.h"
#include "transform/abdm_mapping.h"
#include "transform/fun_to_net.h"

namespace {

using namespace mlds;
using abdm::Predicate;
using abdm::Query;
using abdm::RelOp;
using abdm::Record;
using abdm::Value;
using transform::MakeDbKey;

// 4 regions x 8 stores x 8 clerks x 16 sales = 4096 final-level records.
constexpr int kRegions = 4;
constexpr int kStoresPerRegion = 8;
constexpr int kClerksPerStore = 8;
constexpr int kSalesPerClerk = 16;
constexpr int kStores = kRegions * kStoresPerRegion;
constexpr int kClerks = kStores * kClerksPerStore;
constexpr int kSales = kClerks * kSalesPerClerk;

// Emulated disk: a pure per-block transfer cost for every block read or
// written (see the header comment); loading runs with the scale at 0.
constexpr kds::DiskModel kDisk{.seek_ms = 0,
                               .transfer_ms_per_block = 0.1,
                               .index_probe_ms = 0,
                               .cpu_ms_per_record = 0};

kds::EngineOptions EmulatedDiskOptions() {
  kds::EngineOptions options;
  options.disk = kDisk;
  return options;
}

constexpr char kChainDdl[] = R"(
SCHEMA shopchain;

TYPE region IS ENTITY
  rname : STRING(20);
END ENTITY;

TYPE store IS ENTITY
  sname     : STRING(20);
  in_region : region;
END ENTITY;

TYPE clerk IS ENTITY
  cname    : STRING(20);
  works_at : store;
END ENTITY;

TYPE sale IS ENTITY
  amount  : INTEGER;
  sold_by : clerk;
END ENTITY;
)";

struct ChainDatabase {
  kds::Engine engine{EmulatedDiskOptions()};
  std::unique_ptr<kc::EngineExecutor> executor;
  transform::FunNetMapping mapping;
  std::unique_ptr<kms::DmlMachine> machine;
};

Record BaseRecord(const std::string& file, const std::string& dbkey) {
  Record r;
  r.Set(std::string(abdm::kFileAttribute), Value::String(file));
  r.Set(file, Value::String(dbkey));
  return r;
}

ChainDatabase* LoadChain() {
  auto* db = new ChainDatabase;
  auto schema = daplex::ParseFunctionalSchema(kChainDdl);
  if (!schema.ok()) {
    std::fprintf(stderr, "schema: %s\n", schema.status().ToString().c_str());
    return db;
  }
  auto mapping = transform::TransformFunctionalToNetwork(*schema);
  if (!mapping.ok()) {
    std::fprintf(stderr, "transform: %s\n",
                 mapping.status().ToString().c_str());
    return db;
  }
  db->mapping = std::move(*mapping);
  db->executor = std::make_unique<kc::EngineExecutor>(&db->engine);
  auto descriptor =
      transform::MapNetworkToAbdm(db->mapping.schema, &db->mapping);
  if (!descriptor.ok() ||
      !db->executor->DefineDatabase(*descriptor).ok()) {
    std::fprintf(stderr, "define failed\n");
    return db;
  }

  auto insert = [&](Record r) {
    auto resp = db->executor->Execute(abdl::InsertRequest{std::move(r)});
    if (!resp.ok()) {
      std::fprintf(stderr, "insert: %s\n", resp.status().ToString().c_str());
    }
  };
  for (int i = 1; i <= kRegions; ++i) {
    Record r = BaseRecord("region", MakeDbKey("region", i));
    r.Set("rname", Value::String("region_name_" + std::to_string(i)));
    insert(std::move(r));
  }
  for (int i = 1; i <= kStores; ++i) {
    Record r = BaseRecord("store", MakeDbKey("store", i));
    r.Set("sname", Value::String("store_name_" + std::to_string(i)));
    r.Set("in_region",
          Value::String(MakeDbKey("region", (i - 1) % kRegions + 1)));
    insert(std::move(r));
  }
  for (int i = 1; i <= kClerks; ++i) {
    Record r = BaseRecord("clerk", MakeDbKey("clerk", i));
    r.Set("cname", Value::String("clerk_name_" + std::to_string(i)));
    r.Set("works_at", Value::String(MakeDbKey("store", (i - 1) % kStores + 1)));
    insert(std::move(r));
  }
  for (int i = 1; i <= kSales; ++i) {
    Record r = BaseRecord("sale", MakeDbKey("sale", i));
    r.Set("amount", Value::Integer(10 + i % 90));
    r.Set("sold_by", Value::String(MakeDbKey("clerk", (i - 1) % kClerks + 1)));
    insert(std::move(r));
  }

  db->machine = std::make_unique<kms::DmlMachine>(
      &db->mapping.schema, &db->mapping, db->executor.get());
  db->engine.set_latency_scale(1.0);
  return db;
}

ChainDatabase& Chain() {
  static ChainDatabase* db = LoadChain();
  return *db;
}

/// One level of the per-record navigational path: for every current
/// record, one kernel RETRIEVE fetching its set members — the request
/// pattern a FIND FIRST/NEXT WITHIN loop issues. Returns the member
/// records of the whole level and counts the requests.
std::vector<Record> PerRecordLevel(ChainDatabase& db,
                                   const std::vector<Record>& current,
                                   const std::string& owner_type,
                                   const std::string& member_type,
                                   const std::string& set_attr,
                                   size_t* requests) {
  std::vector<Record> next;
  for (const Record& owner : current) {
    abdl::RetrieveRequest req;
    req.all_attributes = true;
    req.query = Query::And(
        {Predicate{std::string(abdm::kFileAttribute), RelOp::kEq,
                   Value::String(member_type)},
         Predicate{set_attr, RelOp::kEq, owner.GetOrNull(owner_type)}});
    auto resp = db.executor->Execute(req);
    ++*requests;
    if (!resp.ok()) {
      std::fprintf(stderr, "retrieve: %s\n",
                   resp.status().ToString().c_str());
      return next;
    }
    for (Record& r : resp->records) next.push_back(std::move(r));
  }
  return next;
}

/// The full 3-level per-record traversal; returns the visited
/// final-level records.
std::vector<Record> PerRecordWalk(ChainDatabase& db, size_t* requests) {
  abdl::RetrieveRequest roots;
  roots.all_attributes = true;
  roots.query = Query::And({Predicate{std::string(abdm::kFileAttribute),
                                      RelOp::kEq, Value::String("region")}});
  auto resp = db.executor->Execute(roots);
  ++*requests;
  if (!resp.ok()) return {};
  std::vector<Record> current = std::move(resp->records);
  current = PerRecordLevel(db, current, "region", "store", "in_region",
                           requests);
  current = PerRecordLevel(db, current, "store", "clerk", "works_at",
                           requests);
  current = PerRecordLevel(db, current, "clerk", "sale", "sold_by", requests);
  return current;
}

size_t FusedWalk(ChainDatabase& db) {
  auto result =
      db.machine->ExecuteText("WALK in_region THEN works_at THEN sold_by");
  if (!result.ok()) {
    std::fprintf(stderr, "walk: %s\n", result.status().ToString().c_str());
    return 0;
  }
  return result->records.size();
}

void BM_Joins_PerRecordTraversal(benchmark::State& state) {
  ChainDatabase& db = Chain();
  size_t visited = 0;
  for (auto _ : state) {
    size_t requests = 0;
    visited = PerRecordWalk(db, &requests).size();
    benchmark::DoNotOptimize(visited);
  }
  state.counters["visited"] = static_cast<double>(visited);
}
BENCHMARK(BM_Joins_PerRecordTraversal);

void BM_Joins_FusedWalk(benchmark::State& state) {
  ChainDatabase& db = Chain();
  size_t visited = 0;
  for (auto _ : state) {
    visited = FusedWalk(db);
    benchmark::DoNotOptimize(visited);
  }
  state.counters["visited"] = static_cast<double>(visited);
}
BENCHMARK(BM_Joins_FusedWalk);

void WriteJoinsJson(const char* path) {
  ChainDatabase& db = Chain();
  if (db.machine == nullptr) return;

  // Correctness gate: both paths must visit the same final-level records.
  // The same runs provide the per-path block counts.
  size_t per_record_requests = 0;
  uint64_t blocks_before = db.engine.cumulative_io().total_blocks();
  const size_t per_record_visited =
      PerRecordWalk(db, &per_record_requests).size();
  const uint64_t per_record_blocks =
      db.engine.cumulative_io().total_blocks() - blocks_before;
  blocks_before = db.engine.cumulative_io().total_blocks();
  const size_t fused_visited = FusedWalk(db);
  const uint64_t fused_blocks =
      db.engine.cumulative_io().total_blocks() - blocks_before;
  const size_t fused_requests = db.machine->trace().back().abdl.size();

  constexpr int kRepetitions = 3;
  auto time_ns = [](auto&& fn) {
    uint64_t best = ~0ull;
    for (int rep = 0; rep < kRepetitions; ++rep) {
      const auto start = std::chrono::steady_clock::now();
      fn();
      const auto stop = std::chrono::steady_clock::now();
      best = std::min(
          best, static_cast<uint64_t>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        stop - start)
                        .count()));
    }
    return best;
  };
  const uint64_t per_record_ns = time_ns([&] {
    size_t requests = 0;
    benchmark::DoNotOptimize(PerRecordWalk(db, &requests).size());
  });
  const uint64_t fused_ns =
      time_ns([&] { benchmark::DoNotOptimize(FusedWalk(db)); });
  const double speedup =
      fused_ns == 0 ? 0.0
                    : static_cast<double>(per_record_ns) /
                          static_cast<double>(fused_ns);

  const kds::StatisticsCounters stats = db.engine.counters().statistics;

  bench::BenchReport report("joins");
  report.root()
      .Set("regions", kRegions)
      .Set("stores", kStores)
      .Set("clerks", kClerks)
      .Set("sales", kSales)
      .Set("set_levels", 3)
      .Set("per_record_requests", static_cast<uint64_t>(per_record_requests))
      .Set("fused_requests", static_cast<uint64_t>(fused_requests))
      .Set("per_record_visited", static_cast<uint64_t>(per_record_visited))
      .Set("fused_visited", static_cast<uint64_t>(fused_visited))
      .Set("visited_counts_equal", per_record_visited == fused_visited)
      .Set("transfer_ms_per_block", kDisk.transfer_ms_per_block)
      .Set("per_record_blocks", per_record_blocks)
      .Set("fused_blocks", fused_blocks)
      .Set("per_record_ns", per_record_ns)
      .Set("fused_ns", fused_ns)
      .Set("fused_speedup", speedup)
      .Set("fused_speedup_ge_5x",
           per_record_visited == fused_visited && speedup >= 5.0)
      .Set("fused_speedup_ge_10x",
           per_record_visited == fused_visited && speedup >= 10.0)
      .Set("hash_joins", stats.hash_joins)
      .Set("merge_joins", stats.merge_joins)
      .Set("histogram_builds", stats.histogram_builds)
      .Set("replans", stats.replans);
  if (report.Write(path)) {
    std::printf("wrote %s (%zu records, %zu vs %zu requests, %.1fx)\n", path,
                fused_visited, per_record_requests, fused_requests, speedup);
  }
}

}  // namespace

int main(int argc, char** argv) {
  WriteJoinsJson("BENCH_joins.json");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
