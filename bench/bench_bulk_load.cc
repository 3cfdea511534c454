// E-bulk — the bulk-ingest fast path: prepared INSERT templates, batch
// execution, and WAL group commit.
//
// The PR this bench prices replaced per-record INSERT round trips with
// prepared/batched DML (one kernel request and one WAL entry per chunk
// of EffectiveBatchSize rows) and gave the WAL leader-follower group
// commit so concurrent writers share flushes. Four questions:
//
//  - single_vs_batch: wall time of a bulk load record-by-record vs
//    through Bind chunks, each with the log detached and attached.
//    E-faults measured 36.4% WAL overhead on the single-insert path; the
//    batch path amortises framing across the chunk and must stay under
//    10%.
//  - warm_cache: TranslationCache hit rate when one prepared INSERT
//    template carries a whole load — everything after the first chunk
//    should be a hit (> 90%).
//  - group_commit: concurrent appenders coalescing into shared flushes;
//    flushes well under entries, with the observed max group size.
//  - crash_recovery: a crash mid-load with a torn tail frame must
//    recover to exactly the fully-framed batches — snapshots compared
//    byte for byte.
//  - bulk_erase: one DELETE of every record, one UPDATE moving every
//    record between the buckets of a four-value attribute, and the same
//    two as one-record statements over every fourth record (the traffic
//    of CODASYL ERASE and one-entity UPDATEs), at kEraseRecords
//    and twice that. No directory edit may cost the size of the bucket
//    it edits (FILE's lists every record), so doubling the file may at
//    most double the time (bulk_erase_linear allows 3x); an edit that
//    shifts a whole vector bucket would quadruple it.
//
// main() writes BENCH_bulk_load.json. MLDS_BULK_RECORDS overrides the
// load size (the check.sh smoke stage uses a small one; the committed
// report is the full 1M-record run).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "abdl/parser.h"
#include "abdl/prepared.h"
#include "bench_json.h"
#include "kds/engine.h"
#include "kds/snapshot.h"
#include "kds/wal.h"
#include "mlds/mlds.h"

namespace {

using namespace mlds;

abdm::FileDescriptor AccountFile() {
  abdm::FileDescriptor f;
  f.name = "account";
  f.attributes = {
      {"FILE", abdm::ValueKind::kString, 0, true},
      {"acct", abdm::ValueKind::kString, 0, true},
      {"balance", abdm::ValueKind::kInteger, 0, true},
  };
  return f;
}

constexpr char kTemplate[] = "INSERT (<FILE, account>, <acct, ?>, <balance, ?>)";

abdl::PreparedRequest MustPrepare() {
  auto prepared = abdl::ParsePreparedInsert(kTemplate);
  if (!prepared.ok()) std::abort();
  return *prepared;
}

std::vector<std::vector<abdm::Value>> MakeRows(size_t records) {
  std::vector<std::vector<abdm::Value>> rows;
  rows.reserve(records);
  for (size_t i = 0; i < records; ++i) {
    rows.push_back({abdm::Value::String("a" + std::to_string(i)),
                    abdm::Value::Integer(static_cast<int64_t>(i % 9973))});
  }
  return rows;
}

double ElapsedMs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

size_t LoadRecords() {
  const char* env = std::getenv("MLDS_BULK_RECORDS");
  if (env != nullptr) {
    const long parsed = std::atol(env);
    if (parsed > 0) return static_cast<size_t>(parsed);
  }
  return 1000000;
}

/// Record-by-record ingest: one Bind, one kernel request, one WAL entry
/// per row — the pre-batch baseline.
double MeasureSingleMs(const std::vector<std::vector<abdm::Value>>& rows,
                       bool wal_on, int reps) {
  const abdl::PreparedRequest prepared = MustPrepare();
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    kds::WalWriter wal;
    kds::Engine engine;
    if (wal_on) engine.AttachWal(&wal);
    engine.DefineFile(AccountFile());
    const auto start = std::chrono::steady_clock::now();
    for (size_t i = 0; i < rows.size(); ++i) {
      auto bound = prepared.Bind(rows, i, i + 1);
      if (!bound.ok()) std::abort();
      (void)engine.Execute(abdl::Request(*std::move(bound)));
    }
    best = std::min(best, ElapsedMs(start));
  }
  return best;
}

/// Chunked ingest: Bind over [begin, end) windows of
/// EffectiveBatchSize rows, one kernel request and one WAL entry per
/// chunk.
double MeasureBatchMs(const std::vector<std::vector<abdm::Value>>& rows,
                      bool wal_on, int reps) {
  const abdl::PreparedRequest prepared = MustPrepare();
  const abdl::BatchLimits limits;
  const size_t chunk =
      abdl::EffectiveBatchSize(limits, prepared.params_per_row());
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    kds::WalWriter wal;
    kds::Engine engine;
    if (wal_on) engine.AttachWal(&wal);
    engine.DefineFile(AccountFile());
    const auto start = std::chrono::steady_clock::now();
    for (size_t begin = 0; begin < rows.size(); begin += chunk) {
      const size_t end = std::min(rows.size(), begin + chunk);
      auto batch = prepared.Bind(rows, begin, end);
      if (!batch.ok()) std::abort();
      (void)engine.Execute(abdl::Request(*std::move(batch)));
    }
    best = std::min(best, ElapsedMs(start));
  }
  return best;
}

/// Warm-template hit rate: one prepared INSERT carries the whole load,
/// so every ExecuteBatch after the first replays the cached translation.
double MeasureWarmCacheHitRate(size_t chunks) {
  MldsSystem system;
  if (!system
           .LoadRelationalDatabase(
               "SCHEMA ledger;\n"
               "CREATE TABLE staff (name CHAR(20) NOT NULL, wage FLOAT);\n")
           .ok()) {
    return -1.0;
  }
  auto session = system.OpenSqlSession("ledger");
  if (!session.ok()) return -1.0;
  const kms::TranslationCache::Stats before =
      system.translation_cache().stats();
  size_t key = 0;
  for (size_t c = 0; c < chunks; ++c) {
    std::vector<std::vector<abdm::Value>> rows;
    for (int i = 0; i < 32; ++i) {
      rows.push_back({abdm::Value::String("w" + std::to_string(key++)),
                      abdm::Value::Float(40.0)});
    }
    auto outcome = (*session)->ExecuteBatch(
        "INSERT INTO staff (name, wage) VALUES (?, ?)", rows);
    if (!outcome.ok()) return -1.0;
  }
  const kms::TranslationCache::Stats after = system.translation_cache().stats();
  const uint64_t hits = after.hits - before.hits;
  const uint64_t misses = after.misses - before.misses;
  const uint64_t total = hits + misses;
  return total == 0 ? -1.0 : static_cast<double>(hits) / total;
}

struct GroupCommitOutcome {
  uint64_t entries = 0;
  uint64_t flushes = 0;
  uint64_t max_group = 0;
  double wall_ms = 0.0;
};

/// Concurrent appenders sharing one log: the leader of each flush
/// carries every entry staged while it held (or waited for) the window.
GroupCommitOutcome MeasureGroupCommit(int threads, int appends_per_thread) {
  kds::WalWriter wal;
  wal.set_flush_latency_us(200);
  const std::string payload =
      "REQUEST INSERT (<FILE, account>, <acct, 'gc'>, <balance, 1>)";
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&wal, &payload, appends_per_thread] {
      for (int i = 0; i < appends_per_thread; ++i) {
        if (!wal.Append(payload).ok()) return;
      }
    });
  }
  for (std::thread& w : workers) w.join();
  GroupCommitOutcome out;
  out.wall_ms = ElapsedMs(start);
  const kds::WalWriter::GroupCommitStats stats = wal.group_commit_stats();
  out.entries = stats.entries;
  out.flushes = stats.flushes;
  out.max_group = stats.max_group;
  return out;
}

/// Records of the smaller bulk-erase file; the larger holds twice as
/// many. Fixed, so every run times the same statements (each >= 50 ms).
constexpr size_t kEraseRecords = 60000;

abdm::FileDescriptor LedgerFile() {
  abdm::FileDescriptor f;
  f.name = "ledger";
  f.attributes = {
      {"FILE", abdm::ValueKind::kString, 0, true},
      {"acct", abdm::ValueKind::kString, 0, true},
      {"tier", abdm::ValueKind::kInteger, 0, true},
  };
  return f;
}

/// One bulk_erase row: `statement` runs once over the whole ledger, or,
/// with `every` > 0, once per every'th record with "{}" naming it.
struct EraseCase {
  const char* op;
  const char* statement;
  size_t every;
};

/// Best wall time of `c`'s statements over a fresh `records`-record
/// ledger (acct unique, tier in 0..3), loading in Bind chunks
/// untimed.
double MeasureBulkEraseMs(size_t records, const EraseCase& c, int reps) {
  auto prepared = abdl::ParsePreparedInsert(
      "INSERT (<FILE, ledger>, <acct, ?>, <tier, ?>)");
  if (!prepared.ok()) std::abort();
  std::vector<std::string> statements;
  if (c.every == 0) statements.push_back(c.statement);
  for (size_t i = 0; c.every > 0 && i < records; i += c.every) {
    std::string statement = c.statement;
    statement.replace(statement.find("{}"), 2, std::to_string(i));
    statements.push_back(std::move(statement));
  }
  std::vector<abdl::Request> requests;
  for (const std::string& statement : statements) {
    auto request = abdl::ParseRequest(statement);
    if (!request.ok()) std::abort();
    requests.push_back(*std::move(request));
  }
  const uint64_t affected = c.every == 0 ? records : 1;
  std::vector<std::vector<abdm::Value>> rows;
  rows.reserve(records);
  for (size_t i = 0; i < records; ++i) {
    rows.push_back({abdm::Value::String("l" + std::to_string(i)),
                    abdm::Value::Integer(static_cast<int64_t>(i % 4))});
  }
  const size_t chunk = abdl::EffectiveBatchSize(abdl::BatchLimits{},
                                                prepared->params_per_row());
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    kds::Engine engine;
    engine.DefineFile(LedgerFile());
    for (size_t begin = 0; begin < records; begin += chunk) {
      auto batch =
          prepared->Bind(rows, begin, std::min(records, begin + chunk));
      if (!batch.ok() ||
          !engine.Execute(abdl::Request(*std::move(batch))).ok()) {
        std::abort();
      }
    }
    const auto start = std::chrono::steady_clock::now();
    for (const abdl::Request& request : requests) {
      auto response = engine.Execute(request);
      if (!response.ok() || response->affected != affected) std::abort();
    }
    best = std::min(best, ElapsedMs(start));
  }
  return best;
}

std::string SnapshotOf(const kds::Engine& engine) {
  std::ostringstream out;
  if (!kds::SaveSnapshot(engine, out).ok()) std::abort();
  return out.str();
}

/// Crash mid-load with a torn tail frame; recovery must land on exactly
/// the batches whose entries were fully framed.
bool MeasureCrashRecovery(const std::vector<std::vector<abdm::Value>>& rows,
                          double* recover_ms) {
  const abdl::PreparedRequest prepared = MustPrepare();
  const size_t chunk = 256;
  const size_t records = std::min<size_t>(rows.size(), 50000);
  const size_t total_batches = (records + chunk - 1) / chunk;
  // +1 for the logged DEFINE; tear 3 bytes into the next frame.
  const size_t crash_after = 1 + total_batches / 2;

  kds::WalWriter wal;
  wal.ArmCrash({crash_after, 3});
  kds::Engine engine;
  engine.AttachWal(&wal);
  engine.DefineFile(AccountFile());
  size_t batches_applied = 0;
  for (size_t begin = 0; begin < records; begin += chunk) {
    const size_t end = std::min(records, begin + chunk);
    auto batch = prepared.Bind(rows, begin, end);
    if (!batch.ok()) return false;
    if (!engine.Execute(abdl::Request(*std::move(batch))).ok()) break;
    ++batches_applied;
  }
  if (!wal.crashed()) return false;

  kds::Engine recovered;
  std::istringstream no_checkpoint("");
  const auto start = std::chrono::steady_clock::now();
  auto report = kds::RecoverEngine(no_checkpoint, wal.contents(), &recovered);
  *recover_ms = ElapsedMs(start);
  if (!report.ok()) return false;

  kds::Engine reference;
  reference.DefineFile(AccountFile());
  for (size_t b = 0; b < batches_applied; ++b) {
    const size_t begin = b * chunk;
    const size_t end = std::min(records, begin + chunk);
    auto batch = prepared.Bind(rows, begin, end);
    if (!batch.ok() ||
        !reference.Execute(abdl::Request(*std::move(batch))).ok()) {
      return false;
    }
  }
  return SnapshotOf(recovered) == SnapshotOf(reference);
}

void WriteBulkLoadJson(const char* path) {
  bench::BenchReport report("bulk_load");
  const size_t records = LoadRecords();
  const int reps = records >= 200000 ? 2 : 3;
  const std::vector<std::vector<abdm::Value>> rows = MakeRows(records);

  const double single_off_ms = MeasureSingleMs(rows, false, reps);
  const double single_on_ms = MeasureSingleMs(rows, true, reps);
  const double batch_off_ms = MeasureBatchMs(rows, false, reps);
  const double batch_on_ms = MeasureBatchMs(rows, true, reps);
  const double single_overhead_pct =
      100.0 * (single_on_ms - single_off_ms) / single_off_ms;
  const double batch_overhead_pct =
      100.0 * (batch_on_ms - batch_off_ms) / batch_off_ms;
  for (const char* mode : {"single", "batch"}) {
    const bool is_single = mode[0] == 's';
    const double off = is_single ? single_off_ms : batch_off_ms;
    const double on = is_single ? single_on_ms : batch_on_ms;
    report.AddRow("single_vs_batch")
        .Set("mode", mode)
        .Set("records", static_cast<uint64_t>(records))
        .Set("wal_detached_wall_ms", off)
        .Set("wal_attached_wall_ms", on)
        .Set("wal_attached_overhead_pct", 100.0 * (on - off) / off)
        .Set("records_per_sec_wal_attached", records / (on / 1000.0));
  }
  report.root()
      .Set("records", static_cast<uint64_t>(records))
      .Set("batch_speedup_wal_attached_x", single_on_ms / batch_on_ms)
      .Set("single_wal_overhead_pct", single_overhead_pct)
      .Set("batch_wal_overhead_pct", batch_overhead_pct)
      .Set("batch_wal_overhead_within_10pct", batch_overhead_pct < 10.0)
      .Set("batch_not_slower_than_single", batch_on_ms <= single_on_ms);

  const double hit_rate = MeasureWarmCacheHitRate(64);
  report.root()
      .Set("warm_cache_chunks", 64)
      .Set("warm_cache_hit_rate", hit_rate)
      .Set("warm_cache_hit_rate_ok", hit_rate > 0.9);

  const GroupCommitOutcome gc = MeasureGroupCommit(8, 1000);
  report.root()
      .Set("group_commit_threads", 8)
      .Set("group_commit_entries", gc.entries)
      .Set("group_commit_flushes", gc.flushes)
      .Set("group_commit_max_group", gc.max_group)
      .Set("group_commit_wall_ms", gc.wall_ms)
      .Set("batch_coalesced_flushes",
           gc.flushes > 0 && gc.flushes < gc.entries);

  double recover_ms = -1.0;
  const bool identical = MeasureCrashRecovery(rows, &recover_ms);
  report.root()
      .Set("crash_recover_wall_ms", recover_ms)
      .Set("recovery_byte_identical", identical);

  constexpr EraseCase kEraseCases[] = {
      {"delete_all", "DELETE ((FILE = ledger))", 0},
      {"update_all_low_cardinality",
       "UPDATE ((FILE = ledger)) (tier = tier + 1)", 0},
      {"delete_each", "DELETE ((FILE = ledger) and (acct = l{}))", 4},
      {"update_each_low_cardinality",
       "UPDATE ((FILE = ledger) and (acct = l{})) (tier = tier + 1)", 4},
  };
  bool erase_linear = true;
  for (const EraseCase& c : kEraseCases) {
    const double n_ms = MeasureBulkEraseMs(kEraseRecords, c, 3);
    const double n2_ms = MeasureBulkEraseMs(2 * kEraseRecords, c, 3);
    erase_linear = erase_linear && n2_ms <= 3.0 * n_ms;
    for (const auto& [records, ms] : {std::pair{kEraseRecords, n_ms},
                                      std::pair{2 * kEraseRecords, n2_ms}}) {
      report.AddRow("bulk_erase")
          .Set("op", c.op)
          .Set("records", static_cast<uint64_t>(records))
          .Set("wall_ms", ms);
    }
  }
  report.root().Set("bulk_erase_linear", erase_linear);

  if (report.Write(path)) {
    std::printf(
        "wrote %s (%zu records: batch %.0f ms vs single %.0f ms with WAL, "
        "batch overhead %.1f%% vs single %.1f%%, cache hit rate %.3f, "
        "%llu entries in %llu flushes, recovery %s)\n",
        path, records, batch_on_ms, single_on_ms, batch_overhead_pct,
        single_overhead_pct, hit_rate,
        static_cast<unsigned long long>(gc.entries),
        static_cast<unsigned long long>(gc.flushes),
        identical ? "byte-identical" : "DIVERGED");
  }
}

}  // namespace

int main() {
  WriteBulkLoadJson("BENCH_bulk_load.json");
  return 0;
}
