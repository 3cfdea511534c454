#include "kds/wal.h"

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "abdl/parser.h"
#include "kds/engine.h"
#include "kds/snapshot.h"

namespace mlds::kds {
namespace {

using abdm::DatabaseDescriptor;
using abdm::FileDescriptor;
using abdm::ValueKind;

FileDescriptor AccountFile() {
  FileDescriptor f;
  f.name = "account";
  f.attributes = {
      {"FILE", ValueKind::kString, 0, true},
      {"acct", ValueKind::kString, 0, true},
      {"balance", ValueKind::kInteger, 0, true},
      {"note", ValueKind::kString, 40, false},
  };
  return f;
}

abdl::Request MustParse(std::string_view text) {
  auto r = abdl::ParseRequest(text);
  EXPECT_TRUE(r.ok()) << text << ": " << r.status();
  return *r;
}

std::string SnapshotOf(const Engine& engine) {
  std::ostringstream out;
  EXPECT_TRUE(SaveSnapshot(engine, out).ok());
  return out.str();
}

/// One unit of the workload: a single auto-committed request or a whole
/// transaction. Units are the granularity of the durability contract —
/// after a crash, recovery must yield exactly the units whose log
/// entries (through COMMIT) were fully framed.
struct Unit {
  std::vector<std::string> requests;  // size 1: single request.
  bool transactional = false;
};

/// Deterministic mixed workload: inserts, updates, deletes, and small
/// transactions over one file, with quoted strings thrown in so replay
/// exercises the printer/parser round trip.
std::vector<Unit> MakeWorkload(uint32_t seed, int units) {
  std::mt19937 rng(seed);
  std::vector<Unit> workload;
  int next_key = 0;
  auto insert = [&]() {
    std::string key = "a" + std::to_string(next_key++);
    std::string note = (next_key % 3 == 0) ? "pays ''rent''" : "savings";
    return "INSERT (<FILE, account>, <acct, '" + key + "'>, <balance, " +
           std::to_string(static_cast<int>(rng() % 1000)) + ">, <note, '" +
           note + "'>)";
  };
  auto mutate = [&]() -> std::string {
    std::string key = "a" + std::to_string(rng() % std::max(next_key, 1));
    switch (rng() % 3) {
      case 0:
        return "UPDATE ((FILE = account) and (acct = '" + key +
               "')) (balance = balance + 7)";
      case 1:
        return "DELETE ((FILE = account) and (acct = '" + key + "'))";
      default:
        return insert();
    }
  };
  for (int u = 0; u < units; ++u) {
    Unit unit;
    if (next_key > 2 && rng() % 3 == 0) {
      unit.transactional = true;
      int statements = 2 + static_cast<int>(rng() % 2);
      for (int s = 0; s < statements; ++s) unit.requests.push_back(mutate());
    } else {
      unit.requests.push_back(next_key < 3 ? insert() : mutate());
    }
    workload.push_back(std::move(unit));
  }
  return workload;
}

/// Applies `unit` to `engine`, ignoring failures: a crashed WAL refuses
/// the mutation and the workload driver (like a real client) moves on.
void ApplyUnit(Engine& engine, const Unit& unit) {
  if (unit.transactional) {
    abdl::Transaction txn;
    for (const auto& text : unit.requests) txn.push_back(MustParse(text));
    (void)engine.ExecuteTransaction(txn);
  } else {
    (void)engine.Execute(MustParse(unit.requests[0]));
  }
}

class WalRecoveryTest : public ::testing::Test {
 protected:
  DatabaseDescriptor Schema() {
    DatabaseDescriptor db;
    db.name = "bank";
    db.files = {AccountFile()};
    return db;
  }
};

/// The tentpole durability property: crash the log after *every* entry
/// boundary of a mixed workload (with a torn tail of varying length) and
/// check that recovery rebuilds exactly the committed prefix — byte-
/// identical to an engine that executed only the committed units.
TEST_F(WalRecoveryTest, CrashAfterEveryPrefixYieldsExactlyCommittedUnits) {
  const std::vector<Unit> workload = MakeWorkload(/*seed=*/42, /*units=*/18);

  // The schema is checkpointed rather than logged, so crash points count
  // only workload entries (mirrors a backend that checkpoints right after
  // its files are defined).
  std::string schema_checkpoint;
  {
    Engine schema_only;
    ASSERT_TRUE(schema_only.DefineDatabase(Schema()).ok());
    schema_checkpoint = SnapshotOf(schema_only);
  }

  // Reference run, no crash: record the cumulative entry count after each
  // unit so crash points map to committed-unit sets without hand-counting
  // the framing (transactions log BEGIN + writes + COMMIT).
  WalWriter clean_wal;
  Engine clean_engine;
  ASSERT_TRUE(clean_engine.DefineDatabase(Schema()).ok());
  clean_engine.AttachWal(&clean_wal);  // schema predates the log's arming.
  std::vector<uint64_t> entries_after_unit;
  for (const auto& unit : workload) {
    ApplyUnit(clean_engine, unit);
    entries_after_unit.push_back(clean_wal.entry_count());
  }
  const uint64_t total_entries = clean_wal.entry_count();
  ASSERT_GT(total_entries, workload.size());  // some units were txns.

  for (uint64_t crash_at = 0; crash_at <= total_entries; ++crash_at) {
    // Victim: same workload, log dies after `crash_at` appends, leaving
    // a torn tail of varying length (0 = clean cut at the boundary).
    WalWriter wal;
    Engine victim;
    ASSERT_TRUE(victim.DefineDatabase(Schema()).ok());
    victim.AttachWal(&wal);
    wal.ArmCrash({.entries_until_crash = static_cast<int>(crash_at),
                  .torn_bytes = static_cast<size_t>(crash_at % 9)});
    for (const auto& unit : workload) ApplyUnit(victim, unit);
    EXPECT_EQ(wal.entry_count(), crash_at);

    // Recover from (schema checkpoint, surviving log).
    Engine recovered;
    std::istringstream checkpoint(schema_checkpoint);
    auto report = RecoverEngine(checkpoint, wal.contents(), &recovered);
    ASSERT_TRUE(report.ok()) << "crash_at=" << crash_at << ": "
                             << report.status();
    EXPECT_EQ(report->entries_scanned, crash_at);

    // Oracle: an engine that executed exactly the committed units.
    Engine reference;
    ASSERT_TRUE(reference.DefineDatabase(Schema()).ok());
    for (size_t u = 0; u < workload.size(); ++u) {
      if (entries_after_unit[u] <= crash_at) ApplyUnit(reference, workload[u]);
    }
    EXPECT_EQ(SnapshotOf(recovered), SnapshotOf(reference))
        << "recovered state diverges at crash point " << crash_at;
  }
}

TEST_F(WalRecoveryTest, TornTailIsDetectedDiscardedAndRepairable) {
  WalWriter wal;
  Engine engine;
  engine.AttachWal(&wal);  // before DefineDatabase: DEFINEs must be logged.
  ASSERT_TRUE(engine.DefineDatabase(Schema()).ok());
  ASSERT_TRUE(engine
                  .Execute(MustParse("INSERT (<FILE, account>, <acct, 'a0'>, "
                                     "<balance, 10>)"))
                  .ok());
  // Crash mid-frame on the second insert: 5 bytes of its frame land.
  wal.ArmCrash({.entries_until_crash = 0, .torn_bytes = 5});
  EXPECT_FALSE(engine
                   .Execute(MustParse("INSERT (<FILE, account>, <acct, 'a1'>, "
                                      "<balance, 20>)"))
                   .ok());
  EXPECT_TRUE(wal.crashed());
  // Further mutations are refused: nothing unlogged is ever applied.
  EXPECT_FALSE(engine
                   .Execute(MustParse("INSERT (<FILE, account>, <acct, 'a2'>, "
                                      "<balance, 30>)"))
                   .ok());
  EXPECT_EQ(engine.FileSize("account"), 1u);

  WalScan scan = ScanWal(wal.contents());
  EXPECT_TRUE(scan.torn);
  EXPECT_EQ(scan.torn_bytes, 5u);
  ASSERT_EQ(scan.entries.size(), 2u);  // DEFINE + first insert.

  // Repair truncates the torn frame and re-opens the log for appends.
  EXPECT_EQ(wal.RepairTail(), 5u);
  EXPECT_FALSE(wal.crashed());
  EXPECT_FALSE(ScanWal(wal.contents()).torn);
  EXPECT_TRUE(engine
                  .Execute(MustParse("INSERT (<FILE, account>, <acct, 'a3'>, "
                                     "<balance, 40>)"))
                  .ok());

  Engine recovered;
  std::istringstream no_checkpoint("");
  auto report = RecoverEngine(no_checkpoint, wal.contents(), &recovered);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(recovered.FileSize("account"), 2u);  // a0 and a3, not a1/a2.
  EXPECT_EQ(SnapshotOf(recovered), SnapshotOf(engine));
}

TEST_F(WalRecoveryTest, UncommittedTransactionIsDiscardedWhole) {
  WalWriter wal;
  Engine engine;
  engine.AttachWal(&wal);
  ASSERT_TRUE(engine.DefineDatabase(Schema()).ok());
  ASSERT_TRUE(engine
                  .Execute(MustParse("INSERT (<FILE, account>, <acct, 'a0'>, "
                                     "<balance, 10>)"))
                  .ok());
  // Transaction of two writes; the log dies before COMMIT can be framed
  // (DEFINE + insert = 2 entries so far; BEGIN + 2 TREQUESTs land, the
  // COMMIT append is the crash).
  wal.ArmCrash({.entries_until_crash = 3, .torn_bytes = 0});
  abdl::Transaction txn;
  txn.push_back(MustParse(
      "INSERT (<FILE, account>, <acct, 'a1'>, <balance, 20>)"));
  txn.push_back(MustParse(
      "UPDATE ((FILE = account) and (acct = 'a0')) (balance = 99)"));
  EXPECT_FALSE(engine.ExecuteTransaction(txn).ok());

  Engine recovered;
  std::istringstream no_checkpoint("");
  auto report = RecoverEngine(no_checkpoint, wal.contents(), &recovered);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->discarded_uncommitted, 2u);
  EXPECT_EQ(recovered.FileSize("account"), 1u);
  auto resp = recovered.Execute(MustParse(
      "RETRIEVE ((FILE = account) and (acct = 'a0')) (all attributes)"));
  ASSERT_TRUE(resp.ok());
  ASSERT_EQ(resp->records.size(), 1u);
  EXPECT_EQ(resp->records[0].GetOrNull("balance").AsInteger(), 10);
}

TEST_F(WalRecoveryTest, CheckpointTruncatesLogAndSeedsRecovery) {
  WalWriter wal;
  Engine engine;
  engine.AttachWal(&wal);
  ASSERT_TRUE(engine.DefineDatabase(Schema()).ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(engine
                    .Execute(MustParse("INSERT (<FILE, account>, <acct, 'a" +
                                       std::to_string(i) + "'>, <balance, " +
                                       std::to_string(i * 10) + ">)"))
                    .ok());
  }
  std::ostringstream checkpoint;
  ASSERT_TRUE(Checkpoint(engine, checkpoint, &wal).ok());
  EXPECT_EQ(wal.entry_count(), 0u);

  // Post-checkpoint mutations accumulate in the (now short) log.
  ASSERT_TRUE(engine
                  .Execute(MustParse("UPDATE ((FILE = account) and "
                                     "(acct = 'a2')) (balance = 777)"))
                  .ok());
  ASSERT_TRUE(engine
                  .Execute(MustParse(
                      "DELETE ((FILE = account) and (acct = 'a4'))"))
                  .ok());
  EXPECT_EQ(wal.entry_count(), 2u);

  Engine recovered;
  std::istringstream snapshot(checkpoint.str());
  auto report = RecoverEngine(snapshot, wal.contents(), &recovered);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->replayed, 2u);
  EXPECT_EQ(SnapshotOf(recovered), SnapshotOf(engine));
}

TEST_F(WalRecoveryTest, FailedRequestsRefailDeterministicallyOnReplay) {
  WalWriter wal;
  Engine engine;
  engine.AttachWal(&wal);
  ASSERT_TRUE(engine.DefineDatabase(Schema()).ok());
  // Logged before applied, so a request that fails validation still lands
  // in the log — and must fail identically on replay, not corrupt state.
  EXPECT_FALSE(
      engine.Execute(MustParse("INSERT (<FILE, nofile>, <x, 1>)")).ok());
  ASSERT_TRUE(engine
                  .Execute(MustParse("INSERT (<FILE, account>, <acct, 'a0'>, "
                                     "<balance, 10>)"))
                  .ok());

  Engine recovered;
  std::istringstream no_checkpoint("");
  auto report = RecoverEngine(no_checkpoint, wal.contents(), &recovered);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->failed_replays, 1u);
  EXPECT_EQ(SnapshotOf(recovered), SnapshotOf(engine));
}

TEST_F(WalRecoveryTest, QuotedStringsSurviveTheLogRoundTrip) {
  WalWriter wal;
  Engine engine;
  engine.AttachWal(&wal);
  ASSERT_TRUE(engine.DefineDatabase(Schema()).ok());
  ASSERT_TRUE(engine
                  .Execute(MustParse(
                      "INSERT (<FILE, account>, <acct, 'a''0'>, "
                      "<balance, 1>, <note, 'it''s, <odd> ''stuff'''>)"))
                  .ok());
  Engine recovered;
  std::istringstream no_checkpoint("");
  ASSERT_TRUE(RecoverEngine(no_checkpoint, wal.contents(), &recovered).ok());
  auto resp = recovered.Execute(
      MustParse("RETRIEVE ((FILE = account)) (all attributes)"));
  ASSERT_TRUE(resp.ok());
  ASSERT_EQ(resp->records.size(), 1u);
  EXPECT_EQ(resp->records[0].GetOrNull("acct").AsString(), "a'0");
  EXPECT_EQ(resp->records[0].GetOrNull("note").AsString(),
            "it's, <odd> 'stuff'");
  EXPECT_EQ(SnapshotOf(recovered), SnapshotOf(engine));
}

TEST_F(WalRecoveryTest, FloatsKeepEveryDigitThroughReplay) {
  FileDescriptor f;
  f.name = "reading";
  f.attributes = {{"FILE", ValueKind::kString, 0, true},
                  {"x", ValueKind::kFloat, 0, true}};
  WalWriter wal;
  Engine engine;
  engine.AttachWal(&wal);
  ASSERT_TRUE(engine.DefineFile(f).ok());
  ASSERT_TRUE(
      engine.Execute(MustParse("INSERT (<FILE, reading>, <x, 1234567.25>)"))
          .ok());
  Engine recovered;
  std::istringstream no_checkpoint("");
  ASSERT_TRUE(RecoverEngine(no_checkpoint, wal.contents(), &recovered).ok());
  auto resp = recovered.Execute(
      MustParse("RETRIEVE ((FILE = reading)) (all attributes)"));
  ASSERT_TRUE(resp.ok());
  ASSERT_EQ(resp->records.size(), 1u);
  EXPECT_EQ(resp->records[0].GetOrNull("x").AsFloat(), 1234567.25);
}

TEST_F(WalRecoveryTest, IntegralFloatsStayFloatThroughReplay) {
  // The log prints 87.0 as "87" and -0.0 as "-0", in INSERT keywords and
  // UPDATE modifiers alike; replay parses each by the attribute's kind.
  FileDescriptor f;
  f.name = "reading";
  f.attributes = {{"FILE", ValueKind::kString, 0, true},
                  {"n", ValueKind::kInteger, 0, true},
                  {"x", ValueKind::kFloat, 0, false}};
  WalWriter wal;
  Engine engine;
  engine.AttachWal(&wal);
  ASSERT_TRUE(engine.DefineFile(f).ok());
  const double values[] = {87.0, -0.0, 0.5};
  for (int n = 0; n < 3; ++n) {
    abdm::Record record;
    record.Set("FILE", abdm::Value::String("reading"));
    record.Set("n", abdm::Value::Integer(n));
    record.Set("x", abdm::Value::Float(values[n]));
    ASSERT_TRUE(engine.Execute(abdl::InsertRequest{{record}}).ok());
  }
  ASSERT_TRUE(engine
                  .Execute(abdl::UpdateRequest{
                      abdm::Query::ForFile(
                          "reading", {abdm::Predicate{"n", abdm::RelOp::kEq,
                                                      abdm::Value::Integer(2)}}),
                      abdl::Modifier{"x", abdl::ModifierKind::kSet,
                                     abdm::Value::Float(3.0)}})
                  .ok());

  Engine recovered;
  std::istringstream no_checkpoint("");
  ASSERT_TRUE(RecoverEngine(no_checkpoint, wal.contents(), &recovered).ok());
  auto resp = recovered.Execute(
      MustParse("RETRIEVE ((FILE = reading)) (all attributes) BY n"));
  ASSERT_TRUE(resp.ok());
  ASSERT_EQ(resp->records.size(), 3u);
  const double expected[] = {87.0, -0.0, 3.0};
  for (int n = 0; n < 3; ++n) {
    const abdm::Value x = resp->records[n].GetOrNull("x");
    ASSERT_TRUE(x.is_float()) << n;
    EXPECT_EQ(x.AsFloat(), expected[n]);
    EXPECT_EQ(std::signbit(x.AsFloat()), std::signbit(expected[n])) << n;
  }
  EXPECT_TRUE(resp->records[0].GetOrNull("n").is_integer());
}

TEST_F(WalRecoveryTest, KernelAssignedKeysReplayAsLogged) {
  // The log holds each record with the key the kernel gave it, and no
  // guard: replay writes the same keys and rebuilds the key counter.
  FileDescriptor f;
  f.name = "staff";
  f.attributes = {{"FILE", ValueKind::kString, 0, true},
                  {"staff", ValueKind::kString, 0, true},
                  {"name", ValueKind::kString, 0, false, true}};
  WalWriter wal;
  Engine engine;
  engine.AttachWal(&wal);
  ASSERT_TRUE(engine.DefineFile(f).ok());
  auto row = [](const std::string& name) {
    abdm::Record record;
    record.Set("FILE", abdm::Value::String("staff"));
    record.Set("staff", abdm::Value::Null());
    record.Set("name", abdm::Value::String(name));
    return record;
  };
  const abdl::InsertGuard guard{"staff", {"name"}, abdl::NullRule::kSkipRecord};
  auto batch = engine.Execute(
      abdl::InsertRequest{{row("ada"), row("grace")}, guard});
  ASSERT_TRUE(batch.ok()) << batch.status();
  EXPECT_EQ(batch->keys, (std::vector<std::string>{"staff_1", "staff_2"}));
  // A violation is refused before the log sees it.
  EXPECT_TRUE(engine.Execute(abdl::InsertRequest{{row("ada")}, guard})
                  .status()
                  .IsConstraintViolation());
  EXPECT_EQ(wal.contents().find("NULL"), std::string::npos);

  Engine recovered;
  std::istringstream no_checkpoint("");
  ASSERT_TRUE(RecoverEngine(no_checkpoint, wal.contents(), &recovered).ok());
  auto keys = recovered.Execute(MustParse("RETRIEVE ((FILE = staff)) (staff)"));
  ASSERT_TRUE(keys.ok());
  ASSERT_EQ(keys->records.size(), 2u);
  EXPECT_EQ(keys->records[0].GetOrNull("staff").AsString(), "staff_1");
  EXPECT_EQ(keys->records[1].GetOrNull("staff").AsString(), "staff_2");
  auto next = recovered.Execute(abdl::InsertRequest{{row("edsger")}, guard});
  ASSERT_TRUE(next.ok()) << next.status();
  EXPECT_EQ(next->keys, std::vector<std::string>{"staff_3"});
}

// ---------------------------------------------------------------------
// Group commit: concurrent appends coalesce into shared flushes, and a
// crash at any boundary of the coalesced log still recovers a byte-
// identical committed prefix.
// ---------------------------------------------------------------------

/// Concurrent appenders with a widened coalescing window: every append
/// returns only once its entry is durable, the durable log carries every
/// entry exactly once with each thread's entries in submission order,
/// and the flush count proves real coalescing (fewer flushes than
/// entries). The recovered engine then holds every appended record.
TEST_F(WalRecoveryTest, ConcurrentAppendsCoalesceIntoSharedFlushes) {
  std::string schema_checkpoint;
  {
    Engine schema_only;
    ASSERT_TRUE(schema_only.DefineDatabase(Schema()).ok());
    schema_checkpoint = SnapshotOf(schema_only);
  }

  WalWriter wal;
  wal.set_flush_latency_us(300);  // hold flushes open so groups form.
  constexpr int kThreads = 8;
  constexpr int kPerThread = 40;
  std::vector<int> durability_misses(kThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&wal, &durability_misses, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const std::string acct =
            "t" + std::to_string(t) + "_" + std::to_string(i);
        const std::string payload = "REQUEST INSERT (<FILE, account>, "
                                    "<acct, '" + acct + "'>, <balance, 1>)";
        if (!wal.Append(payload).ok()) {
          ++durability_misses[t];
          continue;
        }
        // Group commit must not weaken the durability contract: once
        // Append returns, the durable image already frames this entry.
        if (i % 8 == 0 &&
            wal.contents().find("'" + acct + "'") == std::string::npos) {
          ++durability_misses[t];
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(durability_misses[t], 0);

  constexpr uint64_t kTotal =
      static_cast<uint64_t>(kThreads) * kPerThread;
  EXPECT_EQ(wal.entry_count(), kTotal);
  const WalScan scan = ScanWal(wal.contents());
  EXPECT_FALSE(scan.torn);
  ASSERT_EQ(scan.entries.size(), kTotal);
  // Per-thread order is preserved (flushes are LSN-ordered prefixes);
  // cross-thread interleaving is free.
  std::vector<int> next_index(kThreads, 0);
  for (const WalEntry& entry : scan.entries) {
    for (int t = 0; t < kThreads; ++t) {
      const std::string tag =
          "'t" + std::to_string(t) + "_" + std::to_string(next_index[t]) + "'";
      if (entry.payload.find(tag) != std::string::npos) {
        ++next_index[t];
        break;
      }
    }
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(next_index[t], kPerThread) << "thread " << t;
  }

  const WalWriter::GroupCommitStats stats = wal.group_commit_stats();
  EXPECT_EQ(stats.entries, kTotal);
  EXPECT_GE(stats.max_group, 2u);
  EXPECT_LT(stats.flushes, stats.entries)
      << "no append ever joined another's flush";

  Engine recovered;
  std::istringstream checkpoint(schema_checkpoint);
  auto report = RecoverEngine(checkpoint, wal.contents(), &recovered);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->replayed, kTotal);
  EXPECT_EQ(recovered.FileSize("account"), kTotal);
}

/// Crash the log at every entry boundary of a workload whose units are
/// themselves multi-entry flush groups — kernel batch INSERTs (one wide
/// entry) and transactions (BEGIN..COMMIT appended as one AppendBatch) —
/// and check recovery rebuilds exactly the committed units, byte-
/// identical to an engine that executed only those. A crash landing
/// inside a transaction's coalesced entries must discard it whole.
TEST_F(WalRecoveryTest, GroupCommittedLogRecoversExactlyAtEveryBoundary) {
  struct Op {
    std::vector<std::string> requests;  // size 1: single auto-commit.
    bool transactional = false;
    int batch_rows = 0;  // > 0: batch INSERT of this many records.
  };
  auto batch_record = [](int key) {
    abdm::Record record;
    record.Set("FILE", abdm::Value::String("account"));
    record.Set("acct", abdm::Value::String("b" + std::to_string(key)));
    record.Set("balance", abdm::Value::Integer(key * 3));
    return record;
  };
  std::vector<Op> workload;
  int next_batch_key = 0;
  std::mt19937 rng(7);
  for (int u = 0; u < 14; ++u) {
    Op op;
    switch (u % 3) {
      case 0:
        op.batch_rows = 1 + static_cast<int>(rng() % 4);
        break;
      case 1:
        op.transactional = true;
        op.requests = {
            "INSERT (<FILE, account>, <acct, 'tx" + std::to_string(u) +
                "'>, <balance, 5>)",
            "UPDATE ((FILE = account) and (acct = 'tx" + std::to_string(u) +
                "')) (balance = balance + 2)",
        };
        break;
      default:
        op.requests = {"INSERT (<FILE, account>, <acct, 's" +
                       std::to_string(u) + "'>, <balance, 9>)"};
        break;
    }
    workload.push_back(std::move(op));
  }
  auto apply = [&](Engine& engine, const Op& op, int* batch_key) {
    if (op.batch_rows > 0) {
      abdl::InsertRequest batch;
      for (int r = 0; r < op.batch_rows; ++r) {
        batch.records.push_back(batch_record((*batch_key)++));
      }
      (void)engine.Execute(abdl::Request(std::move(batch)));
      return;
    }
    if (op.transactional) {
      abdl::Transaction txn;
      for (const auto& text : op.requests) txn.push_back(MustParse(text));
      (void)engine.ExecuteTransaction(txn);
      return;
    }
    (void)engine.Execute(MustParse(op.requests[0]));
  };

  std::string schema_checkpoint;
  {
    Engine schema_only;
    ASSERT_TRUE(schema_only.DefineDatabase(Schema()).ok());
    schema_checkpoint = SnapshotOf(schema_only);
  }

  // Reference run: map entry counts to completed ops.
  WalWriter clean_wal;
  Engine clean_engine;
  ASSERT_TRUE(clean_engine.DefineDatabase(Schema()).ok());
  clean_engine.AttachWal(&clean_wal);
  std::vector<uint64_t> entries_after_op;
  next_batch_key = 0;
  for (const Op& op : workload) {
    apply(clean_engine, op, &next_batch_key);
    entries_after_op.push_back(clean_wal.entry_count());
  }
  const uint64_t total_entries = clean_wal.entry_count();
  // Transactions contribute BEGIN + bodies + COMMIT; batches one entry.
  ASSERT_GT(total_entries, workload.size());

  for (uint64_t crash_at = 0; crash_at <= total_entries; ++crash_at) {
    WalWriter wal;
    Engine victim;
    ASSERT_TRUE(victim.DefineDatabase(Schema()).ok());
    victim.AttachWal(&wal);
    wal.ArmCrash({.entries_until_crash = static_cast<int>(crash_at),
                  .torn_bytes = static_cast<size_t>(crash_at % 7)});
    int victim_key = 0;
    for (const Op& op : workload) apply(victim, op, &victim_key);
    EXPECT_EQ(wal.entry_count(), crash_at);

    Engine recovered;
    std::istringstream checkpoint(schema_checkpoint);
    auto report = RecoverEngine(checkpoint, wal.contents(), &recovered);
    ASSERT_TRUE(report.ok()) << "crash_at=" << crash_at << ": "
                             << report.status();
    EXPECT_EQ(report->entries_scanned, crash_at);

    Engine reference;
    ASSERT_TRUE(reference.DefineDatabase(Schema()).ok());
    int reference_key = 0;
    for (size_t u = 0; u < workload.size(); ++u) {
      if (entries_after_op[u] <= crash_at) {
        apply(reference, workload[u], &reference_key);
      } else if (workload[u].batch_rows > 0) {
        // Skipped batches still consume their keys so later batches
        // insert the same records as the victim run did.
        reference_key += workload[u].batch_rows;
      }
    }
    EXPECT_EQ(SnapshotOf(recovered), SnapshotOf(reference))
        << "recovered state diverges at crash point " << crash_at;
  }
}

}  // namespace
}  // namespace mlds::kds
