// Paged storage engine tests: on-disk persistence by default (page
// files + clean-shutdown marker, no snapshot calls), buffer-pool
// caching and eviction accounting, secondary indexes surviving
// restarts and WAL recovery, crash-at-every-boundary recovery onto
// page files, and backward compatibility with pre-paged snapshots.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "abdl/parser.h"
#include "kds/engine.h"
#include "kds/page.h"
#include "kds/snapshot.h"
#include "kds/wal.h"
#include "kfs/formatter.h"
#include "kms/daplex_machine.h"
#include "kms/dli_machine.h"
#include "kms/dml_machine.h"
#include "kms/sql_machine.h"
#include "mlds/mlds.h"
#include "university/university.h"

namespace mlds {
namespace {

using abdm::DatabaseDescriptor;
using abdm::FileDescriptor;
using abdm::ValueKind;
using kds::Engine;
using kds::EngineOptions;
using kds::PoolCounters;

/// A fresh per-test scratch directory under the test temp root; any
/// leftovers from a previous run of the same test are removed first.
std::string FreshDataDir(const std::string& name) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / ("mlds_paged_" + name);
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  return dir.string();
}

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

DatabaseDescriptor BankSchema() {
  DatabaseDescriptor db;
  db.name = "bank";
  db.files = {AccountFile()};
  return db;
}

abdl::Request MustParse(std::string_view text) {
  auto r = abdl::ParseRequest(text);
  EXPECT_TRUE(r.ok()) << text << ": " << r.status();
  return *r;
}

std::string SnapshotOf(const Engine& engine) {
  std::ostringstream out;
  EXPECT_TRUE(kds::SaveSnapshot(engine, out).ok());
  return out.str();
}

void MustExecute(Engine& engine, std::string_view text) {
  auto response = engine.Execute(MustParse(text));
  ASSERT_TRUE(response.ok()) << text << ": " << response.status();
}

std::string InsertAccount(int i) {
  return "INSERT (<FILE, account>, <acct, 'a" + std::to_string(i) +
         "'>, <balance, " + std::to_string(i * 10) +
         ">, <note, 'note-" + std::to_string(i) + "'>)";
}

// ---------------------------------------------------------------------
// Persistence across a clean restart: the tentpole contract. No
// snapshot call anywhere — the page files and the clean-shutdown
// marker alone carry the database.

TEST(PagedStorageTest, CleanRestartRestoresByteIdenticalState) {
  const std::string dir = FreshDataDir("clean_restart");
  std::string before;
  {
    EngineOptions options;
    options.data_dir = dir;
    Engine engine(options);
    ASSERT_TRUE(engine.restore_status().ok());
    ASSERT_TRUE(engine.DefineDatabase(BankSchema()).ok());
    for (int i = 0; i < 100; ++i) MustExecute(engine, InsertAccount(i));
    // Mutations and a record long enough to overflow one slot chain.
    MustExecute(engine,
                "UPDATE ((FILE = account) and (acct = 'a7')) (balance = 777)");
    MustExecute(engine, "DELETE ((FILE = account) and (acct = 'a13'))");
    MustExecute(engine,
                "INSERT (<FILE, account>, <acct, 'big'>, <balance, 1>, "
                "<note, '" + std::string(200, 'x') + "'>)");
    before = SnapshotOf(engine);
  }  // destructor flushes and writes the clean-shutdown marker.

  EngineOptions options;
  options.data_dir = dir;
  Engine revived(options);
  ASSERT_TRUE(revived.restore_status().ok());
  EXPECT_EQ(revived.FileSize("account"), 100u);  // 100 + big - a13.
  EXPECT_EQ(SnapshotOf(revived), before);

  // The restored store answers queries without any re-definition.
  auto response = revived.Execute(MustParse(
      "RETRIEVE ((FILE = account) and (acct = 'a7')) (all attributes)"));
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->records.size(), 1u);
  EXPECT_EQ(response->records[0].GetOrNull("balance").AsInteger(), 777);

  // Re-running the DDL (as a restarted server does) re-attaches to the
  // restored files instead of failing or wiping them.
  EXPECT_TRUE(revived.DefineDatabase(BankSchema()).ok());
  EXPECT_EQ(revived.FileSize("account"), 100u);
}

TEST(PagedStorageTest, RestartWithLargerPoolPreservesState) {
  const std::string dir = FreshDataDir("pool_restart");
  std::string before;
  {
    EngineOptions options;
    options.data_dir = dir;
    options.pool_pages = 2;  // tiny pool: constant eviction traffic.
    Engine engine(options);
    ASSERT_TRUE(engine.DefineDatabase(BankSchema()).ok());
    for (int i = 0; i < 64; ++i) MustExecute(engine, InsertAccount(i));
    before = SnapshotOf(engine);
  }
  EngineOptions options;
  options.data_dir = dir;
  options.pool_pages = 64;  // pool size is a cache knob, not a format knob.
  Engine revived(options);
  ASSERT_TRUE(revived.restore_status().ok());
  EXPECT_EQ(SnapshotOf(revived), before);
}

// ---------------------------------------------------------------------
// Buffer-pool accounting: hits, misses, evictions, and dirty
// write-backs are real events, not derived estimates.

TEST(PagedStorageTest, PoolCountersTrackHitsMissesEvictionsWritebacks) {
  EngineOptions options;
  options.data_dir = FreshDataDir("pool_counters");
  options.pool_pages = 2;
  Engine engine(options);
  ASSERT_TRUE(engine.DefineDatabase(BankSchema()).ok());
  for (int i = 0; i < 64; ++i) MustExecute(engine, InsertAccount(i));

  const PoolCounters after_load = engine.counters().pool;
  // Filling many blocks through a 2-frame pool forces dirty evictions.
  EXPECT_GT(after_load.evictions, 0u);
  EXPECT_GT(after_load.dirty_writebacks, 0u);

  // A full scan touches more distinct pages than the pool holds: the
  // first pass misses, and a popular page re-fetched while resident is
  // a hit.
  MustExecute(engine, "RETRIEVE (FILE = account) (all attributes)");
  MustExecute(engine, "RETRIEVE (FILE = account) (all attributes)");
  const PoolCounters after_scan = engine.counters().pool;
  EXPECT_GT(after_scan.misses, after_load.misses);
  EXPECT_GT(after_scan.hits, after_load.hits);
  EXPECT_GT(after_scan.evictions, after_load.evictions);

  // A pool big enough for the whole file turns the second scan into
  // pure hits: zero physical reads.
  EngineOptions big;
  big.data_dir = FreshDataDir("pool_counters_big");
  big.pool_pages = 256;
  Engine cached(big);
  ASSERT_TRUE(cached.DefineDatabase(BankSchema()).ok());
  for (int i = 0; i < 64; ++i) MustExecute(cached, InsertAccount(i));
  MustExecute(cached, "RETRIEVE (FILE = account) (all attributes)");
  cached.ResetStats();
  const PoolCounters warm = cached.counters().pool;
  MustExecute(cached, "RETRIEVE (FILE = account) (all attributes)");
  EXPECT_EQ(cached.counters().pool.misses, warm.misses);
  EXPECT_EQ(cached.cumulative_io().blocks_read, 0u);
}

// ---------------------------------------------------------------------
// Page geometry: the product server's engines fill pages by bytes
// (kds::kPageLimitedCapacity); the engine default closes each page at
// the thesis's 16-record block. A restored file keeps its own cap.

FileDescriptor StaffFile() {
  FileDescriptor f;
  f.name = "staff";
  f.attributes = {
      {"FILE", ValueKind::kString, 0, true},
      {"name", ValueKind::kString, 12, true},
      {"wage", ValueKind::kFloat, 0, true},
  };
  return f;
}

std::string InsertStaff(int i) {
  return "INSERT (<FILE, staff>, <name, 's" + std::to_string(100000 + i) +
         "'>, <wage, " + std::to_string(i % 500) + ".25>)";
}

EngineOptions DenseOptions(const std::string& dir) {
  EngineOptions options;
  options.block_capacity = kds::kPageLimitedCapacity;
  options.data_dir = dir;
  return options;
}

TEST(PagedStorageTest, ByteFilledPagesHoldManyBlocksWorthOfRecords) {
  const std::string dir = FreshDataDir("byte_filled");
  std::string before;
  uint64_t pages = 0;
  {
    Engine engine(DenseOptions(dir));
    ASSERT_TRUE(engine.DefineFile(StaffFile()).ok());
    for (int i = 0; i < 2000; ++i) MustExecute(engine, InsertStaff(i));
    pages = engine.TotalBlocks();
    // The default cap needs ceil(2000 / 16) = 125 pages.
    EXPECT_LE(pages, 30u);
    before = SnapshotOf(engine);
  }
  Engine revived(DenseOptions(dir));
  ASSERT_TRUE(revived.restore_status().ok());
  EXPECT_EQ(revived.FileSize("staff"), 2000u);
  EXPECT_EQ(revived.TotalBlocks(), pages);
  EXPECT_EQ(SnapshotOf(revived), before);
}

TEST(PagedStorageTest, ByteFilledPagesStillSpillOversizedRecords) {
  const std::string dir = FreshDataDir("byte_filled_overflow");
  const std::string note(kds::PageView::MaxPayload(kds::kDefaultPageBytes) + 1,
                         'n');
  std::string before;
  {
    Engine engine(DenseOptions(dir));
    ASSERT_TRUE(engine.DefineDatabase(BankSchema()).ok());
    for (int i = 0; i < 10; ++i) MustExecute(engine, InsertAccount(i));
    const uint64_t pages = engine.TotalBlocks();
    MustExecute(engine, "INSERT (<FILE, account>, <acct, 'big'>, "
                        "<balance, 1>, <note, '" + note + "'>)");
    // A head page plus at least one continuation page.
    EXPECT_GE(engine.TotalBlocks(), pages + 2);
    before = SnapshotOf(engine);
  }
  Engine revived(DenseOptions(dir));
  ASSERT_TRUE(revived.restore_status().ok());
  EXPECT_EQ(SnapshotOf(revived), before);
  auto response = revived.Execute(MustParse(
      "RETRIEVE ((FILE = account) and (acct = 'big')) (all attributes)"));
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->records.size(), 1u);
  EXPECT_EQ(response->records[0].GetOrNull("note").AsString(), note);
}

TEST(PagedStorageTest, RestoredFileKeepsTheCapItWasWrittenWith) {
  const std::string dir = FreshDataDir("restored_cap");
  {
    EngineOptions options;  // the default 16-record block
    options.data_dir = dir;
    Engine engine(options);
    ASSERT_TRUE(engine.DefineFile(StaffFile()).ok());
    for (int i = 0; i < 96; ++i) MustExecute(engine, InsertStaff(i));
    EXPECT_EQ(engine.TotalBlocks(), 6u);
  }
  {
    Engine reopened(DenseOptions(dir));
    ASSERT_TRUE(reopened.restore_status().ok());
    ASSERT_TRUE(reopened.DefineFile(StaffFile()).ok());  // re-attaches
    for (int i = 96; i < 192; ++i) MustExecute(reopened, InsertStaff(i));
    // The added rows still close a page every 16 records.
    EXPECT_EQ(reopened.TotalBlocks(), 12u);
    EXPECT_EQ(reopened.FileSize("staff"), 192u);
  }
  std::ifstream file(dir + "/staff.mpf", std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(file)),
                          std::istreambuf_iterator<char>());
  EXPECT_NE(bytes.find("\nCAP 16\n"), std::string::npos);
}

// ---------------------------------------------------------------------
// Secondary indexes: built on demand, persisted in the page-file
// metadata, recovered from the WAL, and chosen by the planner.

TEST(PagedStorageTest, SecondaryIndexSurvivesCleanRestart) {
  const std::string dir = FreshDataDir("secondary_restart");
  {
    EngineOptions options;
    options.data_dir = dir;
    Engine engine(options);
    ASSERT_TRUE(engine.DefineDatabase(BankSchema()).ok());
    for (int i = 0; i < 10; ++i) MustExecute(engine, InsertAccount(i));
    ASSERT_TRUE(engine.CreateIndex("account", "note").ok());
    ASSERT_EQ(engine.SecondaryIndexes("account"),
              std::vector<std::string>{"note"});
  }
  EngineOptions options;
  options.data_dir = dir;
  Engine revived(options);
  ASSERT_TRUE(revived.restore_status().ok());
  EXPECT_EQ(revived.SecondaryIndexes("account"),
            std::vector<std::string>{"note"});
  // The revived index is an access path, not a scan: an equality probe
  // on the indexed attribute reads no more than the matching blocks.
  revived.ResetStats();
  auto response = revived.Execute(MustParse(
      "RETRIEVE ((FILE = account) and (note = 'note-4')) (all attributes)"));
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->records.size(), 1u);
  EXPECT_LE(response->io.blocks_read, 2u);
}

TEST(PagedStorageTest, CreateIndexIsLoggedAndRecovered) {
  kds::WalWriter wal;
  Engine engine;
  engine.AttachWal(&wal);
  ASSERT_TRUE(engine.DefineDatabase(BankSchema()).ok());
  for (int i = 0; i < 6; ++i) MustExecute(engine, InsertAccount(i));
  ASSERT_TRUE(engine.CreateIndex("account", "note").ok());
  MustExecute(engine, InsertAccount(6));  // post-index write stays indexed.

  Engine recovered;
  std::istringstream no_checkpoint("");
  auto report = kds::RecoverEngine(no_checkpoint, wal.contents(), &recovered);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(recovered.SecondaryIndexes("account"),
            std::vector<std::string>{"note"});
  EXPECT_EQ(SnapshotOf(recovered), SnapshotOf(engine));
}

// ---------------------------------------------------------------------
// Crash recovery: page files are a cache of the WAL + checkpoint
// truth. Crash the log at every entry boundary of a mixed workload;
// the engine restarted over the crashed data dir must discard the
// stale pages and rebuild exactly the committed prefix.

struct Unit {
  std::vector<std::string> requests;
  bool transactional = false;
};

std::vector<Unit> MakeWorkload(int units) {
  std::vector<Unit> workload;
  int next_key = 0;
  for (int u = 0; u < units; ++u) {
    Unit unit;
    if (u % 4 == 3) {
      unit.transactional = true;
      unit.requests = {
          InsertAccount(next_key++),
          "UPDATE ((FILE = account) and (acct = 'a0')) (balance = balance + 1)",
      };
    } else if (u % 5 == 2 && next_key > 1) {
      unit.requests = {"DELETE ((FILE = account) and (acct = 'a" +
                       std::to_string(next_key - 2) + "'))"};
    } else {
      unit.requests = {InsertAccount(next_key++)};
    }
    workload.push_back(std::move(unit));
  }
  return workload;
}

void ApplyUnit(Engine& engine, const Unit& unit) {
  if (unit.transactional) {
    abdl::Transaction txn;
    for (const auto& text : unit.requests) txn.push_back(MustParse(text));
    (void)engine.ExecuteTransaction(txn);
  } else {
    (void)engine.Execute(MustParse(unit.requests[0]));
  }
}

TEST(PagedStorageTest, CrashAtEveryBoundaryRecoversOntoPageFiles) {
  const std::vector<Unit> workload = MakeWorkload(/*units=*/12);

  // Schema checkpoint (the schema predates the log, as on a backend
  // that checkpoints right after definition).
  std::string schema_checkpoint;
  {
    Engine schema_only;
    ASSERT_TRUE(schema_only.DefineDatabase(BankSchema()).ok());
    schema_checkpoint = SnapshotOf(schema_only);
  }

  // Clean reference run to map crash points to committed units.
  kds::WalWriter clean_wal;
  Engine clean_engine;
  ASSERT_TRUE(clean_engine.DefineDatabase(BankSchema()).ok());
  clean_engine.AttachWal(&clean_wal);
  std::vector<uint64_t> entries_after_unit;
  for (const auto& unit : workload) {
    ApplyUnit(clean_engine, unit);
    entries_after_unit.push_back(clean_wal.entry_count());
  }
  const uint64_t total_entries = clean_wal.entry_count();

  // "Crashed" victims park here so their destructors — which would
  // flush pages and write the clean-shutdown marker — run only after
  // the whole grid has been asserted, over dirs nothing reads again.
  std::vector<std::unique_ptr<Engine>> crashed;

  for (uint64_t crash_at = 0; crash_at <= total_entries; ++crash_at) {
    const std::string dir =
        FreshDataDir("crash_grid_" + std::to_string(crash_at));
    // Victim writes through page files in `dir`. Simulate the process
    // dying by parking the engine undestructed: no flush runs and no
    // clean-shutdown marker certifies the page files.
    kds::WalWriter wal;
    {
      EngineOptions options;
      options.data_dir = dir;
      auto victim = std::make_unique<Engine>(options);
      ASSERT_TRUE(victim->restore_status().ok());
      ASSERT_TRUE(victim->DefineDatabase(BankSchema()).ok());
      victim->AttachWal(&wal);
      wal.ArmCrash({.entries_until_crash = static_cast<int>(crash_at),
                    .torn_bytes = static_cast<size_t>(crash_at % 7)});
      for (const auto& unit : workload) ApplyUnit(*victim, unit);
      victim->AttachWal(nullptr);  // the stack-scoped log dies first.
      crashed.push_back(std::move(victim));  // crash: dtor deferred.
    }

    // Restarting over the crashed dir must wipe the stale page files
    // and leave WAL recovery authoritative.
    EngineOptions options;
    options.data_dir = dir;
    Engine restarted(options);
    ASSERT_TRUE(restarted.restore_status().ok());
    EXPECT_TRUE(restarted.FileNames().empty())
        << "crash_at=" << crash_at << ": stale page files survived";

    std::istringstream checkpoint(schema_checkpoint);
    auto report =
        kds::RecoverEngine(checkpoint, wal.contents(), &restarted);
    ASSERT_TRUE(report.ok()) << "crash_at=" << crash_at << ": "
                             << report.status();

    // Oracle: exactly the committed units.
    Engine reference;
    ASSERT_TRUE(reference.DefineDatabase(BankSchema()).ok());
    for (size_t u = 0; u < workload.size(); ++u) {
      if (entries_after_unit[u] <= crash_at) ApplyUnit(reference, workload[u]);
    }
    EXPECT_EQ(SnapshotOf(restarted), SnapshotOf(reference))
        << "recovered state diverges at crash point " << crash_at;
  }
}

TEST(PagedStorageTest, CrashBetweenWritebackAndCheckpointRecoversExactly) {
  const std::string dir = FreshDataDir("writeback_crash");
  kds::WalWriter wal;
  std::string schema_checkpoint;
  {
    Engine schema_only;
    ASSERT_TRUE(schema_only.DefineDatabase(BankSchema()).ok());
    schema_checkpoint = SnapshotOf(schema_only);
  }
  std::string full_state;
  std::unique_ptr<Engine> victim;  // parked: its dtor must not run yet.
  {
    EngineOptions options;
    options.data_dir = dir;
    options.pool_pages = 8;
    auto engine = std::make_unique<Engine>(options);
    ASSERT_TRUE(engine->DefineDatabase(BankSchema()).ok());
    engine->AttachWal(&wal);
    for (int i = 0; i < 20; ++i) MustExecute(*engine, InsertAccount(i));
    // Dirty pages reach the disk files here — but no checkpoint and no
    // clean marker follow, so the page files are *ahead* of any
    // checkpoint yet uncertified.
    ASSERT_TRUE(engine->Flush().ok());
    for (int i = 20; i < 30; ++i) MustExecute(*engine, InsertAccount(i));
    full_state = SnapshotOf(*engine);
    engine->AttachWal(nullptr);
    victim = std::move(engine);  // kill between write-back and checkpoint.
  }

  EngineOptions options;
  options.data_dir = dir;
  Engine restarted(options);
  ASSERT_TRUE(restarted.restore_status().ok());
  EXPECT_TRUE(restarted.FileNames().empty());
  std::istringstream checkpoint(schema_checkpoint);
  auto report = kds::RecoverEngine(checkpoint, wal.contents(), &restarted);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(SnapshotOf(restarted), full_state);  // byte-identical.
  EXPECT_EQ(restarted.FileSize("account"), 30u);
}

// ---------------------------------------------------------------------
// Backward compatibility: snapshots written before the paged engine
// (four-field ATTR lines, no INDEX lines) still load.

TEST(PagedStorageTest, LegacyFourFieldSnapshotStillLoads) {
  const std::string path =
      std::string(MLDS_TEST_DATA_DIR) + "/legacy_snapshot_v1.snap";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing fixture " << path;
  Engine engine;
  ASSERT_TRUE(kds::LoadSnapshot(in, &engine).ok());
  ASSERT_TRUE(engine.HasFile("parts"));
  EXPECT_EQ(engine.FileSize("parts"), 3u);
  const abdm::FileDescriptor* desc = engine.FindDescriptor("parts");
  ASSERT_NE(desc, nullptr);
  ASSERT_EQ(desc->attributes.size(), 3u);
  EXPECT_TRUE(desc->attributes[1].directory);   // pno was a directory attr.
  EXPECT_FALSE(desc->attributes[2].indexed);    // legacy: no indexed flag.
  EXPECT_TRUE(engine.SecondaryIndexes("parts").empty());
  auto response = engine.Execute(MustParse(
      "RETRIEVE ((FILE = parts) and (pno = 'p2')) (all attributes)"));
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->records.size(), 1u);
  EXPECT_EQ(response->records[0].GetOrNull("weight").AsInteger(), 17);

  // A round trip through today's writer emits five-field ATTR lines
  // (legacy attributes stay unindexed) without changing the data.
  std::string modern = SnapshotOf(engine);
  EXPECT_NE(modern.find("ATTR pno string 0 1 0"), std::string::npos)
      << modern;
  Engine reloaded;
  std::istringstream modern_in(modern);
  ASSERT_TRUE(kds::LoadSnapshot(modern_in, &reloaded).ok());
  EXPECT_EQ(SnapshotOf(reloaded), modern);
}

// ---------------------------------------------------------------------
// The planner chooses secondary indexes, and says so in EXPLAIN —
// including range predicates over non-directory attributes.

TEST(PagedStorageTest, ExplainShowsSecondaryRangePath) {
  MldsSystem system;
  ASSERT_TRUE(system
                  .LoadRelationalDatabase(
                      "SCHEMA registrar;"
                      "CREATE TABLE course (title CHAR(20) NOT NULL, "
                      "credits INTEGER, UNIQUE (title));")
                  .ok());
  auto session = system.OpenSqlSession("registrar");
  ASSERT_TRUE(session.ok());
  kms::SqlMachine* machine = *session;
  for (int i = 0; i < 8; ++i) {
    auto insert = machine->ExecuteText(
        "INSERT INTO course (title, credits) VALUES ('C" + std::to_string(i) +
        "', " + std::to_string(i) + ")");
    ASSERT_TRUE(insert.ok()) << insert.status();
  }
  auto outcome =
      machine->ExecuteText("EXPLAIN SELECT title FROM course WHERE credits > 5");
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  ASSERT_NE(outcome->plan, nullptr);
  const std::string rendered = kfs::FormatPlan(*outcome->plan);
  EXPECT_NE(rendered.find("INDEX RANGE [secondary] (credits > 5)"),
            std::string::npos)
      << rendered;
  EXPECT_EQ(outcome->rows.size(), 2u);
}

// ---------------------------------------------------------------------
// The full stack: all four language interfaces write through one
// persistent kernel; a restarted system re-attaches via its DDL and
// every language reads its own rows back. No snapshot calls.

constexpr char kShopDdl[] =
    "SCHEMA NAME IS shop;"
    "RECORD NAME IS customer;"
    "  ITEM cname TYPE IS CHARACTER 20;"
    "SET NAME IS system_customer;"
    "  OWNER IS SYSTEM; MEMBER IS customer;"
    "  INSERTION IS AUTOMATIC; RETENTION IS FIXED;"
    "  SET SELECTION IS BY APPLICATION;";

constexpr char kPayrollDdl[] =
    "SCHEMA payroll;"
    "CREATE TABLE staff (name CHAR(12) NOT NULL, wage FLOAT, UNIQUE (name));";

constexpr char kClinicDdl[] =
    "SCHEMA clinic;"
    "SEGMENT patient; FIELD pname CHAR(12);"
    "SEGMENT visit PARENT patient; FIELD vdate CHAR(8); FIELD cost FLOAT;";

void LoadAllFour(MldsSystem& system) {
  ASSERT_TRUE(system.LoadNetworkDatabase(kShopDdl).ok());
  ASSERT_TRUE(
      system.LoadFunctionalDatabase(university::kUniversityDaplexDdl).ok());
  ASSERT_TRUE(system.LoadRelationalDatabase(kPayrollDdl).ok());
  ASSERT_TRUE(system.LoadHierarchicalDatabase(kClinicDdl).ok());
}

TEST(PagedStorageTest, FourLanguagesSurviveRestart) {
  const std::string dir = FreshDataDir("four_languages");

  {
    MldsSystem::Options options;
    options.engine.data_dir = dir;
    MldsSystem system(options);
    LoadAllFour(system);

    // CODASYL-DML over the network database.
    auto dml = system.OpenCodasylSession("shop");
    ASSERT_TRUE(dml.ok());
    auto stored = (*dml)->RunProgram(
        "MOVE 'nakamura' TO cname IN customer\nSTORE customer\n");
    ASSERT_TRUE(stored.ok()) << stored.status();

    // Daplex over the functional database.
    auto daplex = system.OpenDaplexSession("university");
    ASSERT_TRUE(daplex.ok());
    auto created =
        (*daplex)->ExecuteStatement("CREATE department (dname = 'Philosophy')");
    ASSERT_TRUE(created.ok()) << created.status();

    // SQL over the relational database.
    auto sql = system.OpenSqlSession("payroll");
    ASSERT_TRUE(sql.ok());
    auto inserted = (*sql)->ExecuteText(
        "INSERT INTO staff (name, wage) VALUES ('ada', 91.5)");
    ASSERT_TRUE(inserted.ok()) << inserted.status();

    // DL/I over the hierarchical database.
    auto dli = system.OpenDliSession("clinic");
    ASSERT_TRUE(dli.ok());
    auto isrt = (*dli)->ExecuteText("ISRT patient (pname = 'smith')");
    ASSERT_TRUE(isrt.ok()) << isrt.status();
  }  // system (and its engine) shut down cleanly here.

  MldsSystem::Options options;
  options.engine.data_dir = dir;
  MldsSystem revived(options);
  LoadAllFour(revived);  // DDL re-attaches to the restored kernel files.

  auto dml = revived.OpenCodasylSession("shop");
  ASSERT_TRUE(dml.ok());
  auto found = (*dml)->RunProgram(
      "MOVE 'nakamura' TO cname IN customer\n"
      "FIND ANY customer USING cname IN customer\n"
      "GET cname IN customer\n");
  ASSERT_TRUE(found.ok()) << found.status();
  ASSERT_EQ(found->back().records.size(), 1u);
  EXPECT_EQ(found->back().records[0].GetOrNull("cname").AsString(),
            "nakamura");

  auto daplex = revived.OpenDaplexSession("university");
  ASSERT_TRUE(daplex.ok());
  auto depts = (*daplex)->ExecuteText(
      "FOR EACH department SUCH THAT dname = 'Philosophy' PRINT dname");
  ASSERT_TRUE(depts.ok()) << depts.status();
  ASSERT_EQ(depts->size(), 1u);

  auto sql = revived.OpenSqlSession("payroll");
  ASSERT_TRUE(sql.ok());
  auto rows = (*sql)->ExecuteText("SELECT name, wage FROM staff");
  ASSERT_TRUE(rows.ok()) << rows.status();
  ASSERT_EQ(rows->rows.size(), 1u);
  EXPECT_EQ(rows->rows[0].GetOrNull("name").AsString(), "ada");

  auto dli = revived.OpenDliSession("clinic");
  ASSERT_TRUE(dli.ok());
  auto gu = (*dli)->ExecuteText("GU patient (pname = 'smith')");
  ASSERT_TRUE(gu.ok()) << gu.status();
  ASSERT_EQ(gu->segments.size(), 1u);
}

}  // namespace
}  // namespace mlds
