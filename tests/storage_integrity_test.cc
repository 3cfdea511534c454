// Storage integrity tests: the per-page checksum grid (flip every byte
// of a page file; the reader must detect it, never serve wrong bytes),
// the engine-level corruption grid (every flip of a committed page file
// quarantines + rebuilds byte-identically from the checkpoint), the
// injectable file-I/O seam (every fault kind surfaces as a structured
// error and is counted), ENOSPC during checkpoint (the previous
// checkpoint survives), eviction write-back failures (never silently
// dropped), the on-demand scrubber, and the integrity counters' trip
// across the STATS wire frame. Their exact payload bytes are pinned by
// StatsWireTest.PayloadAndTextArePinned in server_roundtrip_test.cc.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "abdl/parser.h"
#include "kds/engine.h"
#include "kds/file_io.h"
#include "kds/page_file.h"
#include "kds/snapshot.h"
#include "server/wire.h"

namespace mlds {
namespace {

using abdm::DatabaseDescriptor;
using abdm::FileDescriptor;
using abdm::ValueKind;
using kds::Engine;
using kds::EngineOptions;
using kds::FaultyFileIo;
using kds::IntegrityCounters;
using kds::IoFaultKind;
using kds::PageFile;

/// A fresh per-test scratch directory under the test temp root.
std::string FreshDataDir(const std::string& name) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::path(::testing::TempDir()) / ("mlds_integrity_" + name);
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  return dir.string();
}

std::string ReadAllBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void WriteAllBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.good()) << path;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
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

void MustExecute(Engine& engine, std::string_view text) {
  auto response = engine.Execute(MustParse(text));
  ASSERT_TRUE(response.ok()) << text << ": " << response.status();
}

std::string InsertAccount(int i) {
  return "INSERT (<FILE, account>, <acct, 'a" + std::to_string(i) +
         "'>, <balance, " + std::to_string(i * 10) + ">, <note, 'note-" +
         std::to_string(i) + "'>)";
}

std::string SnapshotOf(const Engine& engine) {
  std::ostringstream out;
  EXPECT_TRUE(kds::SaveSnapshot(engine, out).ok());
  return out.str();
}

// ---------------------------------------------------------------------
// Page-level corruption grid: flip every byte of a checksummed page
// file. Reopening and reading back must yield either the original bytes
// or a structured failure — never silently wrong data.

TEST(StorageIntegrityTest, PageFileDetectsEveryByteFlip) {
  const std::string dir = FreshDataDir("pagefile_grid");
  const std::string path = dir + "/grid.mpf";
  constexpr size_t kPage = 128;
  std::vector<std::string> pages;
  {
    auto file = PageFile::Open(path, kPage);
    ASSERT_TRUE(file.ok()) << file.status();
    for (int p = 0; p < 3; ++p) {
      std::string payload(kPage, static_cast<char>('A' + p));
      payload[5] = static_cast<char>(p);
      ASSERT_TRUE((*file)->WritePage(p, payload.data()).ok());
      pages.push_back(std::move(payload));
    }
    ASSERT_TRUE((*file)->SetMeta("meta blob v1").ok());
    ASSERT_TRUE((*file)->Sync().ok());
  }
  // A clean Sync retires the header sidecar: only the page file remains,
  // so the grid below covers every durable byte.
  EXPECT_FALSE(std::filesystem::exists(path + ".hdr"));
  const std::string pristine = ReadAllBytes(path);
  ASSERT_EQ(pristine.size(), kPage + 3 * (kPage + 16));

  for (size_t off = 0; off < pristine.size(); ++off) {
    std::string mutated = pristine;
    mutated[off] = static_cast<char>(mutated[off] ^ 0x40);
    WriteAllBytes(path, mutated);
    auto reopened = PageFile::Open(path, kPage);
    if (!reopened.ok()) continue;  // header flips fail the open: detected.
    EXPECT_EQ((*reopened)->meta(), "meta blob v1") << "offset " << off;
    for (size_t p = 0; p < pages.size(); ++p) {
      std::string buf(kPage, '\0');
      const Status read = (*reopened)->ReadPage(p, buf.data());
      if (read.ok()) {
        EXPECT_EQ(buf, pages[p])
            << "flip at offset " << off << " served wrong bytes for page "
            << p;
      } else {
        EXPECT_TRUE(read.IsCorruption())
            << "offset " << off << ": " << read.ToString();
      }
    }
  }
}

// ---------------------------------------------------------------------
// Engine-level corruption grid: flip every byte of a committed page
// file between clean shutdown and restart. The restarted engine must
// detect the damage, quarantine the file, and rebuild it from the
// checkpoint snapshot — ending byte-identical to the pre-corruption
// state, with the incident visible in the integrity counters.

TEST(StorageIntegrityTest, EveryByteFlipRebuildsByteIdentically) {
  namespace fs = std::filesystem;
  const std::string dir = FreshDataDir("engine_grid");
  std::string before;
  {
    EngineOptions options;
    options.data_dir = dir;
    options.page_bytes = 256;  // small pages keep the grid tractable.
    Engine engine(options);
    ASSERT_TRUE(engine.restore_status().ok());
    ASSERT_TRUE(engine.DefineDatabase(BankSchema()).ok());
    for (int i = 0; i < 4; ++i) MustExecute(engine, InsertAccount(i));
    // A record long enough to overflow one slot chain, so the grid also
    // walks overflow-chain bytes.
    MustExecute(engine,
                "INSERT (<FILE, account>, <acct, 'big'>, <balance, 1>, "
                "<note, '" + std::string(300, 'x') + "'>)");
    before = SnapshotOf(engine);
  }  // clean shutdown: page file + checkpoint.snap + marker.

  // Capture the pristine directory (page file, checkpoint, marker) so
  // every grid point starts from the same committed state.
  std::map<std::string, std::string> pristine;
  for (const auto& entry : fs::directory_iterator(dir)) {
    pristine[entry.path().string()] = ReadAllBytes(entry.path().string());
  }
  const std::string mpf = (fs::path(dir) / "account.mpf").string();
  ASSERT_TRUE(pristine.count(mpf)) << "page file missing";
  ASSERT_TRUE(pristine.count((fs::path(dir) / "checkpoint.snap").string()))
      << "clean shutdown wrote no checkpoint";
  const std::string original = pristine.at(mpf);

  for (size_t off = 0; off < original.size(); ++off) {
    std::error_code ec;
    fs::remove_all(dir, ec);
    fs::create_directories(dir, ec);
    for (const auto& [path, bytes] : pristine) WriteAllBytes(path, bytes);
    std::string mutated = original;
    mutated[off] = static_cast<char>(mutated[off] ^ 0x01);
    WriteAllBytes(mpf, mutated);

    EngineOptions options;
    options.data_dir = dir;
    options.page_bytes = 256;
    Engine revived(options);
    ASSERT_TRUE(revived.restore_status().ok())
        << "flip at " << off << ": " << revived.restore_status();
    ASSERT_EQ(SnapshotOf(revived), before)
        << "flip at offset " << off << " changed the served state";
    const IntegrityCounters counters = revived.counters().integrity;
    EXPECT_EQ(counters.files_rebuilt, 1u) << "flip at " << off;
    EXPECT_TRUE(fs::exists(mpf + ".quarantined"))
        << "flip at " << off << ": damaged bytes were not kept aside";
  }
}

// ---------------------------------------------------------------------
// The file-I/O fault seam: every failpoint kind surfaces as a
// structured error on the request path that hits it, and the engine
// counts the injected faults separately from real I/O errors.

TEST(StorageIntegrityTest, InjectedWriteFaultsSurfaceAsStructuredErrors) {
  const IoFaultKind kinds[] = {IoFaultKind::kWriteError,
                               IoFaultKind::kShortWrite,
                               IoFaultKind::kNoSpace};
  for (const IoFaultKind kind : kinds) {
    FaultyFileIo faulty;
    EngineOptions options;
    options.data_dir =
        FreshDataDir("fault_" + std::to_string(static_cast<int>(kind)));
    options.file_io = &faulty;
    Engine engine(options);
    ASSERT_TRUE(engine.DefineDatabase(BankSchema()).ok());
    for (int i = 0; i < 4; ++i) MustExecute(engine, InsertAccount(i));

    faulty.Arm(kind, /*countdown=*/0, /*count=*/1);
    auto response = engine.Execute(MustParse(InsertAccount(99)));
    faulty.Disarm();
    EXPECT_FALSE(response.ok())
        << "fault kind " << static_cast<int>(kind) << " was swallowed";
    EXPECT_GE(engine.counters().integrity.io_errors_injected, 1u);
    EXPECT_EQ(engine.counters().integrity.io_errors_real, 0u);
  }
}

TEST(StorageIntegrityTest, InjectedReadFaultFailsTheRetrieve) {
  FaultyFileIo faulty;
  const std::string dir = FreshDataDir("fault_read");
  {
    EngineOptions options;
    options.data_dir = dir;
    options.file_io = &faulty;
    Engine engine(options);
    ASSERT_TRUE(engine.DefineDatabase(BankSchema()).ok());
    for (int i = 0; i < 8; ++i) MustExecute(engine, InsertAccount(i));
  }  // clean shutdown: nothing resident, the next engine reads cold.

  EngineOptions options;
  options.data_dir = dir;
  options.file_io = &faulty;
  // Write-through mode: every fetch of the cold-started engine reads
  // the file, so the armed read fault lands on the retrieve.
  options.pool_pages = 0;
  Engine engine(options);
  ASSERT_TRUE(engine.restore_status().ok());

  faulty.Arm(IoFaultKind::kReadError);
  auto failed =
      engine.Execute(MustParse("RETRIEVE (FILE = account) (all attributes)"));
  faulty.Disarm();
  EXPECT_FALSE(failed.ok()) << "read fault was swallowed";
  EXPECT_GE(engine.counters().integrity.io_errors_injected, 1u);

  // With the fault gone the same retrieve succeeds: nothing corrupted.
  auto ok =
      engine.Execute(MustParse("RETRIEVE (FILE = account) (all attributes)"));
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_EQ(ok->records.size(), 8u);
}

TEST(StorageIntegrityTest, SyncFaultFailsFlushThenRecovers) {
  FaultyFileIo faulty;
  EngineOptions options;
  options.data_dir = FreshDataDir("fault_sync");
  options.file_io = &faulty;
  Engine engine(options);
  ASSERT_TRUE(engine.DefineDatabase(BankSchema()).ok());
  for (int i = 0; i < 4; ++i) MustExecute(engine, InsertAccount(i));

  faulty.Arm(IoFaultKind::kSyncError);
  EXPECT_FALSE(engine.Flush().ok()) << "failed fsync reported success";
  faulty.Disarm();
  EXPECT_TRUE(engine.Flush().ok());
}

// ---------------------------------------------------------------------
// Atomic file replacement: a fault at any point of the write-temp +
// fsync + rename sequence leaves the previous contents intact.

TEST(StorageIntegrityTest, WriteFileAtomicPreservesOldContentsUnderFaults) {
  const std::string dir = FreshDataDir("atomic");
  const std::string path = dir + "/target.txt";
  FaultyFileIo faulty;
  ASSERT_TRUE(faulty.WriteFileAtomic(path, "v1").ok());

  const IoFaultKind kinds[] = {IoFaultKind::kNoSpace, IoFaultKind::kWriteError,
                               IoFaultKind::kShortWrite,
                               IoFaultKind::kSyncError,
                               IoFaultKind::kRenameError};
  for (const IoFaultKind kind : kinds) {
    faulty.Arm(kind);
    const Status replaced = faulty.WriteFileAtomic(path, "v2-should-not-land");
    faulty.Disarm();
    EXPECT_FALSE(replaced.ok()) << static_cast<int>(kind);
    auto contents = faulty.ReadFile(path);
    ASSERT_TRUE(contents.ok());
    EXPECT_EQ(*contents, "v1")
        << "fault kind " << static_cast<int>(kind) << " tore the target";
  }
  ASSERT_TRUE(faulty.WriteFileAtomic(path, "v2").ok());
  auto contents = faulty.ReadFile(path);
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(*contents, "v2");
}

// ---------------------------------------------------------------------
// ENOSPC during shutdown: the checkpoint written by the *previous*
// clean shutdown must survive a failed attempt to write the next one.

TEST(StorageIntegrityTest, EnospcDuringCheckpointPreservesPreviousCheckpoint) {
  const std::string dir = FreshDataDir("enospc_checkpoint");
  const std::string checkpoint = dir + "/checkpoint.snap";
  FaultyFileIo faulty;
  {
    EngineOptions options;
    options.data_dir = dir;
    options.file_io = &faulty;
    Engine engine(options);
    ASSERT_TRUE(engine.DefineDatabase(BankSchema()).ok());
    for (int i = 0; i < 4; ++i) MustExecute(engine, InsertAccount(i));
  }  // clean shutdown: checkpoint v1.
  const std::string v1 = ReadAllBytes(checkpoint);
  ASSERT_FALSE(v1.empty());

  {
    EngineOptions options;
    options.data_dir = dir;
    options.file_io = &faulty;
    Engine engine(options);
    ASSERT_TRUE(engine.restore_status().ok());
    ASSERT_TRUE(engine.DefineDatabase(BankSchema()).ok());  // re-attach.
    for (int i = 4; i < 8; ++i) MustExecute(engine, InsertAccount(i));
    // The disk "fills up" before shutdown: every write from here on
    // fails with ENOSPC, including the checkpoint replacement.
    faulty.Arm(IoFaultKind::kNoSpace, /*countdown=*/0, /*count=*/1 << 20);
  }  // destructor: flush/checkpoint attempts fail.
  faulty.Disarm();

  // The previous checkpoint is byte-identical — the failed replacement
  // never tore it — and no clean marker certifies the torn shutdown.
  EXPECT_EQ(ReadAllBytes(checkpoint), v1);
  EXPECT_FALSE(std::filesystem::exists(dir + "/CLEAN"));
}

// ---------------------------------------------------------------------
// Eviction write-back failures are not silent: the error surfaces on a
// request or on Flush, the retained data stays readable, and a retry
// after the fault clears drains cleanly.

TEST(StorageIntegrityTest, EvictionWritebackFailureIsNotSilent) {
  FaultyFileIo faulty;
  EngineOptions options;
  options.data_dir = FreshDataDir("writeback_fault");
  options.file_io = &faulty;
  options.pool_pages = 2;  // tiny pool: constant eviction traffic.
  Engine engine(options);
  ASSERT_TRUE(engine.DefineDatabase(BankSchema()).ok());
  for (int i = 0; i < 40; ++i) MustExecute(engine, InsertAccount(i));

  faulty.Arm(IoFaultKind::kWriteError, /*countdown=*/0, /*count=*/1);
  bool surfaced = false;
  for (int i = 40; i < 56; ++i) {
    auto response = engine.Execute(MustParse(InsertAccount(i)));
    if (!response.ok()) surfaced = true;
  }
  faulty.Disarm();
  if (!engine.Flush().ok()) surfaced = true;
  EXPECT_TRUE(surfaced) << "an injected write-back failure vanished";
  EXPECT_GE(engine.counters().integrity.io_errors_injected, 1u);

  // The retry drains cleanly and every record survived the incident.
  EXPECT_TRUE(engine.Flush().ok());
  auto all =
      engine.Execute(MustParse("RETRIEVE (FILE = account) (all attributes)"));
  ASSERT_TRUE(all.ok()) << all.status();
  EXPECT_GE(all->records.size(), 40u);
}

// ---------------------------------------------------------------------
// The on-demand scrubber: clean storage verifies clean; a flipped byte
// on disk is found, named, and counted — without crashing the engine.

TEST(StorageIntegrityTest, VerifyIntegrityScrubsAndReportsCorruption) {
  EngineOptions options;
  options.data_dir = FreshDataDir("scrub");
  options.page_bytes = 256;
  Engine engine(options);
  ASSERT_TRUE(engine.DefineDatabase(BankSchema()).ok());
  for (int i = 0; i < 8; ++i) MustExecute(engine, InsertAccount(i));
  ASSERT_TRUE(engine.Flush().ok());

  const kds::IntegrityReport clean = engine.VerifyIntegrity();
  EXPECT_TRUE(clean.clean);
  ASSERT_EQ(clean.files.size(), 1u);
  EXPECT_EQ(clean.files[0].file, "account");
  EXPECT_GT(clean.files[0].pages, 0u);
  EXPECT_EQ(clean.files[0].bad_pages, 0u);
  EXPECT_EQ(clean.ToText().rfind("integrity OK", 0), 0u) << clean.ToText();
  EXPECT_GT(engine.counters().integrity.pages_scrubbed, 0u);

  // Flip one payload byte of the first data frame behind the engine's
  // back, as a decaying disk would.
  const std::string mpf = options.data_dir + "/account.mpf";
  std::string bytes = ReadAllBytes(mpf);
  ASSERT_GT(bytes.size(), 256u + 8u);
  bytes[256 + 8] = static_cast<char>(bytes[256 + 8] ^ 0x7f);
  WriteAllBytes(mpf, bytes);

  const kds::IntegrityReport dirty = engine.VerifyIntegrity();
  EXPECT_FALSE(dirty.clean);
  ASSERT_EQ(dirty.files.size(), 1u);
  EXPECT_GE(dirty.files[0].bad_pages, 1u);
  EXPECT_TRUE(dirty.files[0].status.IsCorruption())
      << dirty.files[0].status.ToString();
  EXPECT_EQ(dirty.ToText().rfind("integrity FAILED", 0), 0u)
      << dirty.ToText();
  EXPECT_GE(engine.counters().integrity.checksum_failures, 1u);
}

// ---------------------------------------------------------------------
// The integrity counters make the round trip through the STATS frame.

TEST(StorageIntegrityTest, StatsReplyCarriesIntegrityCounters) {
  wire::StatsReply stats;
  stats.integrity_checksum_failures = 3;
  stats.integrity_io_errors_injected = 5;
  stats.integrity_io_errors_real = 1;
  stats.integrity_pages_scrubbed = 1234;
  stats.integrity_files_rebuilt = 2;
  stats.integrity_fsyncs = 77;
  stats.health = "healthy";

  auto decoded = wire::DecodeStatsReply(wire::EncodeStatsReply(stats));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->integrity_checksum_failures, 3u);
  EXPECT_EQ(decoded->integrity_io_errors_injected, 5u);
  EXPECT_EQ(decoded->integrity_io_errors_real, 1u);
  EXPECT_EQ(decoded->integrity_pages_scrubbed, 1234u);
  EXPECT_EQ(decoded->integrity_files_rebuilt, 2u);
  EXPECT_EQ(decoded->integrity_fsyncs, 77u);
  EXPECT_EQ(decoded->health, "healthy");
  const std::string text = decoded->ToText();
  EXPECT_NE(text.find("integrity.checksum_failures 3"), std::string::npos)
      << text;
  EXPECT_NE(text.find("integrity.pages_scrubbed 1234"), std::string::npos)
      << text;
}

}  // namespace
}  // namespace mlds
