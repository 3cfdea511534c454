// The shared KMS compiled-translation cache: normalization, hit/miss
// accounting, LRU capacity eviction, and DDL epoch invalidation.

#include "kms/translation_cache.h"

#include <gtest/gtest.h>

#include <string>

#include "mlds/mlds.h"
#include "server/demo.h"
#include "server/session.h"

namespace mlds {
namespace {

using kms::NormalizeSource;
using kms::TranslationCache;

Result<int> CompileCounting(int* calls) {
  ++*calls;
  return *calls;
}

TEST(NormalizeSourceTest, CollapsesWhitespaceOutsideLiterals) {
  EXPECT_EQ(NormalizeSource("SELECT  *\n  FROM t"), "SELECT * FROM t");
  EXPECT_EQ(NormalizeSource("  x  "), "x");
  EXPECT_EQ(NormalizeSource("a = 'two  spaces'"), "a = 'two  spaces'");
  EXPECT_EQ(NormalizeSource("'a  b'  'c  d'"), "'a  b' 'c  d'");
  EXPECT_EQ(NormalizeSource(""), "");
  // The key is the lexed token spellings. Both quote kinds keep their
  // inner whitespace.
  EXPECT_NE(NormalizeSource("a = \"A  B\""), NormalizeSource("a = \"A B\""));
  // A comment runs to the end of its line and no further.
  EXPECT_NE(NormalizeSource("t -- c\nWHERE x = 1"),
            NormalizeSource("t -- c WHERE x = 1"));
  EXPECT_EQ(NormalizeSource("t -- c\nWHERE x = 1"), "t WHERE x = 1");
  // Tokens, not characters: spacing around punctuation does not matter.
  EXPECT_EQ(NormalizeSource("a=1"), NormalizeSource("a = 1"));
  EXPECT_EQ(NormalizeSource("x<>'O''Brien'"), "x <> 'O''Brien'");
}

TEST(TranslationCacheTest, SecondLookupHits) {
  TranslationCache cache;
  int calls = 0;
  auto first = cache.GetOrCompile<int>(
      "sql", "SELECT 1", [&] { return CompileCounting(&calls); });
  ASSERT_TRUE(first.ok());
  auto second = cache.GetOrCompile<int>(
      "sql", "SELECT 1", [&] { return CompileCounting(&calls); });
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(**second, 1);
  TranslationCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.size, 1u);
}

TEST(TranslationCacheTest, ReformattedSourceSharesOneEntry) {
  TranslationCache cache;
  int calls = 0;
  ASSERT_TRUE(cache
                  .GetOrCompile<int>("sql", "SELECT *  FROM t",
                                     [&] { return CompileCounting(&calls); })
                  .ok());
  ASSERT_TRUE(cache
                  .GetOrCompile<int>("sql", "SELECT * FROM t",
                                     [&] { return CompileCounting(&calls); })
                  .ok());
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(TranslationCacheTest, DomainsPartitionTheKeySpace) {
  TranslationCache cache;
  int calls = 0;
  ASSERT_TRUE(cache
                  .GetOrCompile<int>("sql", "GET x",
                                     [&] { return CompileCounting(&calls); })
                  .ok());
  ASSERT_TRUE(cache
                  .GetOrCompile<int>("dml", "GET x",
                                     [&] { return CompileCounting(&calls); })
                  .ok());
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(cache.stats().size, 2u);
}

TEST(TranslationCacheTest, CompileErrorsPassThroughUncached) {
  TranslationCache cache;
  int calls = 0;
  auto fail = [&]() -> Result<int> {
    ++calls;
    return Status::ParseError("bad statement");
  };
  EXPECT_FALSE(cache.GetOrCompile<int>("sql", "garbage", fail).ok());
  EXPECT_FALSE(cache.GetOrCompile<int>("sql", "garbage", fail).ok());
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(cache.stats().size, 0u);
  EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(TranslationCacheTest, CapacityEvictsLeastRecentlyUsed) {
  TranslationCache cache(/*capacity=*/2);
  int calls = 0;
  auto compile = [&] { return CompileCounting(&calls); };
  ASSERT_TRUE(cache.GetOrCompile<int>("d", "a", compile).ok());  // miss
  ASSERT_TRUE(cache.GetOrCompile<int>("d", "b", compile).ok());  // miss
  ASSERT_TRUE(cache.GetOrCompile<int>("d", "a", compile).ok());  // hit: a MRU
  ASSERT_TRUE(cache.GetOrCompile<int>("d", "c", compile).ok());  // evicts b
  TranslationCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.size, 2u);
  ASSERT_TRUE(cache.GetOrCompile<int>("d", "a", compile).ok());  // still hit
  ASSERT_TRUE(cache.GetOrCompile<int>("d", "b", compile).ok());  // recompiled
  EXPECT_EQ(calls, 4);
}

TEST(TranslationCacheTest, EpochBumpInvalidatesLazily) {
  TranslationCache cache;
  int calls = 0;
  auto compile = [&] { return CompileCounting(&calls); };
  ASSERT_TRUE(cache.GetOrCompile<int>("d", "a", compile).ok());
  EXPECT_EQ(cache.epoch(), 0u);
  cache.InvalidateAll();
  EXPECT_EQ(cache.epoch(), 1u);
  // The stale entry is evicted on lookup and recompiled.
  auto after = cache.GetOrCompile<int>("d", "a", compile);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(**after, 2);
  EXPECT_EQ(calls, 2);
  TranslationCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.hits, 0u);
}

constexpr char kRelationalDdl[] = R"(
SCHEMA shop;

CREATE TABLE part (
  pno INTEGER NOT NULL,
  pname CHAR(10)
);
)";

TEST(TranslationCacheIntegrationTest, SqlStatementsHitOnRepeat) {
  MldsSystem system;
  ASSERT_TRUE(system.LoadRelationalDatabase(kRelationalDdl).ok());
  auto session = system.OpenSqlSession("shop");
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(
      (*session)->ExecuteText("INSERT INTO part (pno, pname) VALUES (1, 'a')")
          .ok());
  ASSERT_TRUE(
      (*session)->ExecuteText("INSERT INTO part (pno, pname) VALUES (2, 'b')")
          .ok());

  const std::string query = "SELECT pno FROM part WHERE pno > 0";
  auto first = (*session)->ExecuteText(query);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->rows.size(), 2u);
  const uint64_t hits_before = system.translation_cache().stats().hits;
  auto second = (*session)->ExecuteText("SELECT pno  FROM part WHERE pno > 0");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->rows.size(), 2u);
  EXPECT_EQ(system.translation_cache().stats().hits, hits_before + 1);
}

TEST(TranslationCacheIntegrationTest, DdlEvictsCachedTranslations) {
  MldsSystem system;
  ASSERT_TRUE(system.LoadRelationalDatabase(kRelationalDdl).ok());
  auto session = system.OpenSqlSession("shop");
  ASSERT_TRUE(session.ok());
  const std::string query = "SELECT pno FROM part";
  ASSERT_TRUE((*session)->ExecuteText(query).ok());
  const uint64_t epoch_before = system.translation_cache().epoch();

  // Any DDL — loading another database — bumps the schema epoch, so the
  // cached translation misses and recompiles instead of running stale.
  ASSERT_TRUE(system
                  .LoadRelationalDatabase(R"(
SCHEMA shop2;

CREATE TABLE widget (
  wno INTEGER NOT NULL
);
)")
                  .ok());
  EXPECT_GT(system.translation_cache().epoch(), epoch_before);
  const uint64_t hits_before = system.translation_cache().stats().hits;
  ASSERT_TRUE((*session)->ExecuteText(query).ok());
  TranslationCache::Stats stats = system.translation_cache().stats();
  EXPECT_EQ(stats.hits, hits_before);  // recompiled, not replayed stale
  EXPECT_GE(stats.evictions, 1u);
}

TEST(TranslationCacheIntegrationTest, InsertRepeatsReexecuteImpurely) {
  MldsSystem system;
  ASSERT_TRUE(system.LoadRelationalDatabase(kRelationalDdl).ok());
  auto session = system.OpenSqlSession("shop");
  ASSERT_TRUE(session.ok());
  const std::string insert =
      "INSERT INTO part (pno, pname) VALUES (7, 'x')";
  // INSERT caches only its AST: repeating it must allocate a fresh tuple
  // key and insert a second row, not replay the first key.
  ASSERT_TRUE((*session)->ExecuteText(insert).ok());
  ASSERT_TRUE((*session)->ExecuteText(insert).ok());
  auto rows = (*session)->ExecuteText("SELECT pno FROM part WHERE pno = 7");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->rows.size(), 2u);
  EXPECT_GE(system.translation_cache().stats().hits, 1u);
}

TEST(TranslationCacheIntegrationTest, DaplexStatementsOverSessionHitCache) {
  MldsSystem system;
  ASSERT_TRUE(server::LoadDemoDatabases(&system).ok());
  server::Session session(1, &system);
  ASSERT_TRUE(session.Use(wire::UseRequest{"daplex", "university"}).ok());
  const std::string query =
      "FOR EACH course SUCH THAT title = 'Networks' PRINT title";
  auto first = session.Execute(query, /*explain=*/false);
  ASSERT_TRUE(first.ok()) << first.status();
  const uint64_t hits_before = system.translation_cache().stats().hits;
  auto second = session.Execute(query, /*explain=*/false);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second->body, first->body);
  EXPECT_EQ(system.translation_cache().stats().hits, hits_before + 1);
}

// A CODASYL program's newlines separate statements, so it must not share
// a key with the same words on one line: that text is one malformed
// statement and fails to parse.
TEST(TranslationCacheIntegrationTest, ProgramLinesAreKeyedOneByOne) {
  MldsSystem system;
  ASSERT_TRUE(server::LoadDemoDatabases(&system).ok());
  auto session = system.OpenCodasylSession("university");
  ASSERT_TRUE(session.ok()) << session.status();
  auto program = (*session)->RunProgram(
      "MOVE 'x' TO title IN course\nMOVE 'y' TO title IN course");
  ASSERT_TRUE(program.ok()) << program.status();
  EXPECT_EQ(program->size(), 2u);
  EXPECT_FALSE((*session)
                   ->RunProgram(
                       "MOVE 'x' TO title IN course MOVE 'y' TO title IN course")
                   .ok());
}

}  // namespace
}  // namespace mlds
