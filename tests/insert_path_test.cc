// The KMS insert path shared by SQL INSERT, CODASYL STORE, Daplex CREATE
// and DL/I ISRT: each chunk of a parameter batch is one kernel INSERT that
// names its key keyword and unique combination. The kernel assigns the
// keys and checks the guard, so no language sends a probe RETRIEVE.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "abdl/prepared.h"
#include "kms/daplex_machine.h"
#include "kms/dli_machine.h"
#include "kms/dml_machine.h"
#include "kms/sql_machine.h"
#include "mlds/mlds.h"
#include "server/demo.h"

namespace mlds::kms {
namespace {

constexpr int kRows = 32;
/// Eight rows per chunk: a 32-row batch is four kernel requests.
const abdl::BatchLimits kChunksOf8{8, 65535};

/// `kRows` parameter rows: a distinct string, then `second` for each.
std::vector<std::vector<abdm::Value>> Rows(const std::string& stem,
                                           const abdm::Value& second) {
  std::vector<std::vector<abdm::Value>> rows;
  for (int i = 0; i < kRows; ++i) {
    rows.push_back({abdm::Value::String(stem + std::to_string(i)), second});
  }
  return rows;
}

/// True when `trace` is exactly `inserts` kernel INSERTs.
::testing::AssertionResult OnlyInserts(const std::vector<std::string>& trace,
                                       size_t inserts) {
  if (trace.size() != inserts) {
    return ::testing::AssertionFailure()
           << trace.size() << " requests, expected " << inserts;
  }
  for (const std::string& request : trace) {
    if (!request.starts_with("INSERT ")) {
      return ::testing::AssertionFailure() << "not an INSERT: " << request;
    }
  }
  return ::testing::AssertionSuccess();
}

class InsertPathTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(server::LoadDemoDatabases(&system_).ok());
  }

  /// Every key of `file`'s records.
  std::set<std::string> Keys(const std::string& file) {
    auto resp = system_.executor()->Execute(abdl::RetrieveAttribute(
        abdm::Query::ForFile(file, {}), file));
    EXPECT_TRUE(resp.ok()) << resp.status();
    std::set<std::string> keys;
    if (!resp.ok()) return keys;
    for (const abdm::Record& record : resp->records) {
      keys.insert(record.GetOrNull(file).ToDisplayString());
    }
    return keys;
  }

  MldsSystem system_;
};

TEST_F(InsertPathTest, SqlBatchTakesTheNextKeysInOneRequestPerChunk) {
  auto session = system_.OpenSqlSession("payroll");
  ASSERT_TRUE(session.ok()) << session.status();
  SqlMachine* sql = *session;
  auto outcome =
      sql->ExecuteBatch("INSERT INTO staff (name, wage) VALUES (?, ?)",
                        Rows("bulk", abdm::Value::Float(10.0)), kChunksOf8);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_TRUE(OnlyInserts(sql->trace(), 4));
  // The kernel fills the key the request leaves NULL.
  EXPECT_NE(sql->trace()[0].find("<staff, NULL>"), std::string::npos)
      << sql->trace()[0];
  // Three seeded rows, so the batch took staff_4 .. staff_35.
  std::set<std::string> expected;
  for (int n = 1; n <= 3 + kRows; ++n) {
    expected.insert("staff_" + std::to_string(n));
  }
  EXPECT_EQ(Keys("staff"), expected);
  auto one = sql->ExecuteText(
      "INSERT INTO staff (name, wage) VALUES ('single', 1.0)");
  ASSERT_TRUE(one.ok()) << one.status();
  EXPECT_EQ(one->info, "inserted staff_36");
}

TEST_F(InsertPathTest, EveryLanguageSendsOneKernelRequestPerChunk) {
  auto sql = system_.OpenSqlSession("payroll");
  ASSERT_TRUE(sql.ok()) << sql.status();
  ASSERT_TRUE((*sql)
                  ->ExecuteBatch("INSERT INTO staff (name, wage) VALUES (?, ?)",
                                 Rows("bulk", abdm::Value::Float(10.0)),
                                 kChunksOf8)
                  .ok());
  EXPECT_TRUE(OnlyInserts((*sql)->trace(), 4));

  auto codasyl = system_.OpenCodasylSession("university");
  ASSERT_TRUE(codasyl.ok()) << codasyl.status();
  auto stored = (*codasyl)->ExecuteBatch(
      "STORE course (title = ?, semester = 'Fall88', credits = ?)",
      Rows("Bulk Course ", abdm::Value::Integer(3)), kChunksOf8);
  ASSERT_TRUE(stored.ok()) << stored.status();
  EXPECT_TRUE(OnlyInserts((*codasyl)->trace(), 4));

  auto daplex = system_.OpenDaplexSession("university");
  ASSERT_TRUE(daplex.ok()) << daplex.status();
  auto created = (*daplex)->ExecuteBatch(
      "CREATE course (title = ?, semester = 'Spr88', credits = ?)",
      Rows("Bulk Course ", abdm::Value::Integer(4)), kChunksOf8);
  ASSERT_TRUE(created.ok()) << created.status();
  EXPECT_TRUE(OnlyInserts((*daplex)->trace(), 4));

  auto dli = system_.OpenDliSession("clinic");
  ASSERT_TRUE(dli.ok()) << dli.status();
  ASSERT_TRUE((*dli)->ExecuteText("GU patient (pname = 'jones')").ok());
  auto inserted = (*dli)->ExecuteBatch("ISRT visit (vdate = ?, cost = ?)",
                                       Rows("88", abdm::Value::Float(1.0)),
                                       kChunksOf8);
  ASSERT_TRUE(inserted.ok()) << inserted.status();
  EXPECT_TRUE(OnlyInserts((*dli)->trace(), 4));
}

TEST_F(InsertPathTest, AChunkThatRepeatsAUniqueValueWritesNothing) {
  auto session = system_.OpenSqlSession("payroll");
  ASSERT_TRUE(session.ok()) << session.status();
  std::vector<std::vector<abdm::Value>> rows =
      Rows("dup", abdm::Value::Float(1.0));
  rows[20] = rows[17];  // the third chunk repeats UNIQUE(name) inside itself
  auto outcome = (*session)->ExecuteBatch(
      "INSERT INTO staff (name, wage) VALUES (?, ?)", rows, kChunksOf8);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().message(),
            "INSERT violates UNIQUE(name) on 'staff'");
  // The first two chunks stay; the failing one wrote none of its rows and
  // took no key, so the next insert continues the sequence.
  EXPECT_EQ(system_.executor()->FileSize("staff"), 3u + 16u);
  auto one = (*session)->ExecuteText(
      "INSERT INTO staff (name, wage) VALUES ('after', 1.0)");
  ASSERT_TRUE(one.ok()) << one.status();
  EXPECT_EQ(one->info, "inserted staff_20");
}

}  // namespace
}  // namespace mlds::kms
