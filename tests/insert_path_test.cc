// The KMS insert path shared by SQL INSERT, CODASYL STORE, Daplex CREATE
// and DL/I ISRT: a parameter batch allocates each chunk's database keys
// with one kernel RETRIEVE, whichever language submits it.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "kms/daplex_machine.h"
#include "kms/dli_machine.h"
#include "kms/dml_machine.h"
#include "kms/sql_machine.h"
#include "mlds/mlds.h"
#include "server/demo.h"

namespace mlds::kms {
namespace {

constexpr int kRows = 32;

/// The key-allocation RETRIEVEs of `file` in `trace`: the probes on the
/// file's key attribute, which carries the file's own name.
std::vector<std::string> KeyProbes(const std::vector<std::string>& trace,
                                   const std::string& file) {
  const std::string key_term = "(FILE = '" + file + "') and (" + file + " ";
  std::vector<std::string> probes;
  std::copy_if(trace.begin(), trace.end(), std::back_inserter(probes),
               [&](const std::string& entry) {
                 return entry.starts_with("RETRIEVE ") &&
                        entry.find(key_term) != std::string::npos;
               });
  return probes;
}

/// `kRows` parameter rows: a distinct string, then `second` for each.
std::vector<std::vector<abdm::Value>> Rows(const std::string& stem,
                                           const abdm::Value& second) {
  std::vector<std::vector<abdm::Value>> rows;
  for (int i = 0; i < kRows; ++i) {
    rows.push_back({abdm::Value::String(stem + std::to_string(i)), second});
  }
  return rows;
}

class InsertPathTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(server::LoadDemoDatabases(&system_).ok());
  }

  MldsSystem system_;
};

TEST_F(InsertPathTest, SqlBatchAllocatesKeysInOneIntervalProbe) {
  auto session = system_.OpenSqlSession("payroll");
  ASSERT_TRUE(session.ok()) << session.status();
  SqlMachine* sql = *session;
  auto outcome =
      sql->ExecuteBatch("INSERT INTO staff (name, wage) VALUES (?, ?)",
                        Rows("bulk", abdm::Value::Float(10.0)));
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  const std::vector<std::string> probes = KeyProbes(sql->trace(), "staff");
  ASSERT_EQ(probes.size(), 1u);
  // Three seeded rows, so the candidates are staff_4 .. staff_35: one
  // interval per decade, none of which holds a shorter key (staff_10 ..
  // staff_35 as one interval would also hold staff_2 and staff_3).
  EXPECT_EQ(probes[0],
            "RETRIEVE (((FILE = 'staff') and (staff >= 'staff_4') and "
            "(staff <= 'staff_9')) or ((FILE = 'staff') and (staff >= "
            "'staff_10') and (staff <= 'staff_19')) or ((FILE = 'staff') and "
            "(staff >= 'staff_20') and (staff <= 'staff_29')) or ((FILE = "
            "'staff') and (staff >= 'staff_30') and (staff <= 'staff_35'))) "
            "(staff)");
}

TEST_F(InsertPathTest, EveryLanguageAllocatesABatchsKeysInOneProbe) {
  auto sql = system_.OpenSqlSession("payroll");
  ASSERT_TRUE(sql.ok()) << sql.status();
  ASSERT_TRUE((*sql)
                  ->ExecuteBatch("INSERT INTO staff (name, wage) VALUES (?, ?)",
                                 Rows("bulk", abdm::Value::Float(10.0)))
                  .ok());
  EXPECT_EQ(KeyProbes((*sql)->trace(), "staff").size(), 1u);

  auto codasyl = system_.OpenCodasylSession("university");
  ASSERT_TRUE(codasyl.ok()) << codasyl.status();
  auto stored = (*codasyl)->ExecuteBatch(
      "STORE course (title = ?, semester = 'Fall88', credits = ?)",
      Rows("Bulk Course ", abdm::Value::Integer(3)));
  ASSERT_TRUE(stored.ok()) << stored.status();
  EXPECT_EQ(KeyProbes((*codasyl)->trace().back().abdl, "course").size(), 1u);

  auto daplex = system_.OpenDaplexSession("university");
  ASSERT_TRUE(daplex.ok()) << daplex.status();
  auto created = (*daplex)->ExecuteBatch(
      "CREATE course (title = ?, semester = 'Spr88', credits = ?)",
      Rows("Bulk Course ", abdm::Value::Integer(4)));
  ASSERT_TRUE(created.ok()) << created.status();
  EXPECT_EQ(KeyProbes((*daplex)->trace(), "course").size(), 1u);

  auto dli = system_.OpenDliSession("clinic");
  ASSERT_TRUE(dli.ok()) << dli.status();
  ASSERT_TRUE((*dli)->ExecuteText("GU patient (pname = 'jones')").ok());
  auto inserted = (*dli)->ExecuteBatch("ISRT visit (vdate = ?, cost = ?)",
                                       Rows("88", abdm::Value::Float(1.0)));
  ASSERT_TRUE(inserted.ok()) << inserted.status();
  EXPECT_EQ(KeyProbes((*dli)->trace(), "visit").size(), 1u);
}

}  // namespace
}  // namespace mlds::kms
