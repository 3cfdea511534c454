// Tests for the relational/SQL language interface: DDL, the SQL-to-ABDL
// translation for all four statements, the RETRIEVE-COMMON join, and the
// relational constraints.

#include "kms/sql_machine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "abdl/parser.h"
#include "mlds/mlds.h"
#include "relational/schema.h"

namespace mlds::kms {
namespace {

constexpr char kRegistrarDdl[] = R"(
SCHEMA registrar;

CREATE TABLE course (
  title CHAR(20) NOT NULL,
  dept CHAR(10),
  credits INTEGER,
  UNIQUE (title)
);

CREATE TABLE enrollment (
  sname CHAR(20) NOT NULL,
  ctitle CHAR(20),
  grade FLOAT
);
)";

// --- DDL ---

TEST(RelationalSchemaTest, ParsesTablesAndConstraints) {
  auto schema = relational::ParseRelationalSchema(kRegistrarDdl);
  ASSERT_TRUE(schema.ok()) << schema.status();
  EXPECT_EQ(schema->name(), "registrar");
  ASSERT_EQ(schema->tables().size(), 2u);
  const relational::Table* course = schema->FindTable("course");
  ASSERT_NE(course, nullptr);
  EXPECT_EQ(course->columns.size(), 3u);
  EXPECT_TRUE(course->FindColumn("title")->not_null);
  EXPECT_EQ(course->FindColumn("title")->length, 20);
  EXPECT_EQ(course->FindColumn("credits")->type,
            relational::ColumnType::kInteger);
  EXPECT_EQ(course->unique_columns, std::vector<std::string>{"title"});
}

TEST(RelationalSchemaTest, DdlRoundTrips) {
  auto first = relational::ParseRelationalSchema(kRegistrarDdl);
  ASSERT_TRUE(first.ok());
  auto second = relational::ParseRelationalSchema(first->ToDdl());
  ASSERT_TRUE(second.ok()) << second.status() << "\n" << first->ToDdl();
  EXPECT_EQ(*first, *second);
}

TEST(RelationalSchemaTest, RejectsReservedColumnNames) {
  EXPECT_FALSE(relational::ParseRelationalSchema(
                   "CREATE TABLE t (FILE CHAR(4));")
                   .ok());
  EXPECT_FALSE(
      relational::ParseRelationalSchema("CREATE TABLE t (t INTEGER);").ok());
}

TEST(RelationalSchemaTest, RejectsUniqueOnUnknownColumn) {
  EXPECT_FALSE(relational::ParseRelationalSchema(
                   "CREATE TABLE t (a INTEGER, UNIQUE (zz));")
                   .ok());
}

// --- SQL execution ---

class SqlMachineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(system_.LoadRelationalDatabase(kRegistrarDdl).ok());
    auto session = system_.OpenSqlSession("registrar");
    ASSERT_TRUE(session.ok()) << session.status();
    machine_ = *session;
    Must("INSERT INTO course (title, dept, credits) "
         "VALUES ('Databases', 'CS', 4)");
    Must("INSERT INTO course (title, dept, credits) "
         "VALUES ('Networks', 'CS', 3)");
    Must("INSERT INTO course (title, dept, credits) "
         "VALUES ('Thermo', 'ME', 3)");
    Must("INSERT INTO enrollment (sname, ctitle, grade) "
         "VALUES ('alice', 'Databases', 3.7)");
    Must("INSERT INTO enrollment (sname, ctitle, grade) "
         "VALUES ('bob', 'Databases', 3.1)");
    Must("INSERT INTO enrollment (sname, ctitle, grade) "
         "VALUES ('alice', 'Thermo', 3.9)");
  }

  SqlMachine::Outcome Must(std::string_view text) {
    auto outcome = machine_->ExecuteText(text);
    EXPECT_TRUE(outcome.ok()) << text << ": " << outcome.status();
    return outcome.ok() ? std::move(*outcome) : SqlMachine::Outcome{};
  }

  Status Fails(std::string_view text) {
    auto outcome = machine_->ExecuteText(text);
    EXPECT_FALSE(outcome.ok()) << text << " unexpectedly succeeded";
    return outcome.ok() ? Status::OK() : outcome.status();
  }

  /// Every live key of `table`, straight from the kernel.
  std::vector<std::string> Keys(const std::string& table) {
    auto request = abdl::ParseRequest("RETRIEVE ((FILE = " + table + ")) (" +
                                      table + ")");
    EXPECT_TRUE(request.ok()) << request.status();
    auto response = system_.executor()->Execute(*request);
    EXPECT_TRUE(response.ok()) << response.status();
    std::vector<std::string> keys;
    for (const auto& record : response->records) {
      keys.push_back(record.GetOrNull(table).AsString());
    }
    return keys;
  }

  void DeleteKeys(const std::string& table, const std::vector<int>& ordinals) {
    for (int n : ordinals) {
      auto request = abdl::ParseRequest(
          "DELETE ((FILE = " + table + ") and (" + table + " = '" + table +
          "_" + std::to_string(n) + "'))");
      ASSERT_TRUE(request.ok()) << request.status();
      auto response = system_.executor()->Execute(*request);
      ASSERT_TRUE(response.ok()) << response.status();
      ASSERT_EQ(response->affected, 1u) << table << "_" << n;
    }
  }

  /// Grows enrollment to keys enrollment_1 .. enrollment_<n> through the
  /// fixture session (which stored the first three).
  void GrowEnrollment(int n) {
    std::vector<std::vector<abdm::Value>> rows;
    for (int i = 4; i <= n; ++i) {
      rows.push_back({abdm::Value::String("r" + std::to_string(i))});
    }
    ASSERT_TRUE(machine_
                    ->ExecuteBatch("INSERT INTO enrollment (sname, ctitle, "
                                   "grade) VALUES (?, 'Networks', 1.0)",
                                   rows)
                    .ok());
  }

  static bool AllDistinct(std::vector<std::string> keys) {
    std::sort(keys.begin(), keys.end());
    return std::adjacent_find(keys.begin(), keys.end()) == keys.end();
  }

  /// Keys present in `after` but not in `before`, sorted.
  static std::vector<std::string> NewKeys(std::vector<std::string> before,
                                          std::vector<std::string> after) {
    std::sort(before.begin(), before.end());
    std::sort(after.begin(), after.end());
    std::vector<std::string> added;
    std::set_difference(after.begin(), after.end(), before.begin(),
                        before.end(), std::back_inserter(added));
    return added;
  }

  MldsSystem system_;
  SqlMachine* machine_ = nullptr;
};

TEST_F(SqlMachineTest, SelectStarWithWhere) {
  auto rows = Must("SELECT * FROM course WHERE dept = 'CS'").rows;
  ASSERT_EQ(rows.size(), 2u);
  for (const auto& row : rows) {
    EXPECT_EQ(row.GetOrNull("dept").AsString(), "CS");
    EXPECT_FALSE(row.Has("FILE"));  // kernel keyword hidden.
  }
}

TEST_F(SqlMachineTest, SelectProjectionAndOrderBy) {
  auto rows =
      Must("SELECT title FROM course WHERE credits >= 3 ORDER BY title").rows;
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].GetOrNull("title").AsString(), "Databases");
  EXPECT_EQ(rows[2].GetOrNull("title").AsString(), "Thermo");
}

TEST_F(SqlMachineTest, SelectWithOrAndParentheses) {
  auto rows = Must("SELECT title FROM course WHERE dept = 'ME' OR "
                   "(dept = 'CS' AND credits = 4)")
                  .rows;
  EXPECT_EQ(rows.size(), 2u);
}

TEST_F(SqlMachineTest, AggregatesWithGroupBy) {
  auto rows = Must("SELECT AVG(grade), COUNT(sname) FROM enrollment "
                   "GROUP BY sname")
                  .rows;
  ASSERT_EQ(rows.size(), 2u);  // alice, bob.
  // Groups come back ordered by the grouping attribute.
  EXPECT_EQ(rows[0].GetOrNull("sname").AsString(), "alice");
  EXPECT_DOUBLE_EQ(rows[0].GetOrNull("AVG(grade)").AsFloat(), 3.8);
  EXPECT_EQ(rows[1].GetOrNull("COUNT(sname)").AsInteger(), 1);
}

TEST_F(SqlMachineTest, JoinTranslatesToRetrieveCommon) {
  auto outcome = Must(
      "SELECT sname, credits FROM enrollment, course "
      "WHERE ctitle = title AND dept = 'CS'");
  ASSERT_EQ(outcome.rows.size(), 2u);  // alice+bob in Databases.
  for (const auto& row : outcome.rows) {
    EXPECT_EQ(row.GetOrNull("credits").AsInteger(), 4);
  }
  // The translation used RETRIEVE-COMMON.
  ASSERT_EQ(machine_->trace().size(), 1u);
  EXPECT_TRUE(machine_->trace()[0].starts_with("RETRIEVE-COMMON"))
      << machine_->trace()[0];
}

TEST_F(SqlMachineTest, JoinRequiresEquiJoinComparison) {
  Status status = Fails("SELECT sname FROM enrollment, course");
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST_F(SqlMachineTest, UpdateWithWhere) {
  auto outcome =
      Must("UPDATE course SET credits = 5 WHERE title = 'Networks'");
  EXPECT_EQ(outcome.affected, 1u);
  auto rows =
      Must("SELECT credits FROM course WHERE title = 'Networks'").rows;
  EXPECT_EQ(rows[0].GetOrNull("credits").AsInteger(), 5);
}

TEST_F(SqlMachineTest, DeleteWithWhere) {
  auto outcome = Must("DELETE FROM enrollment WHERE sname = 'bob'");
  EXPECT_EQ(outcome.affected, 1u);
  EXPECT_EQ(Must("SELECT * FROM enrollment").rows.size(), 2u);
}

TEST_F(SqlMachineTest, UniqueConstraintEnforced) {
  Status status = Fails(
      "INSERT INTO course (title, dept, credits) VALUES ('Databases', "
      "'EE', 2)");
  EXPECT_EQ(status.code(), StatusCode::kConstraintViolation);
}

TEST_F(SqlMachineTest, NotNullEnforced) {
  Status status =
      Fails("INSERT INTO course (dept, credits) VALUES ('EE', 2)");
  EXPECT_EQ(status.code(), StatusCode::kConstraintViolation);
  Status update_status =
      Fails("UPDATE course SET title = NULL WHERE dept = 'CS'");
  EXPECT_EQ(update_status.code(), StatusCode::kConstraintViolation);
}

TEST_F(SqlMachineTest, UnknownColumnAndTableErrors) {
  EXPECT_TRUE(Fails("SELECT zz FROM course").IsNotFound());
  EXPECT_TRUE(Fails("SELECT title FROM nope").IsNotFound());
  EXPECT_TRUE(Fails("INSERT INTO course (zz) VALUES (1)").IsNotFound());
  EXPECT_TRUE(Fails("UPDATE course SET zz = 1").IsNotFound());
}

TEST_F(SqlMachineTest, AmbiguousColumnRejected) {
  // 'title' exists only in course; 'ctitle' only in enrollment — make an
  // ambiguous case with a shared name via qualified check instead:
  // 'sname' is unique, so qualify mismatch errors instead.
  Status status = Fails(
      "SELECT course.sname FROM enrollment, course WHERE ctitle = title");
  EXPECT_TRUE(status.IsNotFound());
}

TEST_F(SqlMachineTest, SqlWritesVisibleToAbdlKernel) {
  // The SQL interface writes the same kernel every other interface reads.
  auto rows = Must("SELECT COUNT(title) FROM course").rows;
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].GetOrNull("COUNT(title)").AsInteger(), 3);
  EXPECT_EQ(system_.executor()->FileSize("course"), 3u);
}

TEST_F(SqlMachineTest, ParserRejectsMalformedSql) {
  EXPECT_FALSE(machine_->ExecuteText("SELECT FROM course").ok());
  EXPECT_FALSE(machine_->ExecuteText("SELECT * course").ok());
  EXPECT_FALSE(
      machine_->ExecuteText("INSERT INTO course (a, b) VALUES (1)").ok());
  EXPECT_FALSE(machine_->ExecuteText("DROP TABLE course").ok());
  EXPECT_FALSE(machine_->ExecuteText("SELECT * FROM course WHERE").ok());
}

// --- batch INSERT ---

TEST_F(SqlMachineTest, MultiRowValuesInsertAsOneStatement) {
  auto outcome = Must(
      "INSERT INTO enrollment (sname, ctitle, grade) VALUES "
      "('carol', 'Networks', 3.2), ('dave', 'Networks', 2.9), "
      "('erin', 'Thermo', 3.5)");
  EXPECT_EQ(outcome.affected, 3u);
  auto rows = Must("SELECT COUNT(sname) FROM enrollment").rows;
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].GetOrNull("COUNT(sname)").AsInteger(), 6);
}

TEST_F(SqlMachineTest, PreparedBatchInsertBindsRowsInOrder) {
  std::vector<std::vector<abdm::Value>> rows;
  for (int i = 0; i < 10; ++i) {
    rows.push_back({abdm::Value::String("s" + std::to_string(i)),
                    abdm::Value::Float(2.0 + i * 0.1)});
  }
  auto outcome = machine_->ExecuteBatch(
      "INSERT INTO enrollment (sname, ctitle, grade) "
      "VALUES (?, 'Databases', ?)",
      rows);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_EQ(outcome->affected, 10u);
  auto check = Must(
      "SELECT sname, grade FROM enrollment "
      "WHERE ctitle = 'Databases' AND sname = 's7'");
  ASSERT_EQ(check.rows.size(), 1u);
  EXPECT_EQ(check.rows[0].GetOrNull("grade").AsFloat(), 2.7);
}

TEST_F(SqlMachineTest, PreparedBatchChunksAtEffectiveBatchSize) {
  // Two parameters per row with batch_size 4 → chunks of 4; 10 rows land
  // as 3 kernel batch requests, all-or-nothing each.
  std::vector<std::vector<abdm::Value>> rows;
  for (int i = 0; i < 10; ++i) {
    rows.push_back({abdm::Value::String("c" + std::to_string(i)),
                    abdm::Value::Integer(i)});
  }
  abdl::BatchLimits limits;
  limits.batch_size = 4;
  auto outcome = machine_->ExecuteBatch(
      "INSERT INTO course (title, dept, credits) VALUES (?, 'EE', ?)", rows,
      limits);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_EQ(outcome->affected, 10u);
  // The trace also carries unique-probe and key-allocation RETRIEVEs;
  // the INSERT entries are the kernel batches themselves.
  size_t batches = 0;
  for (const std::string& entry : machine_->trace()) {
    if (entry.rfind("INSERT", 0) == 0) ++batches;
  }
  EXPECT_EQ(batches, 3u);
  EXPECT_EQ(system_.executor()->FileSize("course"), 13u);
}

TEST_F(SqlMachineTest, BatchRejectsMismatchedAndHostileShapes) {
  const std::vector<std::vector<abdm::Value>> good = {
      {abdm::Value::String("x"), abdm::Value::Integer(1)}};
  // Zero-row batches and arity mismatches fail whole.
  EXPECT_FALSE(machine_
                   ->ExecuteBatch(
                       "INSERT INTO course (title, credits) VALUES (?, ?)",
                       {})
                   .ok());
  EXPECT_FALSE(machine_
                   ->ExecuteBatch(
                       "INSERT INTO course (title, credits) VALUES (?, ?)",
                       {{abdm::Value::String("only-one")}})
                   .ok());
  // Non-INSERT and unparameterized templates are rejected up front.
  EXPECT_FALSE(
      machine_->ExecuteBatch("SELECT title FROM course", good).ok());
  // Direct execution of a parameterized statement points at the batch
  // interface instead of binding nulls.
  EXPECT_FALSE(
      machine_
          ->ExecuteText("INSERT INTO course (title, credits) VALUES (?, ?)")
          .ok());
}

TEST_F(SqlMachineTest, BatchEnforcesUniqueWithinOneChunk) {
  // Duplicate keys *inside* one batch must trip UNIQUE(title) even
  // though neither row is in the kernel yet when the batch validates.
  const std::vector<std::vector<abdm::Value>> dup = {
      {abdm::Value::String("twin")}, {abdm::Value::String("twin")}};
  Status status =
      machine_
          ->ExecuteBatch("INSERT INTO course (title) VALUES (?)", dup)
          .status();
  EXPECT_EQ(status.code(), StatusCode::kConstraintViolation);
  // The failed batch applied nothing.
  EXPECT_EQ(system_.executor()->FileSize("course"), 3u);
}

// --- key allocation ---

TEST_F(SqlMachineTest, FreshSessionNeverReusesALiveKey) {
  // enrollment_1 .. enrollment_10, then enrollment_1 and enrollment_9
  // go: the file holds 8 records, so a fresh cursor starts at 9, which is
  // free, while 10 is live.
  GrowEnrollment(10);
  DeleteKeys("enrollment", {1, 9});
  auto fresh = system_.OpenSqlSession("registrar");
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  auto values = (*fresh)->ExecuteText(
      "INSERT INTO enrollment (sname, ctitle, grade) VALUES "
      "('u1', 'Thermo', 2.0), ('u2', 'Thermo', 2.5)");
  ASSERT_TRUE(values.ok()) << values.status();
  const std::vector<std::vector<abdm::Value>> rows = {
      {abdm::Value::String("v1")}, {abdm::Value::String("v2")}};
  auto batch = (*fresh)->ExecuteBatch(
      "INSERT INTO enrollment (sname, ctitle, grade) VALUES (?, 'Thermo', 3.0)",
      rows);
  ASSERT_TRUE(batch.ok()) << batch.status();
  const std::vector<std::string> keys = Keys("enrollment");
  EXPECT_EQ(keys.size(), 12u);
  EXPECT_TRUE(AllDistinct(keys));
}

TEST_F(SqlMachineTest, KeysAfterDeletionsContinuePastEveryHeldKey) {
  // The kernel's key counter only moves forward: after deletions, a fresh
  // session's rows take the ordinals past the highest key the file has
  // held (here the deleted enrollment_11), never a freed one.
  GrowEnrollment(11);
  DeleteKeys("enrollment", {1, 2, 9, 11});
  const std::vector<std::string> before = Keys("enrollment");
  auto fresh = system_.OpenSqlSession("registrar");
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  const std::vector<std::vector<abdm::Value>> rows = {
      {abdm::Value::String("w1")},
      {abdm::Value::String("w2")},
      {abdm::Value::String("w3")}};
  auto batch = (*fresh)->ExecuteBatch(
      "INSERT INTO enrollment (sname, ctitle, grade) VALUES (?, 'Thermo', 3.0)",
      rows);
  ASSERT_TRUE(batch.ok()) << batch.status();
  const std::vector<std::string> after = Keys("enrollment");
  EXPECT_TRUE(AllDistinct(after));
  EXPECT_EQ(NewKeys(before, after),
            (std::vector<std::string>{"enrollment_12", "enrollment_13",
                                      "enrollment_14"}));
}

TEST_F(SqlMachineTest, KeyRangeCrossingADigitBoundarySkipsTakenKeys) {
  // Live: 3..8, 10, 11. A fresh session's file holds 8 records, so a
  // count-based start would land on 9, 10, 11 across the one- to two-digit
  // boundary, two of them taken; the kernel counter skips past 11.
  GrowEnrollment(11);
  DeleteKeys("enrollment", {1, 2, 9});
  const std::vector<std::string> before = Keys("enrollment");
  auto fresh = system_.OpenSqlSession("registrar");
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  const std::vector<std::vector<abdm::Value>> rows = {
      {abdm::Value::String("w1")},
      {abdm::Value::String("w2")},
      {abdm::Value::String("w3")}};
  auto batch = (*fresh)->ExecuteBatch(
      "INSERT INTO enrollment (sname, ctitle, grade) VALUES (?, 'Thermo', 3.0)",
      rows);
  ASSERT_TRUE(batch.ok()) << batch.status();
  const std::vector<std::string> after = Keys("enrollment");
  EXPECT_TRUE(AllDistinct(after));
  EXPECT_EQ(NewKeys(before, after),
            (std::vector<std::string>{"enrollment_12", "enrollment_13",
                                      "enrollment_14"}));
}

TEST_F(SqlMachineTest, KeyRangeSkipsTakenKeysInsideIt) {
  // Live: 4..9, 11, 13, 14. A count-based start would be 10, and 10..13
  // hold two taken keys; the kernel counter hands out 15..18 instead.
  GrowEnrollment(14);
  DeleteKeys("enrollment", {1, 2, 3, 10, 12});
  const std::vector<std::string> before = Keys("enrollment");
  auto fresh = system_.OpenSqlSession("registrar");
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  std::vector<std::vector<abdm::Value>> rows;
  for (int i = 0; i < 4; ++i) {
    rows.push_back({abdm::Value::String("x" + std::to_string(i))});
  }
  auto batch = (*fresh)->ExecuteBatch(
      "INSERT INTO enrollment (sname, ctitle, grade) VALUES (?, 'Thermo', 3.0)",
      rows);
  ASSERT_TRUE(batch.ok()) << batch.status();
  const std::vector<std::string> after = Keys("enrollment");
  EXPECT_TRUE(AllDistinct(after));
  EXPECT_EQ(NewKeys(before, after),
            (std::vector<std::string>{"enrollment_15", "enrollment_16",
                                      "enrollment_17", "enrollment_18"}));
}

}  // namespace
}  // namespace mlds::kms
