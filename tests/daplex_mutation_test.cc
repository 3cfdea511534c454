// Tests for the Daplex CREATE / DESTROY statements: entity creation with
// referential + overlap + uniqueness enforcement, and hierarchy-cascading
// destruction with the Ch. VI.H reference-abort rule.

#include <gtest/gtest.h>

#include "kms/daplex_machine.h"
#include "mlds/mlds.h"
#include "university/university.h"

namespace mlds::kms {
namespace {

class DaplexMutationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(
        system_.LoadFunctionalDatabase(university::kUniversityDaplexDdl).ok());
    university::UniversityConfig config;
    ASSERT_TRUE(university::BuildUniversityDatabaseOnLoaded(config,
                                                            system_.executor())
                    .ok());
    auto session = system_.OpenDaplexSession("university");
    ASSERT_TRUE(session.ok());
    machine_ = *session;
  }

  DaplexMachine::Outcome Must(std::string_view text) {
    auto outcome = machine_->ExecuteStatement(text);
    EXPECT_TRUE(outcome.ok()) << text << ": " << outcome.status();
    return outcome.ok() ? std::move(*outcome) : DaplexMachine::Outcome{};
  }

  Status Fails(std::string_view text) {
    auto outcome = machine_->ExecuteStatement(text);
    EXPECT_FALSE(outcome.ok()) << text << " unexpectedly succeeded";
    return outcome.ok() ? Status::OK() : outcome.status();
  }

  MldsSystem system_;
  DaplexMachine* machine_ = nullptr;
};

TEST_F(DaplexMutationTest, CreateEntityWithScalars) {
  auto outcome =
      Must("CREATE department (dname = 'Philosophy')");
  EXPECT_EQ(outcome.affected, 1u);
  auto rows = Must("FOR EACH department SUCH THAT dname = 'Philosophy' "
                   "PRINT dname");
  EXPECT_EQ(rows.records.size(), 1u);
}

TEST_F(DaplexMutationTest, CreateSubtypeRequiresSupertypeKey) {
  Status status = Fails("CREATE student (major = 'CS')");
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST_F(DaplexMutationTest, CreateSubtypeLinksToSupertype) {
  auto outcome = Must(
      "CREATE student (person = 'person_33', major = 'Daplex Studies', "
      "advisor = 'faculty_2')");
  EXPECT_EQ(outcome.affected, 1u);
  auto rows = Must(
      "FOR EACH student SUCH THAT major = 'Daplex Studies' "
      "PRINT pname, advisor");
  ASSERT_EQ(rows.records.size(), 1u);
  EXPECT_EQ(rows.records[0].GetOrNull("pname").AsString(), "person_name_33");
  EXPECT_EQ(rows.records[0].GetOrNull("advisor").AsString(), "faculty_2");
}

TEST_F(DaplexMutationTest, CreateRejectsMissingSupertypeEntity) {
  Status status =
      Fails("CREATE student (person = 'person_999', major = 'X')");
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
}

TEST_F(DaplexMutationTest, CreateRejectsDanglingEntityReference) {
  Status status = Fails(
      "CREATE student (person = 'person_34', major = 'X', "
      "advisor = 'faculty_999')");
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
}

TEST_F(DaplexMutationTest, CreateEnforcesUniqueness) {
  // UNIQUE title, semester WITHIN course; course_1 holds (Advanced
  // Database, Fall86).
  Status status = Fails(
      "CREATE course (title = 'Advanced Database', semester = 'Fall86', "
      "credits = 3)");
  EXPECT_EQ(status.code(), StatusCode::kConstraintViolation);
}

TEST_F(DaplexMutationTest, CreateEnforcesOverlapTable) {
  // employee_1 already has a faculty record; support_staff is an
  // undeclared overlap sibling.
  Status status = Fails(
      "CREATE support_staff (employee = 'employee_1', hours = 5)");
  EXPECT_EQ(status.code(), StatusCode::kConstraintViolation);
}

TEST_F(DaplexMutationTest, CreateRejectsInheritedFunctionAssignment) {
  // pname belongs to person; it cannot be written through student.
  Status status = Fails(
      "CREATE student (person = 'person_34', pname = 'nope')");
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
}

TEST_F(DaplexMutationTest, DestroyLeafEntity) {
  Must("CREATE department (dname = 'Ephemeral')");
  auto outcome =
      Must("DESTROY department SUCH THAT dname = 'Ephemeral'");
  EXPECT_EQ(outcome.affected, 1u);
  auto rows =
      Must("FOR EACH department SUCH THAT dname = 'Ephemeral' PRINT dname");
  EXPECT_TRUE(rows.records.empty());
}

TEST_F(DaplexMutationTest, DestroyCascadesIntoSubtypeHierarchy) {
  // person_30 has a student record (students cover persons 1..30).
  const size_t students_before = system_.executor()->FileSize("student");
  auto outcome = Must("DESTROY person SUCH THAT person = 'person_30'");
  EXPECT_EQ(outcome.affected, 1u);
  EXPECT_EQ(system_.executor()->FileSize("student"), students_before - 1);
  auto rows = Must(
      "FOR EACH person SUCH THAT person = 'person_30' PRINT pname");
  EXPECT_TRUE(rows.records.empty());
}

TEST_F(DaplexMutationTest, DestroyAbortsWhenEntityIsReferenced) {
  // Every faculty member owning teaching links or advising students is
  // referenced by a database function; destroying its employee supertype
  // must abort (the cascade would hit the referenced faculty record).
  auto advisors = Must("FOR EACH student PRINT advisor");
  ASSERT_FALSE(advisors.records.empty());
  const std::string busy_faculty =
      advisors.records[0].GetOrNull("advisor").AsString();
  Status status = Fails("DESTROY faculty SUCH THAT faculty = '" +
                        busy_faculty + "'");
  EXPECT_EQ(status.code(), StatusCode::kAborted);
}

TEST_F(DaplexMutationTest, DestroyAbortDeletesNoSelectedEntity) {
  // Two temporary employees; the second is a faculty member who advises a
  // student, so the reference sits one subtype level below the selected
  // type. Every check runs before any delete: after the abort both
  // employees are still there.
  Must("CREATE employee (ename = 'Temp', salary = 1.0)");
  const std::string temp2 =
      Must("CREATE employee (ename = 'Temp2', salary = 1.0)").info.substr(8);
  const std::string faculty =
      Must("CREATE faculty (employee = '" + temp2 + "', frank = 'full')")
          .info.substr(8);
  Must("CREATE student (person = 'person_33', major = 'Temp Studies', "
       "advisor = '" + faculty + "')");
  const size_t employees = system_.executor()->FileSize("employee");
  Status status = Fails("DESTROY employee SUCH THAT salary = 1.0");
  EXPECT_EQ(status.code(), StatusCode::kAborted);
  EXPECT_NE(status.message().find(faculty), std::string::npos) << status;
  EXPECT_EQ(system_.executor()->FileSize("employee"), employees);
  auto temps = Must("FOR EACH employee SUCH THAT salary = 1.0 PRINT ename");
  ASSERT_EQ(temps.records.size(), 2u);
  EXPECT_EQ(temps.records[0].GetOrNull("ename").AsString(), "Temp");
  EXPECT_EQ(temps.records[1].GetOrNull("ename").AsString(), "Temp2");
}

TEST_F(DaplexMutationTest, DestroyNonReferencedSubtypeSucceeds) {
  Must("CREATE student (person = 'person_35', major = 'Disposable')");
  auto outcome = Must("DESTROY student SUCH THAT major = 'Disposable'");
  EXPECT_EQ(outcome.affected, 1u);
}

TEST_F(DaplexMutationTest, DestroyWithEmptySelectionIsNoop) {
  auto outcome =
      Must("DESTROY department SUCH THAT dname = 'No Such Dept'");
  EXPECT_EQ(outcome.affected, 0u);
}

TEST_F(DaplexMutationTest, CreateVisibleThroughCodasylInterface) {
  Must("CREATE course (title = 'Daplex Made', semester = 'Sp88', "
       "credits = 2)");
  auto dml = system_.OpenCodasylSession("university");
  ASSERT_TRUE(dml.ok());
  auto found = (*dml)->RunProgram(
      "MOVE 'Daplex Made' TO title IN course\n"
      "FIND ANY course USING title IN course\n"
      "GET title, credits IN course\n");
  ASSERT_TRUE(found.ok()) << found.status();
  EXPECT_EQ(found->back().records[0].GetOrNull("credits").AsInteger(), 2);
}

TEST_F(DaplexMutationTest, CreateNullsUnassignedMemberSideSets) {
  // Parity with STORE: Daplex-created entities carry NULL keywords for
  // unassigned member-side function sets, so both creation paths answer
  // (set = NULL) queries identically.
  Must("CREATE student (person = 'person_32', major = 'Unadvised')");
  auto dml = system_.OpenCodasylSession("university");
  ASSERT_TRUE(dml.ok());
  auto found = (*dml)->RunProgram(
      "MOVE 'Unadvised' TO major IN student\n"
      "FIND ANY student USING major IN student\n"
      "GET advisor IN student\n");
  ASSERT_TRUE(found.ok()) << found.status();
  EXPECT_TRUE(found->back().records[0].GetOrNull("advisor").is_null());
}

TEST_F(DaplexMutationTest, UpdateScalarFunction) {
  auto outcome = Must(
      "UPDATE course SUCH THAT course = 'course_2' (credits = 9)");
  EXPECT_EQ(outcome.affected, 1u);
  auto rows =
      Must("FOR EACH course SUCH THAT course = 'course_2' PRINT credits");
  ASSERT_EQ(rows.records.size(), 1u);
  EXPECT_EQ(rows.records[0].GetOrNull("credits").AsInteger(), 9);
}

TEST_F(DaplexMutationTest, UpdateHitsAllDuplicatedRecords) {
  // employee_3 has two kernel records; one UPDATE touches both.
  Must("UPDATE employee SUCH THAT employee = 'employee_3' "
       "(salary = 11111.0)");
  auto rows = Must(
      "FOR EACH employee SUCH THAT employee = 'employee_3' PRINT salary");
  ASSERT_EQ(rows.records.size(), 1u);
  EXPECT_DOUBLE_EQ(rows.records[0].GetOrNull("salary").AsFloat(), 11111.0);
}

TEST_F(DaplexMutationTest, UpdateSingleValuedFunctionChecksTarget) {
  Status status = Fails(
      "UPDATE student SUCH THAT student = 'student_1' "
      "(advisor = 'faculty_999')");
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  auto outcome = Must(
      "UPDATE student SUCH THAT student = 'student_1' "
      "(advisor = 'faculty_6')");
  EXPECT_EQ(outcome.affected, 1u);
  auto rows =
      Must("FOR EACH student SUCH THAT student = 'student_1' PRINT advisor");
  EXPECT_EQ(rows.records[0].GetOrNull("advisor").AsString(), "faculty_6");
}

TEST_F(DaplexMutationTest, UpdateSelectsByCondition) {
  auto outcome = Must(
      "UPDATE student SUCH THAT major = 'Computer Science' "
      "(major = 'Informatics')");
  EXPECT_GE(outcome.affected, 1u);
  auto gone = Must(
      "FOR EACH student SUCH THAT major = 'Computer Science' PRINT major");
  EXPECT_TRUE(gone.records.empty());
}

TEST_F(DaplexMutationTest, UpdateRejectsMultiValuedAssignment) {
  Status status = Fails(
      "UPDATE faculty SUCH THAT faculty = 'faculty_1' "
      "(teaching = 'course_1')");
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST_F(DaplexMutationTest, ParserRejectsMalformedStatements) {
  EXPECT_FALSE(machine_->ExecuteStatement("CREATE course").ok());
  EXPECT_FALSE(machine_->ExecuteStatement("CREATE course (title 'x')").ok());
  EXPECT_FALSE(machine_->ExecuteStatement("DESTROY").ok());
  EXPECT_FALSE(machine_->ExecuteStatement("OBLITERATE course").ok());
}

// --- batch CREATE (bulk ingest) ---

TEST_F(DaplexMutationTest, BatchCreateBindsRowsThroughOneTemplate) {
  std::vector<std::vector<abdm::Value>> rows;
  for (int i = 0; i < 5; ++i) {
    rows.push_back({abdm::Value::String("Dept " + std::to_string(i))});
  }
  auto outcome =
      machine_->ExecuteBatch("CREATE department (dname = ?)", rows);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_EQ(outcome->affected, 5u);
  for (int i = 0; i < 5; ++i) {
    auto check = Must("FOR EACH department SUCH THAT dname = 'Dept " +
                      std::to_string(i) + "' PRINT dname");
    EXPECT_EQ(check.records.size(), 1u) << "row " << i;
  }
}

TEST_F(DaplexMutationTest, BatchCreateRejectsHostileShapes) {
  EXPECT_FALSE(
      machine_->ExecuteBatch("CREATE department (dname = ?)", {}).ok());
  EXPECT_FALSE(machine_
                   ->ExecuteBatch("CREATE department (dname = ?)",
                                  {{abdm::Value::String("a"),
                                    abdm::Value::String("extra")}})
                   .ok());
  const std::vector<std::vector<abdm::Value>> one = {
      {abdm::Value::String("x")}};
  EXPECT_FALSE(
      machine_->ExecuteBatch("CREATE department (dname = 'lit')", one).ok());
  EXPECT_FALSE(
      machine_->ExecuteBatch("FOR EACH department PRINT dname", one).ok());
  // Direct execution of a parameterized CREATE points at the batch
  // interface.
  EXPECT_FALSE(
      machine_->ExecuteStatement("CREATE department (dname = ?)").ok());
}

TEST_F(DaplexMutationTest, BatchCreateEnforcesReferentialChecksPerRow) {
  // Subtype rows still need a live supertype key: one bad row aborts its
  // chunk before anything in it lands.
  const std::vector<std::vector<abdm::Value>> rows = {
      {abdm::Value::String("person_999"), abdm::Value::String("Ghost")}};
  Status status =
      machine_
          ->ExecuteBatch("CREATE student (person = ?, major = ?)", rows)
          .status();
  EXPECT_FALSE(status.ok());
}

TEST_F(DaplexMutationTest, BatchCreateRepeatingAUniquePairIsRejectedWhole) {
  // Two rows of one batch repeat (title, semester) under UNIQUE title,
  // semester WITHIN course: the batch fails as two single CREATEs would,
  // and neither row lands.
  const size_t courses = system_.executor()->FileSize("course");
  const std::vector<std::vector<abdm::Value>> twins = {
      {abdm::Value::String("Twin Course"), abdm::Value::String("Spr89"),
       abdm::Value::Integer(3)},
      {abdm::Value::String("Twin Course"), abdm::Value::String("Spr89"),
       abdm::Value::Integer(4)}};
  Status status =
      machine_
          ->ExecuteBatch(
              "CREATE course (title = ?, semester = ?, credits = ?)", twins)
          .status();
  EXPECT_EQ(status.code(), StatusCode::kConstraintViolation);
  EXPECT_EQ(system_.executor()->FileSize("course"), courses);
}

}  // namespace
}  // namespace mlds::kms
