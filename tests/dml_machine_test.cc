// Tests for the Chapter VI CODASYL-DML -> ABDL translation, executed on
// the AB(functional) University database.

#include "kms/dml_machine.h"

#include <gtest/gtest.h>

#include "abdl/parser.h"
#include "daplex/ddl_parser.h"
#include "kds/engine.h"
#include "transform/abdm_mapping.h"
#include "transform/fun_to_net.h"
#include "university/university.h"

namespace mlds::kms {
namespace {

using university::BuildUniversityDatabase;
using university::UniversityConfig;
using university::UniversityDatabase;

class DmlUniversityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    executor_ = std::make_unique<kc::EngineExecutor>(&engine_);
    auto db = BuildUniversityDatabase(config_, executor_.get());
    ASSERT_TRUE(db.ok()) << db.status();
    db_ = std::make_unique<UniversityDatabase>(std::move(*db));
    machine_ = std::make_unique<DmlMachine>(&db_->mapping.schema,
                                            &db_->mapping, executor_.get());
  }

  DmlResult Must(std::string_view dml) {
    auto result = machine_->ExecuteText(dml);
    EXPECT_TRUE(result.ok()) << dml << ": " << result.status();
    return result.ok() ? std::move(*result) : DmlResult{};
  }

  Status Fails(std::string_view dml) {
    auto result = machine_->ExecuteText(dml);
    EXPECT_FALSE(result.ok()) << dml << " unexpectedly succeeded";
    return result.ok() ? Status::OK() : result.status();
  }

  kds::Response Kernel(std::string_view abdl) {
    auto req = abdl::ParseRequest(abdl);
    EXPECT_TRUE(req.ok()) << req.status();
    auto resp = engine_.Execute(*req);
    EXPECT_TRUE(resp.ok()) << resp.status();
    return std::move(*resp);
  }

  UniversityConfig config_;
  kds::Engine engine_;
  std::unique_ptr<kc::EngineExecutor> executor_;
  std::unique_ptr<UniversityDatabase> db_;
  std::unique_ptr<DmlMachine> machine_;
};

// --- FIND / GET (Ch. VI.B, VI.C) ---

TEST_F(DmlUniversityTest, MoveThenFindAnyLocatesCourse) {
  Must("MOVE 'Advanced Database' TO title IN course");
  DmlResult found = Must("FIND ANY course USING title IN course");
  ASSERT_EQ(found.records.size(), 1u);
  EXPECT_EQ(found.records[0].GetOrNull("title").AsString(),
            "Advanced Database");
  ASSERT_TRUE(machine_->cit().run_unit().has_value());
  EXPECT_EQ(machine_->cit().run_unit()->record_type, "course");
}

TEST_F(DmlUniversityTest, FindAnyTranslationMatchesThesisTemplate) {
  Must("MOVE 'Advanced Database' TO title IN course");
  Must("FIND ANY course USING title IN course");
  const std::vector<std::string>& requests = machine_->trace();
  ASSERT_EQ(requests.size(), 1u);
  // RETRIEVE ((FILE = course) AND (title = 'Advanced Database'))
  // (all attributes) BY course   (Ch. VI.B.1)
  EXPECT_EQ(requests[0],
            "RETRIEVE ((FILE = 'course') and (title = 'Advanced Database')) "
            "(all attributes) BY course");
}

TEST_F(DmlUniversityTest, FindAnyWithoutMoveIsCurrencyError) {
  Status status = Fails("FIND ANY course USING title IN course");
  EXPECT_EQ(status.code(), StatusCode::kCurrencyError);
}

TEST_F(DmlUniversityTest, FindAnyUnknownRecordIsNotFound) {
  Status status = Fails("FIND ANY nothere USING x IN nothere");
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
}

TEST_F(DmlUniversityTest, GetDeliversCurrentRecordIntoUwa) {
  Must("MOVE 'Advanced Database' TO title IN course");
  Must("FIND ANY course USING title IN course");
  DmlResult got = Must("GET");
  ASSERT_EQ(got.records.size(), 1u);
  auto credits = machine_->uwa().Get("course", "credits");
  ASSERT_TRUE(credits.has_value());
}

TEST_F(DmlUniversityTest, GetRecordChecksRunUnitType) {
  Must("MOVE 'Advanced Database' TO title IN course");
  Must("FIND ANY course USING title IN course");
  Must("GET course");
  Status status = Fails("GET student");
  EXPECT_EQ(status.code(), StatusCode::kCurrencyError);
}

TEST_F(DmlUniversityTest, GetItemsProjects) {
  Must("MOVE 'Advanced Database' TO title IN course");
  Must("FIND ANY course USING title IN course");
  DmlResult got = Must("GET title, credits IN course");
  ASSERT_EQ(got.records.size(), 1u);
  EXPECT_EQ(got.records[0].size(), 2u);
  EXPECT_TRUE(got.records[0].Has("title"));
  EXPECT_TRUE(got.records[0].Has("credits"));
}

TEST_F(DmlUniversityTest, GetWithoutFindIsCurrencyError) {
  Status status = Fails("GET");
  EXPECT_EQ(status.code(), StatusCode::kCurrencyError);
}

TEST_F(DmlUniversityTest, FindFirstWithinSystemSetIteratesWholeFile) {
  // Subtypes have no SYSTEM set (only entity types do, Ch. V.A), so the
  // whole-file walk goes through an entity type's system set.
  DmlResult first = Must("FIND FIRST person WITHIN system_person");
  ASSERT_EQ(first.records.size(), 1u);
  int count = 1;
  while (true) {
    auto next = machine_->ExecuteText("FIND NEXT person WITHIN system_person");
    if (!next.ok()) {
      EXPECT_TRUE(next.status().IsNotFound()) << next.status();
      break;
    }
    ++count;
    ASSERT_LE(count, 1000) << "runaway iteration";
  }
  EXPECT_EQ(count, config_.persons);
}

TEST_F(DmlUniversityTest, FindLastThenPriorWalksBackwards) {
  Must("FIND LAST person WITHIN system_person");
  int count = 1;
  while (true) {
    auto prior =
        machine_->ExecuteText("FIND PRIOR person WITHIN system_person");
    if (!prior.ok()) break;
    ++count;
    ASSERT_LE(count, 1000);
  }
  EXPECT_EQ(count, config_.persons);
}

TEST_F(DmlUniversityTest, SubtypesHaveNoSystemSet) {
  Status status = Fails("FIND FIRST student WITHIN system_student");
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
}

TEST_F(DmlUniversityTest, FindFirstWithinIsaSetFindsSubtypeOfOwner) {
  // Make employee_1 current owner of employee_faculty by finding the
  // faculty record (its ISA keyword establishes the set currency).
  Must("MOVE 'faculty_1' TO faculty IN faculty");
  Must("FIND ANY faculty USING faculty IN faculty");
  // Owner of employee_faculty is now employee_1.
  DmlResult owner = Must("FIND OWNER WITHIN employee_faculty");
  ASSERT_EQ(owner.records.size(), 1u);
  EXPECT_EQ(owner.records[0].GetOrNull("employee").AsString(), "employee_1");
}

TEST_F(DmlUniversityTest, FindOwnerWithinSingleValuedFunctionSet) {
  // Thesis Ch. VI.B.5: FIND OWNER WITHIN advisor returns the advising
  // faculty of the current student.
  Must("MOVE 'student_1' TO student IN student");
  Must("FIND ANY student USING student IN student");
  const std::string advisor_key = machine_->cit()
                                      .run_unit()
                                      ->record.GetOrNull("advisor")
                                      .AsString();
  DmlResult owner = Must("FIND OWNER WITHIN advisor");
  ASSERT_EQ(owner.records.size(), 1u);
  EXPECT_EQ(owner.records[0].GetOrNull("faculty").AsString(), advisor_key);
}

TEST_F(DmlUniversityTest, FindOwnerOfSystemSetRejected) {
  Must("FIND FIRST person WITHIN system_person");
  Status status = Fails("FIND OWNER WITHIN system_person");
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST_F(DmlUniversityTest, FindFirstWithinFunctionSetListsAdvisees) {
  // Locate a faculty, then iterate its advisees through the advisor set.
  Must("MOVE 'faculty_1' TO faculty IN faculty");
  Must("FIND ANY faculty USING faculty IN faculty");
  auto first = machine_->ExecuteText("FIND FIRST student WITHIN advisor");
  // faculty_1 may or may not advise anyone under this seed; both paths
  // are legitimate, but whichever records come back must reference it.
  if (first.ok()) {
    EXPECT_EQ(first->records[0].GetOrNull("advisor").AsString(), "faculty_1");
  } else {
    EXPECT_TRUE(first.status().IsNotFound());
  }
}

TEST_F(DmlUniversityTest, AllAdviseesFoundThroughSetIteration) {
  // Count advisees of every faculty member through DML navigation and
  // compare with a direct kernel count.
  size_t via_dml = 0;
  for (int i = 1; i <= config_.faculty; ++i) {
    Must("MOVE 'faculty_" + std::to_string(i) + "' TO faculty IN faculty");
    Must("FIND ANY faculty USING faculty IN faculty");
    auto member = machine_->ExecuteText("FIND FIRST student WITHIN advisor");
    while (member.ok()) {
      ++via_dml;
      member = machine_->ExecuteText("FIND NEXT student WITHIN advisor");
    }
  }
  auto all = Kernel("RETRIEVE ((FILE = student)) (advisor)");
  EXPECT_EQ(via_dml, all.records.size());
}

TEST_F(DmlUniversityTest, FindCurrentRestoresRunUnitFromSetCurrency) {
  Must("MOVE 'student_1' TO student IN student");
  Must("FIND ANY student USING student IN student");
  // advisor currency now holds student_1 as member. Wander off...
  Must("FIND FIRST course WITHIN system_course");
  EXPECT_EQ(machine_->cit().run_unit()->record_type, "course");
  // ...and come back via FIND CURRENT.
  DmlResult current = Must("FIND CURRENT student WITHIN advisor");
  EXPECT_EQ(machine_->cit().run_unit()->record_type, "student");
  EXPECT_EQ(machine_->cit().run_unit()->dbkey, "student_1");
  ASSERT_EQ(current.records.size(), 1u);
}

TEST_F(DmlUniversityTest, FindDuplicateWithinFindsSecondMatch) {
  // Courses sharing a semester: find one, then its duplicate within the
  // course system set (4 of the 12 generated courses share each
  // semester).
  Must("MOVE 'Fall86' TO semester IN course");
  Must("FIND ANY course USING semester IN course");
  const std::string first_key = machine_->cit().run_unit()->dbkey;
  auto dup = machine_->ExecuteText(
      "FIND DUPLICATE WITHIN system_course USING semester IN course");
  ASSERT_TRUE(dup.ok()) << dup.status();
  EXPECT_NE(machine_->cit().run_unit()->dbkey, first_key);
  EXPECT_EQ(dup->records[0].GetOrNull("semester").AsString(), "Fall86");
}

TEST_F(DmlUniversityTest, FindWithinCurrentUsesUwaValues) {
  Must("MOVE 'faculty_2' TO faculty IN faculty");
  Must("FIND ANY faculty USING faculty IN faculty");
  // Among faculty_2's advisees, find those majoring in Mathematics.
  Must("MOVE 'Mathematics' TO major IN student");
  auto found = machine_->ExecuteText(
      "FIND student WITHIN advisor CURRENT USING major IN student");
  if (found.ok()) {
    EXPECT_EQ(found->records[0].GetOrNull("advisor").AsString(), "faculty_2");
    EXPECT_EQ(found->records[0].GetOrNull("major").AsString(), "Mathematics");
  } else {
    EXPECT_TRUE(found.status().IsNotFound());
  }
}

TEST_F(DmlUniversityTest, ManyToManyNavigationThroughLinkRecords) {
  // Thesis Ch. V: the teaching/taught_by pair routes through link_1.
  Must("MOVE 'faculty_1' TO faculty IN faculty");
  Must("FIND ANY faculty USING faculty IN faculty");
  auto link = machine_->ExecuteText("FIND FIRST link_1 WITHIN teaching");
  while (link.ok()) {
    EXPECT_EQ(link->records[0].GetOrNull("teaching").AsString(), "faculty_1");
    EXPECT_TRUE(link->records[0]
                    .GetOrNull("taught_by")
                    .AsString()
                    .starts_with("course_"));
    link = machine_->ExecuteText("FIND NEXT link_1 WITHIN teaching");
  }
  EXPECT_TRUE(link.status().IsNotFound());
}

// --- STORE (Ch. VI.G) ---

TEST_F(DmlUniversityTest, StoreCourseInsertsWithGeneratedKey) {
  Must("MOVE 'Database Design' TO title IN course");
  Must("MOVE 'Fall87' TO semester IN course");
  Must("MOVE 3 TO credits IN course");
  DmlResult stored = Must("STORE course");
  ASSERT_EQ(stored.records.size(), 1u);
  const std::string key =
      stored.records[0].GetOrNull("course").AsString();
  auto check = Kernel("RETRIEVE ((FILE = course) and (course = '" + key +
                      "')) (title)");
  ASSERT_EQ(check.records.size(), 1u);
  EXPECT_EQ(check.records[0].GetOrNull("title").AsString(),
            "Database Design");
  // The new record is the current of the run-unit.
  EXPECT_EQ(machine_->cit().run_unit()->dbkey, key);
}

TEST_F(DmlUniversityTest, StoreDuplicateCourseViolatesUniqueness) {
  // UNIQUE title, semester WITHIN course -> DUPLICATES ARE NOT ALLOWED.
  Must("MOVE 'Advanced Database' TO title IN course");
  Must("MOVE 'Fall86' TO semester IN course");
  Must("MOVE 4 TO credits IN course");
  // course_1 already carries (Advanced Database, Fall86).
  Status status = Fails("STORE course");
  EXPECT_EQ(status.code(), StatusCode::kConstraintViolation);
}

TEST_F(DmlUniversityTest, StoreSameTitleDifferentSemesterAllowed) {
  // The uniqueness constraint is on the combination.
  Must("MOVE 'Advanced Database' TO title IN course");
  Must("MOVE 'Winter88' TO semester IN course");
  Must("MOVE 4 TO credits IN course");
  Must("STORE course");
}

TEST_F(DmlUniversityTest, StoreSubtypeRequiresIsaOwnerCurrency) {
  Must("MOVE 'Philosophy' TO major IN student");
  Status status = Fails("STORE student");
  EXPECT_EQ(status.code(), StatusCode::kCurrencyError);
}

TEST_F(DmlUniversityTest, StoreSubtypeConnectsToIsaOwner) {
  // Establish person_40 (no student record: only the first 30 persons
  // have one) as the current owner of person_student, then store.
  Must("MOVE 'person_40' TO person IN person");
  Must("FIND ANY person USING person IN person");
  Must("MOVE 'Philosophy' TO major IN student");
  Must("MOVE 'faculty_1' TO advisor IN student");
  DmlResult stored = Must("STORE student");
  EXPECT_EQ(stored.records[0].GetOrNull("person_student").AsString(),
            "person_40");
  EXPECT_EQ(stored.records[0].GetOrNull("advisor").AsString(), "faculty_1");
}

TEST_F(DmlUniversityTest, StoreSiblingSubtypeWithoutOverlapAborts) {
  // employee_1 already has a faculty record; support_staff is a sibling
  // subtype and OVERLAP student WITH support_staff does not license
  // faculty/support_staff sharing.
  Must("MOVE 'employee_1' TO employee IN employee");
  Must("FIND ANY employee USING employee IN employee");
  Must("MOVE 20 TO hours IN support_staff");
  Status status = Fails("STORE support_staff");
  EXPECT_EQ(status.code(), StatusCode::kConstraintViolation);
}

TEST_F(DmlUniversityTest, StoreSubtypeForUnclaimedEntitySucceeds) {
  // employee_20 has neither a faculty nor a support_staff record under
  // the default config (faculty 8 + staff 6 = first 14 employees).
  Must("MOVE 'employee_20' TO employee IN employee");
  Must("FIND ANY employee USING employee IN employee");
  Must("MOVE 20 TO hours IN support_staff");
  Must("MOVE 'employee_1' TO supervisor IN support_staff");
  DmlResult stored = Must("STORE support_staff");
  EXPECT_EQ(stored.records[0]
                .GetOrNull("employee_support_staff")
                .AsString(),
            "employee_20");
}

// --- CONNECT / DISCONNECT (Ch. VI.D, VI.E) ---

TEST_F(DmlUniversityTest, ConnectToAutomaticSetRejected) {
  Must("MOVE 'student_1' TO student IN student");
  Must("FIND ANY student USING student IN student");
  Status status = Fails("CONNECT student TO person_student");
  EXPECT_EQ(status.code(), StatusCode::kConstraintViolation);
}

TEST_F(DmlUniversityTest, ConnectMemberSideSetsOwnerKeyword) {
  // Store an unadvised student, then CONNECT it to faculty_3's advisor
  // set occurrence.
  Must("MOVE 'person_39' TO person IN person");
  Must("FIND ANY person USING person IN person");
  Must("MOVE 'History' TO major IN student");
  DmlResult stored = Must("STORE student");
  const std::string student_key =
      stored.records[0].GetOrNull("student").AsString();
  EXPECT_TRUE(stored.records[0].GetOrNull("advisor").is_null());

  // Make faculty_3 current owner of advisor, then restore the student as
  // run-unit and connect.
  Must("MOVE 'faculty_3' TO faculty IN faculty");
  Must("FIND ANY faculty USING faculty IN faculty");
  Must("MOVE '" + student_key + "' TO student IN student");
  Must("FIND ANY student USING student IN student");
  Must("CONNECT student TO advisor");

  auto check = Kernel("RETRIEVE ((FILE = student) and (student = '" +
                      student_key + "')) (advisor)");
  ASSERT_EQ(check.records.size(), 1u);
  EXPECT_EQ(check.records[0].GetOrNull("advisor").AsString(), "faculty_3");
}

TEST_F(DmlUniversityTest, ConnectTranslatesToMemberUpdate) {
  // Finding student_5 makes its existing advisor the current owner of
  // the advisor set (every FIND updates the currency indicators);
  // re-CONNECTing exercises the member-side translation template.
  Must("MOVE 'student_5' TO student IN student");
  Must("FIND ANY student USING student IN student");
  const std::string owner_key =
      machine_->cit().CurrentOfSet("advisor")->owner_dbkey;
  Must("CONNECT student TO advisor");
  // Thesis Ch. VI.D.2.b: UPDATE ((FILE = record) AND (record = run-unit
  // dbkey)) (set = owner dbkey).
  const std::vector<std::string>& requests = machine_->trace();
  ASSERT_GE(requests.size(), 1u);
  EXPECT_EQ(requests[0],
            "UPDATE ((FILE = 'student') and (student = 'student_5')) "
            "(advisor = '" + owner_key + "')");
}

TEST_F(DmlUniversityTest, DisconnectNullsOutMemberKeyword) {
  Must("MOVE 'student_2' TO student IN student");
  Must("FIND ANY student USING student IN student");
  const std::string advisor_key = machine_->cit()
                                      .run_unit()
                                      ->record.GetOrNull("advisor")
                                      .AsString();
  // Establish the set currency via the owner.
  Must("MOVE '" + advisor_key + "' TO faculty IN faculty");
  Must("FIND ANY faculty USING faculty IN faculty");
  Must("MOVE 'student_2' TO student IN student");
  Must("FIND ANY student USING student IN student");
  Must("DISCONNECT student FROM advisor");
  auto check =
      Kernel("RETRIEVE ((FILE = student) and (student = 'student_2')) "
             "(advisor)");
  ASSERT_EQ(check.records.size(), 1u);
  EXPECT_TRUE(check.records[0].GetOrNull("advisor").is_null());
}

TEST_F(DmlUniversityTest, DisconnectFromFixedRetentionSetRejected) {
  Must("MOVE 'student_1' TO student IN student");
  Must("FIND ANY student USING student IN student");
  Status status = Fails("DISCONNECT student FROM person_student");
  EXPECT_EQ(status.code(), StatusCode::kConstraintViolation);
}

// --- MODIFY (Ch. VI.F) ---

TEST_F(DmlUniversityTest, ModifyItemUpdatesAllDuplicatedRecords) {
  // employee_3 has two AB records (two degrees); modifying its salary
  // must update both.
  Must("MOVE 'employee_3' TO employee IN employee");
  Must("FIND ANY employee USING employee IN employee");
  Must("MOVE 12345.0 TO salary IN employee");
  Must("MODIFY salary IN employee");
  auto check = Kernel(
      "RETRIEVE ((FILE = employee) and (employee = 'employee_3')) (salary)");
  ASSERT_EQ(check.records.size(), 2u);
  for (const auto& r : check.records) {
    EXPECT_DOUBLE_EQ(r.GetOrNull("salary").AsFloat(), 12345.0);
  }
}

TEST_F(DmlUniversityTest, ModifyWholeRecordUsesUwaValues) {
  Must("MOVE 'course_2' TO course IN course");
  Must("FIND ANY course USING course IN course");
  Must("GET");  // load current values into UWA
  Must("MOVE 9 TO credits IN course");
  Must("MODIFY course");
  auto check =
      Kernel("RETRIEVE ((FILE = course) and (course = 'course_2')) (credits)");
  EXPECT_EQ(check.records[0].GetOrNull("credits").AsInteger(), 9);
}

TEST_F(DmlUniversityTest, ModifyRejectsNonItem) {
  Must("MOVE 'course_2' TO course IN course");
  Must("FIND ANY course USING course IN course");
  Must("MOVE 'x' TO bogus IN course");
  Status status = Fails("MODIFY bogus IN course");
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST_F(DmlUniversityTest, ModifyIssuesOneUpdatePerItem) {
  Must("MOVE 'course_2' TO course IN course");
  Must("FIND ANY course USING course IN course");
  Must("MOVE 'New Title' TO title IN course");
  Must("MOVE 2 TO credits IN course");
  DmlResult result = Must("MODIFY title, credits IN course");
  EXPECT_EQ(result.abdl_requests, 2u);
}

// --- ERASE (Ch. VI.H) ---

TEST_F(DmlUniversityTest, EraseAllIsNotTranslated) {
  Must("MOVE 'course_2' TO course IN course");
  Must("FIND ANY course USING course IN course");
  Status status = Fails("ERASE ALL course");
  EXPECT_EQ(status.code(), StatusCode::kUnimplemented);
}

TEST_F(DmlUniversityTest, EraseFacultyWithAdviseesAborts) {
  // Every faculty in the generated data advises someone or owns teaching
  // links with high probability; pick one that certainly advises.
  auto advisors = Kernel("RETRIEVE ((FILE = student)) (advisor)");
  ASSERT_FALSE(advisors.records.empty());
  const std::string busy =
      advisors.records[0].GetOrNull("advisor").AsString();
  Must("MOVE '" + busy + "' TO faculty IN faculty");
  Must("FIND ANY faculty USING faculty IN faculty");
  Status status = Fails("ERASE faculty");
  EXPECT_EQ(status.code(), StatusCode::kAborted);
}

TEST_F(DmlUniversityTest, EraseUnreferencedRecordSucceeds) {
  Must("MOVE 'Disposable' TO title IN course");
  Must("MOVE 'Never' TO semester IN course");
  Must("MOVE 1 TO credits IN course");
  DmlResult stored = Must("STORE course");
  const std::string key = stored.records[0].GetOrNull("course").AsString();
  Must("ERASE course");
  auto check =
      Kernel("RETRIEVE ((FILE = course) and (course = '" + key + "')) (title)");
  EXPECT_TRUE(check.records.empty());
  EXPECT_FALSE(machine_->cit().run_unit().has_value());
}

TEST_F(DmlUniversityTest, EraseCourseWithTeachingLinksAborts) {
  auto links = Kernel("RETRIEVE ((FILE = link_1)) (taught_by)");
  ASSERT_FALSE(links.records.empty());
  const std::string course_key =
      links.records[0].GetOrNull("taught_by").AsString();
  Must("MOVE '" + course_key + "' TO course IN course");
  Must("FIND ANY course USING course IN course");
  Status status = Fails("ERASE course");
  EXPECT_EQ(status.code(), StatusCode::kAborted);
}

TEST_F(DmlUniversityTest, EraseWithoutCurrencyFails) {
  Status status = Fails("ERASE course");
  EXPECT_EQ(status.code(), StatusCode::kCurrencyError);
}

// --- Programs and tracing ---

TEST_F(DmlUniversityTest, RunProgramExecutesThesisExample) {
  // The Ch. VI.B.1 running example, as a program.
  auto results = machine_->RunProgram(
      "MOVE 'Advanced Database' TO title IN course\n"
      "FIND ANY course USING title IN course\n"
      "GET title, dept, semester, credits IN course\n");
  ASSERT_TRUE(results.ok()) << results.status();
  EXPECT_EQ(results->size(), 3u);
}

TEST_F(DmlUniversityTest, TraceRecordsOneToManyCorrespondence) {
  const SessionStats before = machine_->statistics();
  Must("MOVE 'Advanced Database' TO title IN course");
  EXPECT_EQ(machine_->trace().size(), 0u);  // MOVE issues no ABDL.
  Must("FIND ANY course USING title IN course");
  EXPECT_EQ(machine_->trace().size(), 1u);  // FIND ANY issues one RETRIEVE.
  const SessionStats& after = machine_->statistics();
  EXPECT_EQ(after.total_statements - before.total_statements, 2u);
  EXPECT_EQ(after.total_requests - before.total_requests, 1u);
}

// --- batch STORE (bulk ingest) ---

TEST_F(DmlUniversityTest, BatchStoreBindsRowsThroughOneTemplate) {
  // Literal assignments apply to every row; each '?' binds one row value
  // in assignment order. UNIQUE (title, semester) holds because titles
  // differ.
  std::vector<std::vector<abdm::Value>> rows;
  for (int i = 0; i < 6; ++i) {
    rows.push_back({abdm::Value::String("Bulk Course " + std::to_string(i)),
                    abdm::Value::Integer(2 + i % 3)});
  }
  auto result = machine_->ExecuteBatch(
      "STORE course (title = ?, semester = 'Fall87', credits = ?)", rows);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->info, "stored 6 record(s)");
  for (int i = 0; i < 6; ++i) {
    auto check = Kernel("RETRIEVE ((FILE = course) and (title = 'Bulk Course " +
                        std::to_string(i) + "')) (semester, credits)");
    ASSERT_EQ(check.records.size(), 1u) << "row " << i;
    EXPECT_EQ(check.records[0].GetOrNull("semester").AsString(), "Fall87");
    EXPECT_EQ(check.records[0].GetOrNull("credits").AsInteger(), 2 + i % 3);
  }
  // The last stored record is the current of the run-unit, as if the
  // rows had been STOREd one by one.
  ASSERT_TRUE(machine_->cit().run_unit().has_value());
  EXPECT_EQ(machine_->cit().run_unit()->record_type, "course");
  auto last = Kernel(
      "RETRIEVE ((FILE = course) and (title = 'Bulk Course 5')) (course)");
  ASSERT_EQ(last.records.size(), 1u);
  EXPECT_EQ(machine_->cit().run_unit()->dbkey,
            last.records[0].GetOrNull("course").AsString());
}

TEST_F(DmlUniversityTest, BatchStoreRejectsHostileShapes) {
  const std::vector<std::vector<abdm::Value>> one_wide = {
      {abdm::Value::String("T"), abdm::Value::String("S"),
       abdm::Value::Integer(1)}};
  // Zero rows, arity mismatch, and unparameterized templates all fail.
  EXPECT_FALSE(machine_
                   ->ExecuteBatch(
                       "STORE course (title = ?, semester = ?, credits = ?)",
                       {})
                   .ok());
  EXPECT_FALSE(machine_
                   ->ExecuteBatch(
                       "STORE course (title = ?, semester = ?, credits = ?)",
                       {{abdm::Value::String("only-one")}})
                   .ok());
  EXPECT_FALSE(machine_->ExecuteBatch("STORE course", one_wide).ok());
  // Direct execution of a parameterized STORE points at the batch
  // interface instead of storing a half-bound UWA.
  EXPECT_FALSE(
      machine_->ExecuteText("STORE course (title = ?, semester = ?)").ok());
}

TEST_F(DmlUniversityTest, BatchStoreDuplicateAgainstKernelRejected) {
  // course_1 already carries (Advanced Database, Fall86): the batch's
  // per-record duplicate probe sees the kernel and aborts the chunk.
  const std::vector<std::vector<abdm::Value>> dup = {
      {abdm::Value::String("Advanced Database"),
       abdm::Value::String("Fall86")}};
  Status status =
      machine_
          ->ExecuteBatch("STORE course (title = ?, semester = ?)", dup)
          .status();
  EXPECT_EQ(status.code(), StatusCode::kConstraintViolation);
}

TEST_F(DmlUniversityTest, BatchStoreRepeatingAUniquePairIsRejectedWhole) {
  // Two rows of one batch repeat (title, semester): the second violates
  // DUPLICATES ARE NOT ALLOWED exactly as a second one-by-one STORE
  // would, though neither row is in the kernel when the chunk builds.
  const size_t courses = executor_->FileSize("course");
  const std::vector<std::vector<abdm::Value>> twins = {
      {abdm::Value::String("Twin Course"), abdm::Value::String("Spr89")},
      {abdm::Value::String("Twin Course"), abdm::Value::String("Spr89")}};
  Status status =
      machine_
          ->ExecuteBatch("STORE course (title = ?, semester = ?)", twins)
          .status();
  EXPECT_EQ(status.code(), StatusCode::kConstraintViolation);
  EXPECT_EQ(executor_->FileSize("course"), courses);
  EXPECT_TRUE(
      Kernel("RETRIEVE ((FILE = course) and (title = 'Twin Course')) (course)")
          .records.empty());
}

TEST_F(DmlUniversityTest, BatchStoreJudgesNullUniqueItemsLikeSingleStores) {
  // A null unique item drops out of a row's duplicates probe, so a row
  // carrying only a title clashes with an earlier row of that title,
  // while a full pair does not clash with an earlier half-null row.
  const std::vector<std::vector<abdm::Value>> half_last = {
      {abdm::Value::String("Solo Course"), abdm::Value::String("Fall89")},
      {abdm::Value::String("Solo Course"), abdm::Value::Null()}};
  EXPECT_EQ(machine_
                ->ExecuteBatch("STORE course (title = ?, semester = ?)",
                               half_last)
                .status()
                .code(),
            StatusCode::kConstraintViolation);
  const std::vector<std::vector<abdm::Value>> half_first = {
      {abdm::Value::String("Duo Course"), abdm::Value::Null()},
      {abdm::Value::String("Duo Course"), abdm::Value::String("Fall89")}};
  auto stored = machine_->ExecuteBatch(
      "STORE course (title = ?, semester = ?)", half_first);
  ASSERT_TRUE(stored.ok()) << stored.status();
  EXPECT_EQ(stored->info, "stored 2 record(s)");
}

// --- WALK: CODASYL set traversal lowered to fused JOIN plans ---

TEST_F(DmlUniversityTest, WalkFusesSetChainIntoJoins) {
  // dept: department -> faculty, advisor: faculty -> student. Two set
  // levels lower to exactly two RETRIEVE-COMMON requests — not one
  // FIND OWNER per visited record.
  DmlResult walked = Must("WALK dept THEN advisor");
  EXPECT_EQ(walked.info, "walked 2 set(s): 30 record(s)");
  ASSERT_EQ(walked.records.size(), 30u);
  for (const auto& record : walked.records) {
    EXPECT_EQ(record.GetOrNull("FILE").AsString(), "student");
    // The student's set keyword names its advisor; the join absorbed
    // that faculty record, so its key attribute must agree.
    EXPECT_EQ(record.GetOrNull("advisor").AsString(),
              record.GetOrNull("faculty").AsString());
    EXPECT_TRUE(record.Has("frank"));  // absorbed faculty attribute.
  }
  const std::vector<std::string>& requests = machine_->trace();
  ASSERT_EQ(requests.size(), 2u);
  for (const auto& abdl : requests) {
    EXPECT_EQ(abdl.rfind("RETRIEVE-COMMON", 0), 0u) << abdl;
  }
}

TEST_F(DmlUniversityTest, WalkSingleLevelAbsorbsOwnerAttributes) {
  DmlResult walked = Must("WALK dept");
  EXPECT_EQ(walked.info, "walked 1 set(s): 8 record(s)");
  ASSERT_EQ(walked.records.size(), 8u);
  for (const auto& record : walked.records) {
    EXPECT_EQ(record.GetOrNull("FILE").AsString(), "faculty");
    EXPECT_FALSE(record.GetOrNull("dname").is_null());  // from department.
  }
}

TEST_F(DmlUniversityTest, ExplainWalkShowsFusedJoinPlan) {
  DmlResult explained = Must("EXPLAIN WALK dept THEN advisor");
  ASSERT_NE(explained.plan, nullptr);
  const std::string plan = explained.plan->ToString();
  EXPECT_NE(plan.find("SEQUENCE"), std::string::npos) << plan;
  EXPECT_NE(plan.find("JOIN"), std::string::npos) << plan;
}

TEST_F(DmlUniversityTest, WalkSystemSetRejected) {
  Status status = Fails("WALK system_person");
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("SYSTEM-owned"), std::string::npos)
      << status.message();
}

TEST_F(DmlUniversityTest, WalkManyToManyTraversesLinkRecords) {
  // teaching: faculty -> link_1. The link record is a real member-side
  // set occurrence, so WALK joins link records with their owners.
  DmlResult walked = Must("WALK teaching");
  EXPECT_EQ(walked.records.size(), size_t(config_.teaching_links));
  for (const auto& record : walked.records) {
    EXPECT_EQ(record.GetOrNull("FILE").AsString(), "link_1");
  }
}

TEST(DmlWalkValidationTest, WalkOwnerSideSetRejected) {
  // A SET OF function without an inverse stays on the owner side: the
  // member record carries no set keyword, so there is nothing to join.
  auto schema = daplex::ParseFunctionalSchema(
      "TYPE a IS ENTITY kids : SET OF b; END ENTITY;"
      "TYPE b IS ENTITY x : INTEGER; END ENTITY;");
  ASSERT_TRUE(schema.ok()) << schema.status();
  auto mapping = transform::TransformFunctionalToNetwork(*schema);
  ASSERT_TRUE(mapping.ok()) << mapping.status();
  kds::Engine engine;
  kc::EngineExecutor executor(&engine);
  DmlMachine machine(&mapping->schema, &*mapping, &executor);
  auto result = machine.ExecuteText("WALK kids");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("owner-side"), std::string::npos)
      << result.status().message();
}

TEST(DmlWalkValidationTest, WalkWideLevelPrunesUnreachableOwners) {
  // Past kWalkProbeLimit reached keys, the owner side of a WALK level
  // runs as a full-file scan and reachability is enforced by a post-join
  // filter; members of never-reached owners must still be pruned.
  auto schema = daplex::ParseFunctionalSchema(
      "TYPE a IS ENTITY label : STRING(8); END ENTITY;"
      "TYPE b IS ENTITY in_a : a; END ENTITY;"
      "TYPE c IS ENTITY in_b : b; END ENTITY;");
  ASSERT_TRUE(schema.ok()) << schema.status();
  auto mapping = transform::TransformFunctionalToNetwork(*schema);
  ASSERT_TRUE(mapping.ok()) << mapping.status();
  kds::Engine engine;
  kc::EngineExecutor executor(&engine);
  auto descriptor = transform::MapNetworkToAbdm(mapping->schema, &*mapping);
  ASSERT_TRUE(descriptor.ok()) << descriptor.status();
  ASSERT_TRUE(executor.DefineDatabase(*descriptor).ok());

  auto insert = [&](const std::string& file, const std::string& dbkey,
                    const std::string& set_attr, const std::string& owner) {
    abdm::Record r;
    r.Set(std::string(abdm::kFileAttribute), abdm::Value::String(file));
    r.Set(file, abdm::Value::String(dbkey));
    if (!set_attr.empty()) r.Set(set_attr, abdm::Value::String(owner));
    auto resp = executor.Execute(abdl::InsertRequest{{std::move(r)}});
    ASSERT_TRUE(resp.ok()) << resp.status();
  };
  // One a; 80 b records (2 with dangling owners, pruned at level 0);
  // one c per b. 80 reached b keys exceed the per-key probe limit, so
  // the second level's owner side is the full b file.
  insert("a", transform::MakeDbKey("a", 1), "", "");
  constexpr int kB = 80;
  for (int i = 1; i <= kB; ++i) {
    const bool dangling = i == 3 || i == 57;
    insert("b", transform::MakeDbKey("b", i), "in_a",
           dangling ? transform::MakeDbKey("a", 999)
                    : transform::MakeDbKey("a", 1));
  }
  for (int i = 1; i <= kB; ++i) {
    insert("c", transform::MakeDbKey("c", i), "in_b",
           transform::MakeDbKey("b", i));
  }

  DmlMachine machine(&mapping->schema, &*mapping, &executor);
  auto result = machine.ExecuteText("WALK in_a THEN in_b");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->records.size(), size_t(kB - 2));
  for (const abdm::Record& r : result->records) {
    const std::string owner_key = r.GetOrNull("in_b").AsString();
    EXPECT_NE(owner_key, transform::MakeDbKey("b", 3));
    EXPECT_NE(owner_key, transform::MakeDbKey("b", 57));
  }
}

TEST_F(DmlUniversityTest, WalkBrokenChainRejected) {
  // advisor ends at student; dept is owned by department, so the second
  // level cannot continue from the first.
  Status status = Fails("WALK advisor THEN dept");
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("previous level ends at 'student'"),
            std::string::npos)
      << status.message();
}

TEST_F(DmlUniversityTest, WalkUnknownSetIsNotFound) {
  Status status = Fails("WALK nothere");
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace mlds::kms
