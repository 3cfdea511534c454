// Chapter VI fidelity: the exact ABDL request sequences KMS generates for
// each CODASYL-DML statement, asserted against the thesis's translation
// templates in its own notation.

#include <gtest/gtest.h>

#include <memory>

#include "kds/engine.h"
#include "kms/dml_machine.h"
#include "university/university.h"

namespace mlds::kms {
namespace {

class TranslationTemplateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    executor_ = std::make_unique<kc::EngineExecutor>(&engine_);
    university::UniversityConfig config;
    auto db = university::BuildUniversityDatabase(config, executor_.get());
    ASSERT_TRUE(db.ok()) << db.status();
    db_ = std::make_unique<university::UniversityDatabase>(std::move(*db));
    machine_ = std::make_unique<DmlMachine>(&db_->mapping.schema,
                                            &db_->mapping, executor_.get());
  }

  void Must(std::string_view dml) {
    auto result = machine_->ExecuteText(dml);
    ASSERT_TRUE(result.ok()) << dml << ": " << result.status();
  }

  /// The ABDL requests of the most recent statement.
  const std::vector<std::string>& LastAbdl() {
    return machine_->trace();
  }

  kds::Engine engine_;
  std::unique_ptr<kc::EngineExecutor> executor_;
  std::unique_ptr<university::UniversityDatabase> db_;
  std::unique_ptr<DmlMachine> machine_;
};

TEST_F(TranslationTemplateTest, FindAnyTemplate) {
  // Ch. VI.B.1:
  //   RETRIEVE ((FILE = record_type_x) AND (item_1 = value_1) ...)
  //            (all attributes) [by record_type_x]
  Must("MOVE 'Advanced Database' TO title IN course");
  Must("MOVE 'Fall86' TO semester IN course");
  Must("FIND ANY course USING title, semester IN course");
  ASSERT_EQ(LastAbdl().size(), 1u);
  EXPECT_EQ(LastAbdl()[0],
            "RETRIEVE ((FILE = 'course') and (title = 'Advanced Database') "
            "and (semester = 'Fall86')) (all attributes) BY course");
}

TEST_F(TranslationTemplateTest, FindFirstWithinIsaSetTemplate) {
  // Ch. VI.B.4 (ISA set): RETRIEVE ((FILE = record_type_x) AND
  //   (MEMBER-set_type_y = owner dbkey)) (all attributes)
  Must("MOVE 'person_3' TO person IN person");
  Must("FIND ANY person USING person IN person");
  Must("FIND FIRST student WITHIN person_student");
  ASSERT_EQ(LastAbdl().size(), 1u);
  EXPECT_EQ(LastAbdl()[0],
            "RETRIEVE ((FILE = 'student') and (person_student = "
            "'person_3')) (all attributes)");
}

TEST_F(TranslationTemplateTest, FindOwnerTemplate) {
  // Ch. VI.B.5: RETRIEVE ((FILE = CIT.set.owner) AND
  //   (CIT.set.owner = CIT.set.dbkey)) (all attributes)
  Must("MOVE 'student_1' TO student IN student");
  Must("FIND ANY student USING student IN student");
  const std::string advisor_key =
      machine_->cit().CurrentOfSet("advisor")->owner_dbkey;
  Must("FIND OWNER WITHIN advisor");
  ASSERT_EQ(LastAbdl().size(), 1u);
  EXPECT_EQ(LastAbdl()[0], "RETRIEVE ((FILE = 'faculty') and (faculty = '" +
                               advisor_key + "')) (all attributes)");
}

TEST_F(TranslationTemplateTest, StoreTemplate) {
  // Ch. VI.G: INSERT (<FILE, record_type_x>, <record_type_x, key>,
  // <items...>). The kernel assigns the key and determines the status of
  // duplicates under the file's lock, so the request leaves the key NULL
  // and names its DUPLICATES ARE NOT ALLOWED items as its guard.
  Must("MOVE 'Template Course' TO title IN course");
  Must("MOVE 'Tmpl88' TO semester IN course");
  Must("MOVE 3 TO credits IN course");
  Must("STORE course");
  ASSERT_EQ(LastAbdl().size(), 1u);
  EXPECT_TRUE(
      LastAbdl()[0].starts_with("INSERT (<FILE, 'course'>, <course, NULL>"))
      << LastAbdl()[0];
  EXPECT_NE(LastAbdl()[0].find("<title, 'Template Course'>"),
            std::string::npos);
}

TEST_F(TranslationTemplateTest, ModifyTemplate) {
  // Ch. VI.F: UPDATE ((FILE = record) AND (record = run-unit dbkey))
  //   (data_item_i = user_value_i), repeated per field.
  Must("MOVE 'course_2' TO course IN course");
  Must("FIND ANY course USING course IN course");
  Must("MOVE 9 TO credits IN course");
  Must("MODIFY credits IN course");
  ASSERT_EQ(LastAbdl().size(), 1u);
  EXPECT_EQ(LastAbdl()[0],
            "UPDATE ((FILE = 'course') and (course = 'course_2')) "
            "(credits = 9)");
}

TEST_F(TranslationTemplateTest, DisconnectTemplate) {
  // Ch. VI.E (member side): UPDATE ((FILE = record) AND (record = run-unit
  //   dbkey) AND (set = owner dbkey)) (set = NULL).
  Must("MOVE 'student_2' TO student IN student");
  Must("FIND ANY student USING student IN student");
  const std::string owner =
      machine_->cit().CurrentOfSet("advisor")->owner_dbkey;
  Must("DISCONNECT student FROM advisor");
  ASSERT_GE(LastAbdl().size(), 1u);
  EXPECT_EQ(LastAbdl()[0],
            "UPDATE ((FILE = 'student') and (student = 'student_2') and "
            "(advisor = '" +
                owner + "')) (advisor = NULL)");
}

TEST_F(TranslationTemplateTest, EraseTemplate) {
  // Ch. VI.H.1: constraint-check RETRIEVEs (one per owned/referencing
  // set), then DELETE ((FILE = record) AND (record = run-unit dbkey)).
  Must("MOVE 'Erase Target' TO title IN course");
  Must("MOVE 'Er88' TO semester IN course");
  Must("MOVE 1 TO credits IN course");
  Must("STORE course");
  const std::string key = machine_->cit().run_unit()->dbkey;
  Must("ERASE course");
  const auto& abdl = LastAbdl();
  ASSERT_GE(abdl.size(), 2u);
  // course owns taught_by (member link_1): one membership probe.
  EXPECT_EQ(abdl[0], "RETRIEVE ((FILE = 'link_1') and (taught_by = '" + key +
                         "')) (taught_by)");
  EXPECT_EQ(abdl.back(),
            "DELETE ((FILE = 'course') and (course = '" + key + "'))");
}

TEST_F(TranslationTemplateTest, GetIssuesNoAbdl) {
  // Ch. VI.C: GET statements are served through KC from the buffers, not
  // mapped into ABDL retrieves.
  Must("MOVE 'course_1' TO course IN course");
  Must("FIND ANY course USING course IN course");
  Must("GET");
  EXPECT_TRUE(LastAbdl().empty());
}

TEST_F(TranslationTemplateTest, FindCurrentIssuesOneRefreshAtMost) {
  // Ch. VI.B.2: "the only function of this statement is to update CIT" —
  // the single request fetches the current member's record for the cache.
  Must("MOVE 'student_1' TO student IN student");
  Must("FIND ANY student USING student IN student");
  Must("FIND CURRENT student WITHIN advisor");
  EXPECT_EQ(LastAbdl().size(), 1u);
}

// E4 (EXPERIMENTS.md), the one-to-many CODASYL-DML -> ABDL correspondence
// of Ch. III.A: ABDL requests per DML program, counted from the KMS trace.
// Programs run in table order on one session; STORE + ERASE and the
// CONNECT/DISCONNECT/CONNECT cycle leave the database as they found it.
struct ProgramCount {
  const char* name;
  const char* program;
  size_t statements;
  size_t abdl_requests;
};

constexpr ProgramCount kProgramCounts[] = {
    {"MOVE", "MOVE 'x' TO major IN student\n", 1, 0},
    {"MOVE; FIND ANY",
     "MOVE 'Computer Science' TO major IN student\n"
     "FIND ANY student USING major IN student\n",
     2, 1},
    {"FIND FIRST within system set",
     "FIND FIRST person WITHIN system_person\n", 1, 1},
    {"FIND FIRST within function set",
     "MOVE 'faculty_1' TO faculty IN faculty\n"
     "FIND ANY faculty USING faculty IN faculty\n"
     "FIND FIRST student WITHIN advisor\n",
     3, 2},
    {"FIND OWNER chain",
     "MOVE 'student_1' TO student IN student\n"
     "FIND ANY student USING student IN student\n"
     "FIND OWNER WITHIN advisor\n",
     3, 2},
    {"GET chain",
     "MOVE 'student_1' TO student IN student\n"
     "FIND ANY student USING student IN student\n"
     "GET major, advisor IN student\n",
     3, 1},
    // STORE: one guarded INSERT; ERASE: one membership probe, DELETE.
    {"STORE + ERASE",
     "MOVE 'Bench Course' TO title IN course\n"
     "MOVE 'BenchSem' TO semester IN course\n"
     "MOVE 1 TO credits IN course\n"
     "STORE course\n"
     "ERASE course\n",
     5, 3},
    {"MODIFY item",
     "MOVE 'course_2' TO course IN course\n"
     "FIND ANY course USING course IN course\n"
     "MOVE 4 TO credits IN course\n"
     "MODIFY credits IN course\n",
     4, 2},
    {"CONNECT/DISCONNECT/CONNECT",
     "MOVE 'student_4' TO student IN student\n"
     "FIND ANY student USING student IN student\n"
     "CONNECT student TO advisor\n"
     "DISCONNECT student FROM advisor\n"
     "CONNECT student TO advisor\n",
     5, 7},
};

TEST_F(TranslationTemplateTest, AbdlRequestsPerDmlProgram) {
  for (const ProgramCount& row : kProgramCounts) {
    const SessionStats before = machine_->statistics();
    auto results = machine_->RunProgram(row.program);
    ASSERT_TRUE(results.ok()) << row.name << ": " << results.status();
    const SessionStats& after = machine_->statistics();
    EXPECT_EQ(after.total_statements - before.total_statements,
              row.statements)
        << row.name;
    EXPECT_EQ(after.total_requests - before.total_requests, row.abdl_requests)
        << row.name;
  }
}

// E6 (EXPERIMENTS.md), cross-model overhead: the same programs through
// the functional-aware translation (AB(functional)) and through the plain
// network translation of the same transformed schema (as a native
// AB(network) database). The counts coincide except on subtype STORE,
// where the functional target pays one overlap-table sibling probe.
TEST_F(TranslationTemplateTest, CrossModelRequestCounts) {
  DmlMachine native(&db_->mapping.schema, nullptr, executor_.get());
  struct CrossModelCount {
    const char* name;
    const char* program;
    size_t functional;
    size_t native;
  };
  constexpr CrossModelCount kPrograms[] = {
      {"FIND ANY + GET",
       "MOVE 'Computer Science' TO major IN student\n"
       "FIND ANY student USING major IN student\n"
       "GET student, major IN student\n",
       1, 1},
      {"many-to-many navigate",
       "MOVE 'faculty_1' TO faculty IN faculty\n"
       "FIND ANY faculty USING faculty IN faculty\n"
       "FIND FIRST link_1 WITHIN teaching\n"
       "FIND OWNER WITHIN teaching\n",
       3, 3},
      {"STORE + ERASE course",
       "MOVE 'Bench Course' TO title IN course\n"
       "MOVE 'BenchSem' TO semester IN course\n"
       "MOVE 2 TO credits IN course\n"
       "STORE course\n"
       "ERASE course\n",
       3, 3},
      {"STORE + ERASE subtype",
       "MOVE 'employee_16' TO employee IN employee\n"
       "FIND ANY employee USING employee IN employee\n"
       "MOVE 15 TO hours IN support_staff\n"
       "STORE support_staff\n"
       "ERASE support_staff\n",
       4, 3},
  };
  auto count = [](DmlMachine& machine, const char* program) -> size_t {
    const size_t before = machine.statistics().total_requests;
    auto results = machine.RunProgram(program);
    EXPECT_TRUE(results.ok()) << program << results.status();
    return machine.statistics().total_requests - before;
  };
  for (const CrossModelCount& row : kPrograms) {
    EXPECT_EQ(count(*machine_, row.program), row.functional) << row.name;
    EXPECT_EQ(count(native, row.program), row.native) << row.name;
  }
}

}  // namespace
}  // namespace mlds::kms
