// Tests for the Daplex (functional) language interface: FOR EACH queries
// over the AB(functional) University database — and the multi-lingual
// property itself: CODASYL-DML writes observed through Daplex reads.

#include "kms/daplex_machine.h"

#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <vector>

#include "daplex/query.h"
#include "kc/executor.h"
#include "mlds/mlds.h"
#include "university/university.h"

namespace mlds::kms {
namespace {

// --- Parser ---

TEST(DaplexQueryParserTest, ParsesForEachWithConditionsAndPrint) {
  auto q = daplex::ParseForEach(
      "FOR EACH student SUCH THAT major = 'CS' AND age > 20 "
      "PRINT pname, major");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->type, "student");
  ASSERT_EQ(q->such_that.size(), 2u);
  EXPECT_EQ(q->such_that[0].function, "major");
  EXPECT_EQ(q->such_that[1].op, abdm::RelOp::kGt);
  ASSERT_EQ(q->print.size(), 2u);
  EXPECT_FALSE(q->print_all);
}

TEST(DaplexQueryParserTest, ParsesPrintAll) {
  auto q = daplex::ParseForEach("FOR EACH course PRINT ALL");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_TRUE(q->print_all);
  EXPECT_TRUE(q->such_that.empty());
}

TEST(DaplexQueryParserTest, ParsesAggregates) {
  auto q = daplex::ParseForEach(
      "FOR EACH employee PRINT COUNT(employee), AVG(salary)");
  ASSERT_TRUE(q.ok()) << q.status();
  ASSERT_EQ(q->print.size(), 2u);
  EXPECT_EQ(q->print[0].aggregate, daplex::DaplexAggregate::kCount);
  EXPECT_EQ(q->print[1].aggregate, daplex::DaplexAggregate::kAvg);
}

TEST(DaplexQueryParserTest, RejectsMalformedQueries) {
  EXPECT_FALSE(daplex::ParseForEach("FOR student PRINT x").ok());
  EXPECT_FALSE(daplex::ParseForEach("FOR EACH student SUCH major = 1 "
                                    "PRINT x").ok());
  EXPECT_FALSE(daplex::ParseForEach("FOR EACH student PRINT").ok());
  EXPECT_FALSE(daplex::ParseForEach("FOR EACH student PRINT x extra junk")
                   .ok());
}

// --- Execution over the University database ---

class DaplexMachineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(system_
                    .LoadFunctionalDatabase(
                        university::kUniversityDaplexDdl)
                    .ok());
    university::UniversityConfig config;
    auto load = university::BuildUniversityDatabaseOnLoaded(
        config, system_.executor());
    ASSERT_TRUE(load.ok()) << load.status();
    auto session = system_.OpenDaplexSession("university");
    ASSERT_TRUE(session.ok()) << session.status();
    machine_ = *session;
  }

  std::vector<abdm::Record> Must(std::string_view query) {
    auto result = machine_->ExecuteText(query);
    EXPECT_TRUE(result.ok()) << query << ": " << result.status();
    return result.ok() ? std::move(*result) : std::vector<abdm::Record>{};
  }

  MldsSystem system_;
  kms::DaplexMachine* machine_ = nullptr;
};

TEST_F(DaplexMachineTest, ForEachWithScalarCondition) {
  auto rows = Must(
      "FOR EACH student SUCH THAT major = 'Computer Science' PRINT major");
  ASSERT_FALSE(rows.empty());
  for (const auto& r : rows) {
    EXPECT_EQ(r.GetOrNull("major").AsString(), "Computer Science");
  }
}

// The translation cache keys a statement by its tokens, so two
// double-quoted literals that differ only in inner whitespace never share
// an entry: the first statement's empty answer must not be replayed for
// the second.
TEST_F(DaplexMachineTest, CacheKeepsWhitespaceInsideDoubleQuotedLiterals) {
  EXPECT_TRUE(Must("FOR EACH student SUCH THAT major = \"Computer  Science\" "
                   "PRINT major")
                  .empty());
  auto rows = Must(
      "FOR EACH student SUCH THAT major = \"Computer Science\" PRINT major");
  ASSERT_FALSE(rows.empty());
  for (const auto& r : rows) {
    EXPECT_EQ(r.GetOrNull("major").AsString(), "Computer Science");
  }
}

TEST_F(DaplexMachineTest, ForEachAllOfType) {
  auto rows = Must("FOR EACH department PRINT dname");
  EXPECT_EQ(rows.size(), 4u);
}

TEST_F(DaplexMachineTest, InheritedFunctionInPrintList) {
  // pname is declared on person; students inherit it over ISA.
  auto rows = Must("FOR EACH student SUCH THAT student = 'student_1' "
                   "PRINT pname, major");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_TRUE(
      rows[0].GetOrNull("pname").AsString().starts_with("person_name_"));
}

TEST_F(DaplexMachineTest, InheritedFunctionInCondition) {
  // Filter students by the inherited person.age function.
  auto rows = Must("FOR EACH student SUCH THAT age >= 18 PRINT pname, age");
  ASSERT_FALSE(rows.empty());
  for (const auto& r : rows) {
    EXPECT_GE(r.GetOrNull("age").AsInteger(), 18);
  }
}

TEST_F(DaplexMachineTest, EntityValuedFunctionPrintsTargetKey) {
  auto rows =
      Must("FOR EACH student SUCH THAT student = 'student_2' PRINT advisor");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_TRUE(
      rows[0].GetOrNull("advisor").AsString().starts_with("faculty_"));
}

TEST_F(DaplexMachineTest, ScalarMultiValuedCollapsesDuplicatedRecords) {
  // employee_3 has two kernel records differing in 'degrees'; the Daplex
  // view is one entity whose set-valued function carries both values.
  auto rows = Must(
      "FOR EACH employee SUCH THAT employee = 'employee_3' PRINT degrees");
  ASSERT_EQ(rows.size(), 1u);
  const std::string degrees = rows[0].GetOrNull("degrees").AsString();
  EXPECT_NE(degrees.find(','), std::string::npos) << degrees;
}

TEST_F(DaplexMachineTest, ManyToManyFunctionListsRelatedEntities) {
  auto rows = Must(
      "FOR EACH faculty SUCH THAT faculty = 'faculty_1' PRINT teaching");
  ASSERT_EQ(rows.size(), 1u);
  const abdm::Value teaching = rows[0].GetOrNull("teaching");
  if (!teaching.is_null()) {
    EXPECT_NE(teaching.AsString().find("course_"), std::string::npos);
  }
}

TEST_F(DaplexMachineTest, ManyToManyFunctionInCondition) {
  // A SUCH THAT comparison on a multi-valued function requires the link
  // absorption before filtering: faculty teaching a specific course.
  auto links = machine_->ExecuteText(
      "FOR EACH faculty SUCH THAT faculty = 'faculty_1' PRINT teaching");
  ASSERT_TRUE(links.ok());
  const abdm::Value teaching = (*links)[0].GetOrNull("teaching");
  if (teaching.is_null()) {
    GTEST_SKIP() << "faculty_1 teaches nothing under this seed";
  }
  // Pick the first course key out of the joined list.
  std::string course = teaching.AsString().substr(0, teaching.AsString().find(','));
  auto rows = Must("FOR EACH faculty SUCH THAT teaching = '" + course +
                   "' PRINT faculty");
  ASSERT_FALSE(rows.empty());
  bool found = false;
  for (const auto& r : rows) {
    if (r.GetOrNull("faculty").AsString() == "faculty_1") found = true;
  }
  EXPECT_TRUE(found);
}

TEST_F(DaplexMachineTest, AggregateQuery) {
  auto rows = Must("FOR EACH course PRINT COUNT(course), AVG(credits)");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].GetOrNull("COUNT(course)").AsInteger(), 12);
  const double avg = rows[0].GetOrNull("AVG(credits)").AsFloat();
  EXPECT_GE(avg, 1.0);
  EXPECT_LE(avg, 5.0);
}

TEST_F(DaplexMachineTest, UnknownFunctionIsNotFound) {
  auto result = machine_->ExecuteText("FOR EACH student PRINT nothere");
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsNotFound());
}

TEST_F(DaplexMachineTest, UnknownTypeIsNotFound) {
  auto result = machine_->ExecuteText("FOR EACH klingon PRINT x");
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsNotFound());
}

TEST_F(DaplexMachineTest, TraceShowsIssuedAbdl) {
  Must("FOR EACH student SUCH THAT major = 'History' PRINT major");
  ASSERT_FALSE(machine_->trace().empty());
  EXPECT_NE(machine_->trace()[0].find("RETRIEVE"), std::string::npos);
  EXPECT_NE(machine_->trace()[0].find("History"), std::string::npos);
}

// E7 (EXPERIMENTS.md): ABDL requests per FOR EACH query shape, read from
// the machine's per-query trace — what inheritance joins, many-to-many
// traversal and aggregation each add over a plain selection.
TEST_F(DaplexMachineTest, AbdlRequestsPerQueryShape) {
  struct ShapeCount {
    const char* query;
    size_t abdl_requests;
  };
  constexpr ShapeCount kShapes[] = {
      {"FOR EACH student SUCH THAT student = 'student_7' PRINT major", 1},
      {"FOR EACH student SUCH THAT major = 'Computer Science' PRINT major",
       1},
      // An inherited PRINT adds one ancestor fetch.
      {"FOR EACH student SUCH THAT major = 'Computer Science' "
       "PRINT pname, major",
       2},
      // An inherited condition cannot push down: subtype file + ancestors.
      {"FOR EACH student SUCH THAT age >= 40 PRINT pname", 2},
      {"FOR EACH faculty SUCH THAT faculty = 'faculty_3' PRINT teaching", 2},
      {"FOR EACH course PRINT COUNT(course), AVG(credits)", 1},
      {"FOR EACH faculty PRINT AVG(salary)", 2},
  };
  for (const ShapeCount& shape : kShapes) {
    Must(shape.query);
    EXPECT_EQ(machine_->trace().size(), shape.abdl_requests) << shape.query;
  }
}

TEST_F(DaplexMachineTest, MultiLingualAccessSeesCodasylWrites) {
  // The multi-lingual property: a CODASYL-DML session stores a student;
  // a Daplex session over the same database sees the new entity.
  auto dml = system_.OpenCodasylSession("university");
  ASSERT_TRUE(dml.ok());
  auto run = (*dml)->RunProgram(
      "MOVE 'person_38' TO person IN person\n"
      "FIND ANY person USING person IN person\n"
      "MOVE 'Multi-Lingual Studies' TO major IN student\n"
      "STORE student\n");
  ASSERT_TRUE(run.ok()) << run.status();
  auto rows = Must(
      "FOR EACH student SUCH THAT major = 'Multi-Lingual Studies' "
      "PRINT pname, major");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].GetOrNull("pname").AsString(), "person_name_38");
}

TEST_F(DaplexMachineTest, PrintAllIncludesInheritedValues) {
  auto rows =
      Must("FOR EACH faculty SUCH THAT faculty = 'faculty_2' PRINT ALL");
  ASSERT_EQ(rows.size(), 1u);
  // Own scalar, inherited scalar, and member-side function key all show.
  EXPECT_TRUE(rows[0].Has("frank"));
  EXPECT_TRUE(rows[0].Has("ename"));
  EXPECT_TRUE(rows[0].Has("dept"));
}


// --- Restricted ISA joins ---

/// Forwards every request to a real kernel and totals the records the
/// responses report as examined.
class ExaminingExecutor : public kc::KernelExecutor {
 public:
  explicit ExaminingExecutor(kc::KernelExecutor* inner) : inner_(inner) {}

  Status DefineDatabase(const abdm::DatabaseDescriptor& db) override {
    return inner_->DefineDatabase(db);
  }
  bool HasFile(std::string_view file) const override {
    return inner_->HasFile(file);
  }
  Result<kds::Response> Execute(const abdl::Request& request) override {
    auto response = inner_->Execute(request);
    if (response.ok()) examined += response->io.records_examined;
    return response;
  }
  Result<kds::Response> ExecuteTransaction(
      const abdl::Transaction& txn) override {
    return inner_->ExecuteTransaction(txn);
  }
  Status CreateIndex(std::string_view file, std::string_view attr) override {
    return inner_->CreateIndex(file, attr);
  }
  kds::IntegrityReport VerifyIntegrity() const override {
    return inner_->VerifyIntegrity();
  }
  kds::KernelCounters Counters() const override { return inner_->Counters(); }
  size_t FileSize(std::string_view file) const override {
    return inner_->FileSize(file);
  }

  uint64_t examined = 0;

 private:
  kc::KernelExecutor* inner_;
};

/// FOR EACH student SUCH THAT major = 'Physics' PRINT pname, age, advisor
/// over the 120-person University instance, captured before the fused
/// ISA join was restricted to the qualifying students.
constexpr const char* kPhysicsStudents[] = {
    "(<student, 'student_10'>, <pname, 'person_name_10'>, <age, 47>, "
    "<advisor, 'faculty_6'>)",
    "(<student, 'student_13'>, <pname, 'person_name_13'>, <age, 23>, "
    "<advisor, 'faculty_5'>)",
    "(<student, 'student_19'>, <pname, 'person_name_19'>, <age, 21>, "
    "<advisor, 'faculty_1'>)",
    "(<student, 'student_20'>, <pname, 'person_name_20'>, <age, 22>, "
    "<advisor, 'faculty_6'>)",
    "(<student, 'student_24'>, <pname, 'person_name_24'>, <age, 60>, "
    "<advisor, 'faculty_6'>)",
    "(<student, 'student_29'>, <pname, 'person_name_29'>, <age, 33>, "
    "<advisor, 'faculty_8'>)",
    "(<student, 'student_34'>, <pname, 'person_name_34'>, <age, 30>, "
    "<advisor, 'faculty_8'>)",
    "(<student, 'student_35'>, <pname, 'person_name_35'>, <age, 48>, "
    "<advisor, 'faculty_7'>)",
    "(<student, 'student_37'>, <pname, 'person_name_37'>, <age, 70>, "
    "<advisor, 'faculty_1'>)",
    "(<student, 'student_4'>, <pname, 'person_name_4'>, <age, 40>, "
    "<advisor, 'faculty_7'>)",
    "(<student, 'student_47'>, <pname, 'person_name_47'>, <age, 64>, "
    "<advisor, 'faculty_8'>)",
    "(<student, 'student_48'>, <pname, 'person_name_48'>, <age, 22>, "
    "<advisor, 'faculty_1'>)",
    "(<student, 'student_56'>, <pname, 'person_name_56'>, <age, 24>, "
    "<advisor, 'faculty_7'>)",
    "(<student, 'student_61'>, <pname, 'person_name_61'>, <age, 70>, "
    "<advisor, 'faculty_7'>)",
    "(<student, 'student_67'>, <pname, 'person_name_67'>, <age, 50>, "
    "<advisor, 'faculty_4'>)",
    "(<student, 'student_69'>, <pname, 'person_name_69'>, <age, 20>, "
    "<advisor, 'faculty_1'>)",
    "(<student, 'student_8'>, <pname, 'person_name_8'>, <age, 18>, "
    "<advisor, 'faculty_5'>)",
};

class DaplexIsaJoinTest : public ::testing::TestWithParam<int> {};

TEST_P(DaplexIsaJoinTest, SubtypeSideOfTheFusedJoinIsTheBaseQuery) {
  // 90 students over six majors: 'Physics' selects more students than
  // kIsaFusionThreshold, so the inherited pname/age arrive through one
  // fused RETRIEVE-COMMON of person with student.
  MldsSystem::Options options;
  options.backends = GetParam();
  MldsSystem system(options);
  ExaminingExecutor kernel(system.executor());
  university::UniversityConfig config;
  config.persons = 120;
  config.students = 90;
  auto db = university::BuildUniversityDatabase(config, &kernel);
  ASSERT_TRUE(db.ok()) << db.status();
  DaplexMachine machine(&db->functional, &db->mapping.schema, &db->mapping,
                        &kernel);

  kernel.examined = 0;
  auto rows = machine.ExecuteText(
      "FOR EACH student SUCH THAT major = 'Physics' PRINT pname, age, "
      "advisor");
  ASSERT_TRUE(rows.ok()) << rows.status();
  std::vector<std::string> rendered;
  for (const abdm::Record& r : *rows) rendered.push_back(r.ToString());
  EXPECT_EQ(rendered, std::vector<std::string>(std::begin(kPhysicsStudents),
                                               std::end(kPhysicsStudents)));
  // The fused join ran, its subtype side the base query, and the kernel
  // examined fewer records than the two files hold together.
  ASSERT_FALSE(machine.trace().empty());
  const std::string& join = machine.trace().back();
  EXPECT_TRUE(join.starts_with("RETRIEVE-COMMON")) << join;
  EXPECT_NE(join.find("(major = 'Physics')"), std::string::npos) << join;
  EXPECT_LT(kernel.examined,
            kernel.FileSize("person") + kernel.FileSize("student"));
}

INSTANTIATE_TEST_SUITE_P(Backends, DaplexIsaJoinTest,
                         ::testing::Values(0, 1, 4));

}  // namespace
}  // namespace mlds::kms
