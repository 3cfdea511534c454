// Tests for the Daplex (functional) language interface: FOR EACH queries
// over the AB(functional) University database — and the multi-lingual
// property itself: CODASYL-DML writes observed through Daplex reads.

#include "kms/daplex_machine.h"

#include <gtest/gtest.h>

#include <iterator>
#include <memory>
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
    if (response.ok()) {
      examined += response->io.records_examined;
      per_request.push_back(response->io.records_examined);
    }
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
  /// records_examined of each request, in issue order.
  std::vector<uint64_t> per_request;

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

TEST_P(DaplexIsaJoinTest, SupertypeIsProbedByTheQualifyingKeys) {
  // 90 students over six majors: 'Physics' selects 17 of them, and their
  // inherited pname/age arrive through one RETRIEVE of person by those
  // 17 keys, which the kernel probes as one key set.
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

  kernel.per_request.clear();
  auto rows = machine.ExecuteText(
      "FOR EACH student SUCH THAT major = 'Physics' PRINT pname, age, "
      "advisor");
  ASSERT_TRUE(rows.ok()) << rows.status();
  std::vector<std::string> rendered;
  for (const abdm::Record& r : *rows) rendered.push_back(r.ToString());
  EXPECT_EQ(rendered, std::vector<std::string>(std::begin(kPhysicsStudents),
                                               std::end(kPhysicsStudents)));
  // The base query, then one key-probed fetch of the qualifying students'
  // persons: one disjunct per student, and the kernel examines at most
  // one person record per qualifying student beyond the base query.
  ASSERT_EQ(machine.trace().size(), 2u);
  const std::string& fetch = machine.trace().back();
  EXPECT_TRUE(fetch.starts_with("RETRIEVE (((FILE = 'person') and (person = "))
      << fetch;
  size_t disjuncts = 1;
  for (size_t at = fetch.find(" or "); at != std::string::npos;
       at = fetch.find(" or ", at + 1)) {
    ++disjuncts;
  }
  EXPECT_EQ(disjuncts, rendered.size()) << fetch;
  ASSERT_EQ(kernel.per_request.size(), 2u);
  EXPECT_LE(kernel.per_request[1], rendered.size());
  EXPECT_LE(kernel.examined, kernel.per_request[0] + rendered.size());
}

INSTANTIATE_TEST_SUITE_P(Backends, DaplexIsaJoinTest,
                         ::testing::Values(0, 1, 4));

// --- Inheritance goldens over custom ISA shapes ---

/// A three-level chain: c ISA b ISA a.
constexpr const char* kChainDdl = R"(
SCHEMA chain;
TYPE a IS ENTITY
  an : STRING(10);
  av : INTEGER;
END ENTITY;
TYPE b IS SUBTYPE OF a
  bn : STRING(10);
  bv : INTEGER;
END SUBTYPE;
TYPE c IS SUBTYPE OF b
  cn : STRING(10);
  cv : INTEGER;
END SUBTYPE;
)";

/// Two supertypes on one level and a second level above one of them:
/// c ISA a, b and b ISA d.
constexpr const char* kTwoSupertypesDdl = R"(
SCHEMA branches;
TYPE a IS ENTITY
  an : STRING(10);
END ENTITY;
TYPE d IS ENTITY
  dn : STRING(10);
END ENTITY;
TYPE b IS SUBTYPE OF d
  bn : STRING(10);
END SUBTYPE;
TYPE c IS SUBTYPE OF a, b
  cn : STRING(10);
END SUBTYPE;
)";

class DaplexInheritanceTest : public ::testing::TestWithParam<int> {
 protected:
  DaplexMachine* Open(const char* ddl, const char* db) {
    MldsSystem::Options options;
    options.backends = GetParam();
    system_ = std::make_unique<MldsSystem>(options);
    EXPECT_TRUE(system_->LoadFunctionalDatabase(ddl).ok());
    auto session = system_->OpenDaplexSession(db);
    EXPECT_TRUE(session.ok()) << session.status();
    return session.ok() ? *session : nullptr;
  }

  /// Runs one CREATE and returns the new entity's database key.
  std::string Create(DaplexMachine* machine, const std::string& text) {
    auto outcome = machine->ExecuteStatement(text);
    EXPECT_TRUE(outcome.ok()) << text << ": " << outcome.status();
    if (!outcome.ok()) return "";
    return outcome->info.substr(std::string("created ").size());
  }

  std::vector<std::string> Rows(DaplexMachine* machine,
                                std::string_view query) {
    auto rows = machine->ExecuteText(query);
    EXPECT_TRUE(rows.ok()) << query << ": " << rows.status();
    std::vector<std::string> rendered;
    if (rows.ok()) {
      for (const abdm::Record& r : *rows) rendered.push_back(r.ToString());
    }
    return rendered;
  }

  /// Loads the chain: 12 a, 10 b and 10 c entities, each subtype entity
  /// linked to a supertype entity out of key order.
  DaplexMachine* LoadChain() {
    DaplexMachine* machine = Open(kChainDdl, "chain");
    if (machine == nullptr) return nullptr;
    std::vector<std::string> as, bs;
    for (int i = 0; i < 12; ++i) {
      as.push_back(Create(machine, "CREATE a (an = 'A" + std::to_string(i) +
                                       "', av = " + std::to_string(i) + ")"));
    }
    for (int j = 0; j < 10; ++j) {
      bs.push_back(Create(machine, "CREATE b (a = '" + as[(5 * j + 3) % 12] +
                                       "', bn = 'B" + std::to_string(j) +
                                       "', bv = " + std::to_string(j) + ")"));
    }
    for (int i = 0; i < 10; ++i) {
      Create(machine, "CREATE c (b = '" + bs[(3 * i + 1) % 10] + "', cn = 'C" +
                          std::to_string(i) + "', cv = " + std::to_string(i) +
                          ")");
    }
    return machine;
  }

  std::unique_ptr<MldsSystem> system_;
};

/// The chain's rows, captured before ISA levels were fetched by key (key
/// sets of eight or more then went through a whole-file join): qualifying
/// key counts 0, 1, 7, 8, 9 and every entity, a residual on a function
/// two levels up, PRINT ALL, and a one-level query.
struct InheritanceGolden {
  const char* query;
  std::vector<const char*> rows;
};

const InheritanceGolden kChainGoldens[] = {
    {"FOR EACH c SUCH THAT cv < 0 PRINT cn, bn, an, av",
     {}},
    {"FOR EACH c SUCH THAT cv < 1 PRINT cn, bn, an, av",
     {
         "(<c, 'c_1'>, <cn, 'C0'>, <bn, 'B1'>, <an, 'A8'>, <av, 8>)",
     }},
    {"FOR EACH c SUCH THAT cv < 7 PRINT cn, bn, an, av",
     {
         "(<c, 'c_1'>, <cn, 'C0'>, <bn, 'B1'>, <an, 'A8'>, <av, 8>)",
         "(<c, 'c_2'>, <cn, 'C1'>, <bn, 'B4'>, <an, 'A11'>, <av, 11>)",
         "(<c, 'c_3'>, <cn, 'C2'>, <bn, 'B7'>, <an, 'A2'>, <av, 2>)",
         "(<c, 'c_4'>, <cn, 'C3'>, <bn, 'B0'>, <an, 'A3'>, <av, 3>)",
         "(<c, 'c_5'>, <cn, 'C4'>, <bn, 'B3'>, <an, 'A6'>, <av, 6>)",
         "(<c, 'c_6'>, <cn, 'C5'>, <bn, 'B6'>, <an, 'A9'>, <av, 9>)",
         "(<c, 'c_7'>, <cn, 'C6'>, <bn, 'B9'>, <an, 'A0'>, <av, 0>)",
     }},
    {"FOR EACH c SUCH THAT cv < 8 PRINT cn, bn, an, av",
     {
         "(<c, 'c_1'>, <cn, 'C0'>, <bn, 'B1'>, <an, 'A8'>, <av, 8>)",
         "(<c, 'c_2'>, <cn, 'C1'>, <bn, 'B4'>, <an, 'A11'>, <av, 11>)",
         "(<c, 'c_3'>, <cn, 'C2'>, <bn, 'B7'>, <an, 'A2'>, <av, 2>)",
         "(<c, 'c_4'>, <cn, 'C3'>, <bn, 'B0'>, <an, 'A3'>, <av, 3>)",
         "(<c, 'c_5'>, <cn, 'C4'>, <bn, 'B3'>, <an, 'A6'>, <av, 6>)",
         "(<c, 'c_6'>, <cn, 'C5'>, <bn, 'B6'>, <an, 'A9'>, <av, 9>)",
         "(<c, 'c_7'>, <cn, 'C6'>, <bn, 'B9'>, <an, 'A0'>, <av, 0>)",
         "(<c, 'c_8'>, <cn, 'C7'>, <bn, 'B2'>, <an, 'A1'>, <av, 1>)",
     }},
    {"FOR EACH c SUCH THAT cv < 9 PRINT cn, bn, an, av",
     {
         "(<c, 'c_1'>, <cn, 'C0'>, <bn, 'B1'>, <an, 'A8'>, <av, 8>)",
         "(<c, 'c_2'>, <cn, 'C1'>, <bn, 'B4'>, <an, 'A11'>, <av, 11>)",
         "(<c, 'c_3'>, <cn, 'C2'>, <bn, 'B7'>, <an, 'A2'>, <av, 2>)",
         "(<c, 'c_4'>, <cn, 'C3'>, <bn, 'B0'>, <an, 'A3'>, <av, 3>)",
         "(<c, 'c_5'>, <cn, 'C4'>, <bn, 'B3'>, <an, 'A6'>, <av, 6>)",
         "(<c, 'c_6'>, <cn, 'C5'>, <bn, 'B6'>, <an, 'A9'>, <av, 9>)",
         "(<c, 'c_7'>, <cn, 'C6'>, <bn, 'B9'>, <an, 'A0'>, <av, 0>)",
         "(<c, 'c_8'>, <cn, 'C7'>, <bn, 'B2'>, <an, 'A1'>, <av, 1>)",
         "(<c, 'c_9'>, <cn, 'C8'>, <bn, 'B5'>, <an, 'A4'>, <av, 4>)",
     }},
    {"FOR EACH c PRINT cn, bn, an, av",
     {
         "(<c, 'c_1'>, <cn, 'C0'>, <bn, 'B1'>, <an, 'A8'>, <av, 8>)",
         "(<c, 'c_10'>, <cn, 'C9'>, <bn, 'B8'>, <an, 'A7'>, <av, 7>)",
         "(<c, 'c_2'>, <cn, 'C1'>, <bn, 'B4'>, <an, 'A11'>, <av, 11>)",
         "(<c, 'c_3'>, <cn, 'C2'>, <bn, 'B7'>, <an, 'A2'>, <av, 2>)",
         "(<c, 'c_4'>, <cn, 'C3'>, <bn, 'B0'>, <an, 'A3'>, <av, 3>)",
         "(<c, 'c_5'>, <cn, 'C4'>, <bn, 'B3'>, <an, 'A6'>, <av, 6>)",
         "(<c, 'c_6'>, <cn, 'C5'>, <bn, 'B6'>, <an, 'A9'>, <av, 9>)",
         "(<c, 'c_7'>, <cn, 'C6'>, <bn, 'B9'>, <an, 'A0'>, <av, 0>)",
         "(<c, 'c_8'>, <cn, 'C7'>, <bn, 'B2'>, <an, 'A1'>, <av, 1>)",
         "(<c, 'c_9'>, <cn, 'C8'>, <bn, 'B5'>, <an, 'A4'>, <av, 4>)",
     }},
    {"FOR EACH c SUCH THAT av >= 6 PRINT cn, av",
     {
         "(<c, 'c_1'>, <cn, 'C0'>, <av, 8>)",
         "(<c, 'c_10'>, <cn, 'C9'>, <av, 7>)",
         "(<c, 'c_2'>, <cn, 'C1'>, <av, 11>)",
         "(<c, 'c_5'>, <cn, 'C4'>, <av, 6>)",
         "(<c, 'c_6'>, <cn, 'C5'>, <av, 9>)",
     }},
    {"FOR EACH c SUCH THAT cv < 2 PRINT ALL",
     {
         "(<c, 'c_1'>, <a, 'a_9'>, <a_b, 'a_9'>, <an, 'A8'>, <av, 8>, <b, "
         "'b_2'>, <b_c, 'b_2'>, <bn, 'B1'>, <bv, 1>, <cn, 'C0'>, <cv, 0>)",
         "(<c, 'c_2'>, <a, 'a_12'>, <a_b, 'a_12'>, <an, 'A11'>, <av, 11>, "
         "<b, 'b_5'>, <b_c, 'b_5'>, <bn, 'B4'>, <bv, 4>, <cn, 'C1'>, <cv, "
         "1>)",
     }},
    {"FOR EACH b SUCH THAT bv < 8 PRINT bn, an",
     {
         "(<b, 'b_1'>, <bn, 'B0'>, <an, 'A3'>)",
         "(<b, 'b_2'>, <bn, 'B1'>, <an, 'A8'>)",
         "(<b, 'b_3'>, <bn, 'B2'>, <an, 'A1'>)",
         "(<b, 'b_4'>, <bn, 'B3'>, <an, 'A6'>)",
         "(<b, 'b_5'>, <bn, 'B4'>, <an, 'A11'>)",
         "(<b, 'b_6'>, <bn, 'B5'>, <an, 'A4'>)",
         "(<b, 'b_7'>, <bn, 'B6'>, <an, 'A9'>)",
         "(<b, 'b_8'>, <bn, 'B7'>, <an, 'A2'>)",
     }},
};

TEST_P(DaplexInheritanceTest, ChainRowsMatchGoldens) {
  DaplexMachine* machine = LoadChain();
  ASSERT_NE(machine, nullptr);
  for (const InheritanceGolden& golden : kChainGoldens) {
    EXPECT_EQ(Rows(machine, golden.query),
              std::vector<std::string>(golden.rows.begin(), golden.rows.end()))
        << golden.query;
  }
  // Every level is fetched by the keys its records carry: one RETRIEVE
  // per ISA level, no RETRIEVE-COMMON.
  Rows(machine, "FOR EACH c PRINT cn, bn, an, av");
  ASSERT_EQ(machine->trace().size(), 3u);
  for (const std::string& request : machine->trace()) {
    EXPECT_TRUE(request.starts_with("RETRIEVE (")) << request;
  }
  EXPECT_NE(machine->trace()[1].find("((FILE = 'b') and (b = 'b_1'))"),
            std::string::npos)
      << machine->trace()[1];
  EXPECT_NE(machine->trace()[2].find("((FILE = 'a') and (a = 'a_1'))"),
            std::string::npos)
      << machine->trace()[2];
}

TEST_P(DaplexInheritanceTest, EverySupertypeBranchIsWalked) {
  // c ISA a, b and b ISA d: d is reached only through c's second
  // supertype, so its functions need the walk to follow every branch.
  DaplexMachine* machine = Open(kTwoSupertypesDdl, "branches");
  ASSERT_NE(machine, nullptr);
  const std::string a0 = Create(machine, "CREATE a (an = 'A0')");
  const std::string a1 = Create(machine, "CREATE a (an = 'A1')");
  Create(machine, "CREATE d (dn = 'D0')");
  const std::string d1 = Create(machine, "CREATE d (dn = 'D1')");
  const std::string d2 = Create(machine, "CREATE d (dn = 'D2')");
  const std::string b0 =
      Create(machine, "CREATE b (d = '" + d2 + "', bn = 'B0')");
  const std::string b1 =
      Create(machine, "CREATE b (d = '" + d1 + "', bn = 'B1')");
  Create(machine,
         "CREATE c (a = '" + a1 + "', b = '" + b1 + "', cn = 'C0')");
  Create(machine,
         "CREATE c (a = '" + a0 + "', b = '" + b0 + "', cn = 'C1')");

  EXPECT_EQ(Rows(machine, "FOR EACH c PRINT cn, an, bn, dn"),
            (std::vector<std::string>{
                "(<c, 'c_1'>, <cn, 'C0'>, <an, 'A1'>, <bn, 'B1'>, "
                "<dn, 'D1'>)",
                "(<c, 'c_2'>, <cn, 'C1'>, <an, 'A0'>, <bn, 'B0'>, "
                "<dn, 'D2'>)",
            }));
  EXPECT_EQ(Rows(machine, "FOR EACH c SUCH THAT dn = 'D1' PRINT cn"),
            (std::vector<std::string>{"(<c, 'c_1'>, <cn, 'C0'>)"}));
  EXPECT_EQ(Rows(machine, "FOR EACH b PRINT dn"),
            (std::vector<std::string>{"(<b, 'b_1'>, <dn, 'D2'>)",
                                      "(<b, 'b_2'>, <dn, 'D1'>)"}));
}

INSTANTIATE_TEST_SUITE_P(Backends, DaplexInheritanceTest,
                         ::testing::Values(0, 1, 4));

}  // namespace
}  // namespace mlds::kms
