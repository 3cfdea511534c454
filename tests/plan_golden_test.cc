// EXPLAIN plan-rendering goldens: the annotated physical plan travels
// from the KDS planner through KC and the KMS front ends to the KFS
// formatter, and these tests byte-pin the rendered tree for two language
// interfaces (SQL and CODASYL-DML) plus the MBDS per-backend merge
// structure end to end.

#include <gtest/gtest.h>

#include <string>

#include "abdl/parser.h"
#include "abdl/request.h"
#include "kds/engine.h"
#include "kfs/formatter.h"
#include "kms/dml_machine.h"
#include "kms/sql_machine.h"
#include "mlds/mlds.h"
#include "university/university.h"

namespace mlds {
namespace {

constexpr char kRegistrarDdl[] = R"(
SCHEMA registrar;

CREATE TABLE course (
  title CHAR(20) NOT NULL,
  dept CHAR(10),
  credits INTEGER,
  UNIQUE (title)
);
)";

class SqlPlanGoldenTest : public ::testing::Test {
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
  }

  kms::SqlMachine::Outcome Must(std::string_view text) {
    auto outcome = machine_->ExecuteText(text);
    EXPECT_TRUE(outcome.ok()) << text << ": " << outcome.status();
    return outcome.ok() ? std::move(*outcome) : kms::SqlMachine::Outcome{};
  }

  MldsSystem system_;
  kms::SqlMachine* machine_ = nullptr;
};

TEST_F(SqlPlanGoldenTest, ExplainSelectRendersAnnotatedTree) {
  auto outcome = Must("EXPLAIN SELECT title FROM course WHERE dept = 'CS'");
  ASSERT_EQ(outcome.rows.size(), 2u);
  ASSERT_NE(outcome.plan, nullptr);
  EXPECT_EQ(
      kfs::FormatPlan(*outcome.plan),
      "QUERY PLAN\n"
      "----------\n"
      "PROJECT (title)  est: 2 rows, 1 blocks  actual: 2 rows, 1 blocks\n"
      "  UNION (course)  est: 2 rows, 1 blocks  actual: 2 rows, 1 blocks\n"
      "    INTERSECT [directory]  est: 2 rows, 1 blocks"
      "  actual: 2 rows, 1 blocks\n"
      "      INDEX EQUALITY [secondary] (dept = 'CS') [directory]"
      "  est: 2 rows, 1 blocks  actual: 2 rows, 0 blocks\n"
      "      INDEX EQUALITY (FILE = 'course') [directory]"
      "  est: 3 rows, 1 blocks  actual: 3 rows, 0 blocks\n");
}

TEST_F(SqlPlanGoldenTest, PlainSelectCarriesNoPlan) {
  auto outcome = Must("SELECT title FROM course WHERE dept = 'CS'");
  EXPECT_EQ(outcome.plan, nullptr);
}

TEST_F(SqlPlanGoldenTest, ExplainUpdateSequencesPerAssignmentPlans) {
  auto outcome = Must(
      "EXPLAIN UPDATE course SET dept = 'EE', credits = 2 "
      "WHERE title = 'Thermo'");
  EXPECT_EQ(outcome.affected, 1u);
  ASSERT_NE(outcome.plan, nullptr);
  // One kernel UPDATE per SET assignment, sequenced in issue order.
  EXPECT_EQ(
      kfs::FormatPlan(*outcome.plan),
      "QUERY PLAN\n"
      "----------\n"
      "SEQUENCE (2 requests)  est: 2 rows, 2 blocks"
      "  actual: 2 rows, 2 blocks\n"
      "  UNION (course)  est: 1 rows, 1 blocks  actual: 1 rows, 1 blocks\n"
      "    INTERSECT [directory]  est: 1 rows, 1 blocks"
      "  actual: 1 rows, 1 blocks\n"
      "      INDEX EQUALITY [secondary] (title = 'Thermo') [directory]"
      "  est: 1 rows, 1 blocks"
      "  actual: 1 rows, 0 blocks\n"
      "      INDEX EQUALITY (FILE = 'course') [directory]"
      "  est: 3 rows, 1 blocks"
      "  actual: 3 rows, 0 blocks\n"
      "  UNION (course)  est: 1 rows, 1 blocks  actual: 1 rows, 1 blocks\n"
      "    INTERSECT [directory]  est: 1 rows, 1 blocks"
      "  actual: 1 rows, 1 blocks\n"
      "      INDEX EQUALITY [secondary] (title = 'Thermo') [directory]"
      "  est: 1 rows, 1 blocks"
      "  actual: 1 rows, 0 blocks\n"
      "      INDEX EQUALITY (FILE = 'course') [directory]"
      "  est: 3 rows, 1 blocks"
      "  actual: 3 rows, 0 blocks\n");
}

class DmlPlanGoldenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(
        system_.LoadFunctionalDatabase(university::kUniversityDaplexDdl)
            .ok());
    university::UniversityConfig config;
    ASSERT_TRUE(university::BuildUniversityDatabaseOnLoaded(
                    config, system_.executor())
                    .ok());
    auto session = system_.OpenCodasylSession("university");
    ASSERT_TRUE(session.ok()) << session.status();
    machine_ = *session;
  }

  kms::DmlResult Must(std::string_view dml) {
    auto result = machine_->ExecuteText(dml);
    EXPECT_TRUE(result.ok()) << dml << ": " << result.status();
    return result.ok() ? std::move(*result) : kms::DmlResult{};
  }

  MldsSystem system_;
  kms::DmlMachine* machine_ = nullptr;
};

TEST_F(DmlPlanGoldenTest, ExplainFindAnyRendersAnnotatedTree) {
  Must("MOVE 'Computer Science' TO major IN student");
  auto result = Must("EXPLAIN FIND ANY student USING major IN student");
  ASSERT_NE(result.plan, nullptr);
  kfs::PlanFormatOptions options;
  options.header = "ABDL REQUEST PLAN";
  EXPECT_EQ(
      kfs::FormatPlan(*result.plan, options),
      "ABDL REQUEST PLAN\n"
      "-----------------\n"
      "PROJECT (all attributes) BY student  est: 4 rows, 2 blocks"
      "  actual: 4 rows, 2 blocks\n"
      "  UNION (student)  est: 4 rows, 2 blocks  actual: 4 rows, 2 blocks\n"
      "    INTERSECT [directory]  est: 4 rows, 2 blocks"
      "  actual: 4 rows, 2 blocks\n"
      "      INDEX EQUALITY [secondary] (major = 'Computer Science')"
      " [directory]  est: 4 rows,"
      " 2 blocks  actual: 4 rows, 0 blocks\n"
      "      INDEX EQUALITY (FILE = 'student') [directory]"
      "  est: 30 rows, 2 blocks"
      "  actual: 30 rows, 0 blocks\n");
}

TEST_F(DmlPlanGoldenTest, PlainFindCarriesNoPlan) {
  Must("MOVE 'Computer Science' TO major IN student");
  auto result = Must("FIND ANY student USING major IN student");
  EXPECT_EQ(result.plan, nullptr);
}

// --- RETRIEVE-COMMON join plans (statistics & join subsystem) ---

class JoinPlanGoldenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    abdm::DatabaseDescriptor db;
    db.name = "joins";
    for (const char* name : {"left", "right"}) {
      abdm::FileDescriptor f;
      f.name = name;
      f.attributes = {
          {"FILE", abdm::ValueKind::kString, 0, true},
          {"v", abdm::ValueKind::kInteger, 0, true},
      };
      db.files.push_back(std::move(f));
    }
    ASSERT_TRUE(engine_.DefineDatabase(db).ok());
  }

  void Fill(const std::string& file, int rows) {
    for (int i = 0; i < rows; ++i) {
      auto request = abdl::ParseRequest("INSERT (<FILE, " + file + ">, <v, " +
                                        std::to_string(i) + ">)");
      ASSERT_TRUE(request.ok()) << request.status();
      auto response = engine_.Execute(*request);
      ASSERT_TRUE(response.ok()) << response.status();
    }
  }

  std::string Explain(std::string_view text) {
    auto request = abdl::ParseRequest(text);
    EXPECT_TRUE(request.ok()) << text << ": " << request.status();
    if (!request.ok()) return "";
    abdl::SetExplain(*request, true);
    auto response = engine_.Execute(*request);
    EXPECT_TRUE(response.ok()) << text << ": " << response.status();
    if (!response.ok() || response->plan == nullptr) return "";
    return kfs::FormatPlan(*response->plan);
  }

  kds::Engine engine_;
};

TEST_F(JoinPlanGoldenTest, SkewedSidesRenderHashJoin) {
  Fill("left", 5);
  Fill("right", 8);
  EXPECT_EQ(
      Explain("RETRIEVE-COMMON ((FILE = left)) (v) AND ((FILE = right)) (v) "
              "(v)"),
      "QUERY PLAN\n"
      "----------\n"
      "JOIN [hash] (v = v) [directory]  est: 5 rows, 2 blocks"
      "  actual: 5 rows, 2 blocks\n"
      "  UNION (left)  est: 5 rows, 1 blocks  actual: 5 rows, 1 blocks\n"
      "    INDEX EQUALITY (FILE = 'left') [directory]"
      "  est: 5 rows, 1 blocks  actual: 5 rows, 1 blocks\n"
      "  UNION (right)  est: 8 rows, 1 blocks  actual: 8 rows, 1 blocks\n"
      "    INDEX EQUALITY (FILE = 'right') [directory]"
      "  est: 8 rows, 1 blocks  actual: 8 rows, 1 blocks\n");
}

TEST_F(JoinPlanGoldenTest, LargeBalancedSidesRenderMergeJoin) {
  Fill("left", 80);
  Fill("right", 100);
  EXPECT_EQ(
      Explain("RETRIEVE-COMMON ((FILE = left)) (v) AND ((FILE = right)) (v) "
              "(v)"),
      "QUERY PLAN\n"
      "----------\n"
      "JOIN [merge] (v = v) [directory]  est: 80 rows, 12 blocks"
      "  actual: 80 rows, 12 blocks\n"
      "  UNION (left)  est: 80 rows, 5 blocks  actual: 80 rows, 5 blocks\n"
      "    INDEX EQUALITY (FILE = 'left') [directory]"
      "  est: 80 rows, 5 blocks  actual: 80 rows, 5 blocks\n"
      "  UNION (right)  est: 100 rows, 7 blocks"
      "  actual: 100 rows, 7 blocks\n"
      "    INDEX EQUALITY (FILE = 'right') [directory]"
      "  est: 100 rows, 7 blocks  actual: 100 rows, 7 blocks\n");
}

TEST(MbdsPlanTest, ExplainMergesPerBackendPlans) {
  MldsSystem::Options options;
  options.backends = 2;
  MldsSystem system(options);
  ASSERT_TRUE(system.LoadRelationalDatabase(kRegistrarDdl).ok());
  auto session = system.OpenSqlSession("registrar");
  ASSERT_TRUE(session.ok());
  kms::SqlMachine* machine = *session;
  for (int i = 0; i < 8; ++i) {
    auto insert = machine->ExecuteText(
        "INSERT INTO course (title, dept, credits) VALUES ('C" +
        std::to_string(i) + "', 'CS', " + std::to_string(i % 5) + ")");
    ASSERT_TRUE(insert.ok()) << insert.status();
  }

  auto outcome =
      machine->ExecuteText("EXPLAIN SELECT title FROM course WHERE dept = 'CS'");
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_EQ(outcome->rows.size(), 8u);
  ASSERT_NE(outcome->plan, nullptr);

  // Controller-side post-processing sits on top; underneath, one child
  // per backend in backend-id order, counters summed into the merge root.
  const kds::PlanNode& root = *outcome->plan;
  ASSERT_EQ(root.kind, kds::PlanNodeKind::kProject);
  ASSERT_EQ(root.children.size(), 1u);
  const kds::PlanNode& merge = root.children[0];
  ASSERT_EQ(merge.kind, kds::PlanNodeKind::kBackendMerge);
  EXPECT_EQ(merge.label, "2 backends");
  ASSERT_EQ(merge.children.size(), 2u);
  EXPECT_TRUE(merge.executed);
  uint64_t backend_rows = 0;
  for (size_t b = 0; b < merge.children.size(); ++b) {
    EXPECT_TRUE(merge.children[b].label.starts_with(
        "backend " + std::to_string(b)))
        << merge.children[b].label;
    backend_rows += merge.children[b].actual_rows;
  }
  EXPECT_EQ(backend_rows, 8u);
  EXPECT_EQ(merge.actual_rows, 8u);
  // Every backend holds a share of a round-robin-distributed file.
  for (const kds::PlanNode& child : merge.children) {
    EXPECT_TRUE(child.executed);
  }
}

TEST(MbdsPlanTest, FacadeExplainsRawAbdl) {
  MldsSystem::Options options;
  options.backends = 2;
  MldsSystem system(options);
  ASSERT_TRUE(system.LoadRelationalDatabase(kRegistrarDdl).ok());
  auto session = system.OpenSqlSession("registrar");
  ASSERT_TRUE(session.ok());
  for (int i = 0; i < 4; ++i) {
    auto insert = (*session)->ExecuteText(
        "INSERT INTO course (title, dept, credits) VALUES ('C" +
        std::to_string(i) + "', 'CS', 3)");
    ASSERT_TRUE(insert.ok()) << insert.status();
  }
  auto rendered =
      system.ExplainAbdl("RETRIEVE ((FILE = course) and (dept = 'CS')) (title)");
  ASSERT_TRUE(rendered.ok()) << rendered.status();
  EXPECT_TRUE(rendered->starts_with("ABDL PLAN\n---------\n")) << *rendered;
  EXPECT_NE(rendered->find("BACKEND MERGE (2 backends)"), std::string::npos)
      << *rendered;
  // INSERT has no access path: the facade refuses to explain it.
  EXPECT_FALSE(
      system.ExplainAbdl("INSERT (<FILE, course>, <title, 'X'>)").ok());
}

TEST(MbdsPlanTest, DistributedJoinGraftsBackendMergesUnderJoinRoot) {
  constexpr char kShopDdl[] = R"(
SCHEMA shop;

CREATE TABLE item (
  label CHAR(10) NOT NULL,
  price INTEGER,
  UNIQUE (label)
);

CREATE TABLE tag (
  label CHAR(10) NOT NULL,
  color CHAR(10)
);
)";
  MldsSystem::Options options;
  options.backends = 2;
  MldsSystem system(options);
  ASSERT_TRUE(system.LoadRelationalDatabase(kShopDdl).ok());
  auto session = system.OpenSqlSession("shop");
  ASSERT_TRUE(session.ok());
  kms::SqlMachine* machine = *session;
  for (int i = 0; i < 6; ++i) {
    auto insert = machine->ExecuteText(
        "INSERT INTO item (label, price) VALUES ('l" + std::to_string(i) +
        "', " + std::to_string(10 + i) + ")");
    ASSERT_TRUE(insert.ok()) << insert.status();
    auto tag = machine->ExecuteText("INSERT INTO tag (label, color) VALUES ('l" +
                                    std::to_string(i) + "', 'blue')");
    ASSERT_TRUE(tag.ok()) << tag.status();
  }

  auto outcome = machine->ExecuteText(
      "EXPLAIN SELECT price, color FROM item, tag "
      "WHERE item.label = tag.label");
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_EQ(outcome->rows.size(), 6u);
  ASSERT_NE(outcome->plan, nullptr);

  // The controller grafts one BACKEND MERGE subtree per join side under
  // the JOIN root: the distributed plan shows where each side's records
  // came from, per backend, with the join executed at the controller.
  const kds::PlanNode* join = outcome->plan.get();
  while (join != nullptr && join->kind != kds::PlanNodeKind::kJoin) {
    join = join->children.empty() ? nullptr : &join->children[0];
  }
  ASSERT_NE(join, nullptr) << kfs::FormatPlan(*outcome->plan);
  EXPECT_TRUE(join->executed);
  EXPECT_NE(join->join_strategy, kds::JoinStrategy::kNone);
  ASSERT_EQ(join->children.size(), 2u);
  for (const kds::PlanNode& side : join->children) {
    EXPECT_EQ(side.kind, kds::PlanNodeKind::kBackendMerge)
        << kfs::FormatPlan(*outcome->plan);
    EXPECT_EQ(side.label, "2 backends");
    ASSERT_EQ(side.children.size(), 2u);
  }
  // The rendered tree names both the strategy and the merge roots.
  const std::string rendered = kfs::FormatPlan(*outcome->plan);
  EXPECT_NE(rendered.find("JOIN ["), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("BACKEND MERGE (2 backends)"), std::string::npos)
      << rendered;
}

}  // namespace
}  // namespace mlds
