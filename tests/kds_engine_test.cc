#include "kds/engine.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "abdl/parser.h"

namespace mlds::kds {
namespace {

using abdm::AttributeDescriptor;
using abdm::DatabaseDescriptor;
using abdm::FileDescriptor;
using abdm::Record;
using abdm::Value;
using abdm::ValueKind;

FileDescriptor CourseFile() {
  FileDescriptor f;
  f.name = "course";
  f.attributes = {
      {"FILE", ValueKind::kString, 0, true},
      {"course", ValueKind::kString, 0, true},
      {"title", ValueKind::kString, 20, true},
      {"dept", ValueKind::kString, 10, true},
      {"credits", ValueKind::kInteger, 0, false},
  };
  return f;
}

abdl::Request MustParse(std::string_view text) {
  auto r = abdl::ParseRequest(text);
  EXPECT_TRUE(r.ok()) << text << ": " << r.status();
  return *r;
}

class KdsEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatabaseDescriptor db;
    db.name = "univ";
    db.files = {CourseFile()};
    ASSERT_TRUE(engine_.DefineDatabase(db).ok());
  }

  void InsertCourse(std::string_view key, std::string_view title,
                    std::string_view dept, int credits) {
    std::string req = "INSERT (<FILE, course>, <course, '" + std::string(key) +
                      "'>, <title, '" + std::string(title) + "'>, <dept, '" +
                      std::string(dept) + "'>, <credits, " +
                      std::to_string(credits) + ">)";
    auto resp = engine_.Execute(MustParse(req));
    ASSERT_TRUE(resp.ok()) << resp.status();
  }

  Engine engine_;
};

TEST_F(KdsEngineTest, InsertThenRetrieve) {
  InsertCourse("c1", "Advanced Database", "CS", 4);
  auto resp = engine_.Execute(MustParse(
      "RETRIEVE ((FILE = course) and (title = 'Advanced Database')) "
      "(all attributes)"));
  ASSERT_TRUE(resp.ok()) << resp.status();
  ASSERT_EQ(resp->records.size(), 1u);
  EXPECT_EQ(resp->records[0].GetOrNull("dept").AsString(), "CS");
}

TEST_F(KdsEngineTest, InsertRequiresFileKeyword) {
  auto resp = engine_.Execute(MustParse("INSERT (<x, 1>)"));
  ASSERT_FALSE(resp.ok());
}

TEST_F(KdsEngineTest, InsertIntoUndefinedFileFails) {
  auto resp = engine_.Execute(MustParse("INSERT (<FILE, nofile>, <x, 1>)"));
  ASSERT_FALSE(resp.ok());
  EXPECT_TRUE(resp.status().IsNotFound());
}

TEST_F(KdsEngineTest, RetrieveProjectsTargetList) {
  InsertCourse("c1", "Databases", "CS", 4);
  auto resp = engine_.Execute(
      MustParse("RETRIEVE ((FILE = course)) (title, credits)"));
  ASSERT_TRUE(resp.ok());
  ASSERT_EQ(resp->records.size(), 1u);
  EXPECT_EQ(resp->records[0].size(), 2u);
  EXPECT_TRUE(resp->records[0].Has("title"));
  EXPECT_FALSE(resp->records[0].Has("dept"));
}

TEST_F(KdsEngineTest, RetrieveByAttributeOrdersResults) {
  InsertCourse("c1", "Zeta", "CS", 4);
  InsertCourse("c2", "Alpha", "CS", 3);
  InsertCourse("c3", "Mid", "EE", 2);
  auto resp = engine_.Execute(
      MustParse("RETRIEVE ((FILE = course)) (title) BY title"));
  ASSERT_TRUE(resp.ok());
  ASSERT_EQ(resp->records.size(), 3u);
  EXPECT_EQ(resp->records[0].GetOrNull("title").AsString(), "Alpha");
  EXPECT_EQ(resp->records[2].GetOrNull("title").AsString(), "Zeta");
}

TEST_F(KdsEngineTest, UpdateModifiesMatchingRecords) {
  InsertCourse("c1", "DB", "CS", 3);
  InsertCourse("c2", "OS", "CS", 3);
  InsertCourse("c3", "Net", "EE", 3);
  auto resp = engine_.Execute(MustParse(
      "UPDATE ((FILE = course) and (dept = 'CS')) (credits = 4)"));
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->affected, 2u);
  auto check = engine_.Execute(
      MustParse("RETRIEVE ((FILE = course) and (credits = 4)) (title)"));
  ASSERT_TRUE(check.ok());
  EXPECT_EQ(check->records.size(), 2u);
}

TEST_F(KdsEngineTest, UpdateAddModifier) {
  InsertCourse("c1", "DB", "CS", 3);
  auto resp = engine_.Execute(
      MustParse("UPDATE ((FILE = course)) (credits = credits + 2)"));
  ASSERT_TRUE(resp.ok());
  auto check = engine_.Execute(
      MustParse("RETRIEVE ((FILE = course)) (credits)"));
  ASSERT_TRUE(check.ok());
  EXPECT_EQ(check->records[0].GetOrNull("credits").AsInteger(), 5);
}

TEST_F(KdsEngineTest, UpdateToNullThenNullPredicateFinds) {
  InsertCourse("c1", "DB", "CS", 3);
  ASSERT_TRUE(
      engine_.Execute(MustParse("UPDATE ((FILE = course)) (dept = NULL)"))
          .ok());
  auto check = engine_.Execute(
      MustParse("RETRIEVE ((FILE = course) and (dept = NULL)) (title)"));
  ASSERT_TRUE(check.ok());
  EXPECT_EQ(check->records.size(), 1u);
}

TEST_F(KdsEngineTest, DeleteRemovesMatching) {
  InsertCourse("c1", "DB", "CS", 3);
  InsertCourse("c2", "OS", "CS", 3);
  auto resp = engine_.Execute(
      MustParse("DELETE ((FILE = course) and (title = 'DB'))"));
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->affected, 1u);
  EXPECT_EQ(engine_.FileSize("course"), 1u);
}

TEST_F(KdsEngineTest, DisjunctiveQueryAcrossPredicates) {
  InsertCourse("c1", "DB", "CS", 3);
  InsertCourse("c2", "OS", "EE", 4);
  InsertCourse("c3", "Nets", "ME", 5);
  auto resp = engine_.Execute(MustParse(
      "RETRIEVE (((FILE = course) and (dept = 'CS')) or "
      "((FILE = course) and (credits = 5))) (title)"));
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->records.size(), 2u);
}

TEST_F(KdsEngineTest, AggregateAvgByGroup) {
  InsertCourse("c1", "A", "CS", 4);
  InsertCourse("c2", "B", "CS", 2);
  InsertCourse("c3", "C", "EE", 5);
  auto resp = engine_.Execute(
      MustParse("RETRIEVE ((FILE = course)) (AVG(credits)) BY dept"));
  ASSERT_TRUE(resp.ok());
  ASSERT_EQ(resp->records.size(), 2u);
  // Groups come back ordered by the by-attribute: CS then EE.
  EXPECT_EQ(resp->records[0].GetOrNull("dept").AsString(), "CS");
  EXPECT_DOUBLE_EQ(resp->records[0].GetOrNull("AVG(credits)").AsFloat(), 3.0);
  EXPECT_DOUBLE_EQ(resp->records[1].GetOrNull("AVG(credits)").AsFloat(), 5.0);
}

TEST_F(KdsEngineTest, AggregateCountWithoutBy) {
  InsertCourse("c1", "A", "CS", 4);
  InsertCourse("c2", "B", "CS", 2);
  auto resp = engine_.Execute(
      MustParse("RETRIEVE ((FILE = course)) (COUNT(course))"));
  ASSERT_TRUE(resp.ok());
  ASSERT_EQ(resp->records.size(), 1u);
  EXPECT_EQ(resp->records[0].GetOrNull("COUNT(course)").AsInteger(), 2);
}

TEST_F(KdsEngineTest, AggregateMinMaxSum) {
  InsertCourse("c1", "A", "CS", 4);
  InsertCourse("c2", "B", "CS", 2);
  auto resp = engine_.Execute(MustParse(
      "RETRIEVE ((FILE = course)) (MIN(credits), MAX(credits), SUM(credits))"));
  ASSERT_TRUE(resp.ok());
  ASSERT_EQ(resp->records.size(), 1u);
  EXPECT_EQ(resp->records[0].GetOrNull("MIN(credits)").AsInteger(), 2);
  EXPECT_EQ(resp->records[0].GetOrNull("MAX(credits)").AsInteger(), 4);
  EXPECT_EQ(resp->records[0].GetOrNull("SUM(credits)").AsInteger(), 6);
}

TEST_F(KdsEngineTest, RetrieveCommonJoinsOnCommonAttribute) {
  FileDescriptor faculty;
  faculty.name = "faculty";
  faculty.attributes = {{"FILE", ValueKind::kString, 0, true},
                        {"name", ValueKind::kString, 0, true},
                        {"dept", ValueKind::kString, 0, true}};
  ASSERT_TRUE(engine_.DefineFile(faculty).ok());
  ASSERT_TRUE(engine_
                  .Execute(MustParse(
                      "INSERT (<FILE, faculty>, <name, 'Hsiao'>, <dept, 'CS'>)"))
                  .ok());
  InsertCourse("c1", "DB", "CS", 4);
  InsertCourse("c2", "Therm", "ME", 3);
  auto resp = engine_.Execute(MustParse(
      "RETRIEVE-COMMON ((FILE = faculty)) (dept) AND ((FILE = course)) "
      "(dept) (name, title)"));
  ASSERT_TRUE(resp.ok()) << resp.status();
  ASSERT_EQ(resp->records.size(), 1u);
  EXPECT_EQ(resp->records[0].GetOrNull("name").AsString(), "Hsiao");
  EXPECT_EQ(resp->records[0].GetOrNull("title").AsString(), "DB");
}

TEST_F(KdsEngineTest, IntegersBeyondTwoTo53StayDistinct) {
  // 2^53 and 2^53 + 1 share one double; as keys they are two values, and
  // an equality or a join on one of them finds only its own record.
  FileDescriptor t;
  t.name = "t";
  t.attributes = {{"FILE", ValueKind::kString, 0, true},
                  {"n", ValueKind::kInteger, 0, true}};
  ASSERT_TRUE(engine_.DefineFile(t).ok());
  FileDescriptor u = t;
  u.name = "u";
  ASSERT_TRUE(engine_.DefineFile(u).ok());
  for (const char* n : {"9007199254740992", "9007199254740993"}) {
    ASSERT_TRUE(
        engine_.Execute(MustParse(std::string("INSERT (<FILE, t>, <n, ") + n +
                                  ">)"))
            .ok());
  }
  ASSERT_TRUE(
      engine_.Execute(MustParse("INSERT (<FILE, u>, <n, 9007199254740993>)"))
          .ok());
  auto resp = engine_.Execute(
      MustParse("RETRIEVE ((FILE = t) and (n = 9007199254740993)) (n)"));
  ASSERT_TRUE(resp.ok()) << resp.status();
  ASSERT_EQ(resp->records.size(), 1u);
  EXPECT_EQ(resp->records[0].GetOrNull("n").AsInteger(), 9007199254740993);
  resp = engine_.Execute(
      MustParse("RETRIEVE ((FILE = t) and (n > 9007199254740992)) (n)"));
  ASSERT_TRUE(resp.ok()) << resp.status();
  ASSERT_EQ(resp->records.size(), 1u);
  resp = engine_.Execute(MustParse(
      "RETRIEVE-COMMON ((FILE = t)) (n) AND ((FILE = u)) (n) (n)"));
  ASSERT_TRUE(resp.ok()) << resp.status();
  ASSERT_EQ(resp->records.size(), 1u);
  EXPECT_EQ(resp->records[0].GetOrNull("n").AsInteger(), 9007199254740993);
}

TEST_F(KdsEngineTest, TransactionExecutesSequentially) {
  auto txn = abdl::ParseTransaction(
      "INSERT (<FILE, course>, <course, 'c1'>, <title, 'X'>, <dept, 'CS'>, "
      "<credits, 1>); "
      "UPDATE ((FILE = course) and (title = 'X')) (credits = 9); "
      "RETRIEVE ((FILE = course)) (credits)");
  ASSERT_TRUE(txn.ok()) << txn.status();
  auto responses = engine_.ExecuteTransaction(*txn);
  ASSERT_TRUE(responses.ok()) << responses.status();
  ASSERT_EQ(responses->size(), 3u);
  EXPECT_EQ((*responses)[2].records[0].GetOrNull("credits").AsInteger(), 9);
}

TEST_F(KdsEngineTest, IoStatsAccumulate) {
  InsertCourse("c1", "DB", "CS", 3);
  ASSERT_GT(engine_.cumulative_io().blocks_written, 0u);
  auto before = engine_.cumulative_io().blocks_read;
  ASSERT_TRUE(
      engine_.Execute(MustParse("RETRIEVE ((FILE = course)) (title)")).ok());
  EXPECT_GT(engine_.cumulative_io().blocks_read, before);
}

TEST_F(KdsEngineTest, DuplicateFileDefinitionRejected) {
  EXPECT_EQ(engine_.DefineFile(CourseFile()).code(),
            StatusCode::kAlreadyExists);
}

TEST_F(KdsEngineTest, UnqualifiedQuerySearchesAllFiles) {
  FileDescriptor other;
  other.name = "other";
  other.attributes = {{"FILE", ValueKind::kString, 0, true},
                      {"credits", ValueKind::kInteger, 0, false}};
  ASSERT_TRUE(engine_.DefineFile(other).ok());
  InsertCourse("c1", "DB", "CS", 7);
  ASSERT_TRUE(
      engine_.Execute(MustParse("INSERT (<FILE, other>, <credits, 7>)")).ok());
  auto resp = engine_.Execute(MustParse("RETRIEVE ((credits = 7)) (credits)"));
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->records.size(), 2u);
}

// A1 and A2 (EXPERIMENTS.md): blocks read by a selective retrieve over
// 20,000 records (grp = 17 matches 400) and a point lookup, with the
// keyword directory on or off, and across the block-capacity sweep.
// Round-robin placement scatters each grp over the blocks, so clustering
// pays only once blocks are large.
std::unique_ptr<Engine> AblationEngine(bool directory, int block_capacity) {
  EngineOptions options;
  options.block_capacity = block_capacity;
  auto engine = std::make_unique<Engine>(options);
  FileDescriptor f;
  f.name = "item";
  f.attributes = {{"FILE", ValueKind::kString, 0, true},
                  {"key", ValueKind::kInteger, 0, directory},
                  {"grp", ValueKind::kInteger, 0, directory},
                  {"payload", ValueKind::kString, 0, false}};
  EXPECT_TRUE(engine->DefineFile(f).ok());
  for (int i = 0; i < 20000; ++i) {
    EXPECT_TRUE(engine
                    ->Execute(MustParse(
                        "INSERT (<FILE, item>, <key, " + std::to_string(i) +
                        ">, <grp, " + std::to_string(i % 50) +
                        ">, <payload, 'x'>)"))
                    .ok());
  }
  return engine;
}

uint64_t BlocksRead(Engine& engine, std::string_view request) {
  auto resp = engine.Execute(MustParse(request));
  EXPECT_TRUE(resp.ok()) << request << ": " << resp.status();
  return resp.ok() ? resp->io.blocks_read : 0;
}

constexpr std::string_view kSelective =
    "RETRIEVE ((FILE = item) and (grp = 17)) (key)";
constexpr std::string_view kPoint =
    "RETRIEVE ((FILE = item) and (key = 777)) (all attributes)";

TEST(KdsAblationTest, DirectoryCutsBlocksRead) {
  auto off = AblationEngine(/*directory=*/false, 16);
  EXPECT_EQ(BlocksRead(*off, kSelective), 1250u);
  EXPECT_EQ(BlocksRead(*off, kPoint), 1250u);
  auto on = AblationEngine(/*directory=*/true, 16);
  EXPECT_EQ(BlocksRead(*on, kSelective), 400u);
  EXPECT_EQ(BlocksRead(*on, kPoint), 1u);
}

TEST(KdsAblationTest, BlockCapacitySweep) {
  struct Capacity {
    int records_per_block;
    uint64_t blocks_read;
  };
  constexpr Capacity kSweep[] = {{1, 400}, {4, 400}, {16, 400}, {64, 312}};
  for (const Capacity& c : kSweep) {
    auto engine = AblationEngine(/*directory=*/true, c.records_per_block);
    EXPECT_EQ(BlocksRead(*engine, kSelective), c.blocks_read)
        << c.records_per_block << " records per block";
  }
}

}  // namespace
}  // namespace mlds::kds
