#include "kds/snapshot.h"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>

#include "abdl/parser.h"
#include "kc/executor.h"
#include "kms/dml_machine.h"
#include "university/university.h"

namespace mlds::kds {
namespace {

TEST(SnapshotTest, RoundTripsUniversityDatabase) {
  Engine original;
  kc::EngineExecutor executor(&original);
  university::UniversityConfig config;
  auto db = university::BuildUniversityDatabase(config, &executor);
  ASSERT_TRUE(db.ok()) << db.status();

  std::stringstream stream;
  ASSERT_TRUE(SaveSnapshot(original, stream).ok());

  Engine restored;
  ASSERT_TRUE(LoadSnapshot(stream, &restored).ok());

  // Same files, same sizes, same query answers.
  EXPECT_EQ(original.FileNames(), restored.FileNames());
  for (const auto& file : original.FileNames()) {
    EXPECT_EQ(original.FileSize(file), restored.FileSize(file)) << file;
  }
  auto req = abdl::ParseRequest(
      "RETRIEVE ((FILE = student)) (all attributes) BY student");
  ASSERT_TRUE(req.ok());
  auto a = original.Execute(*req);
  auto b = restored.Execute(*req);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->records, b->records);
}

TEST(SnapshotTest, SaveLoadSaveIsStable) {
  Engine original;
  kc::EngineExecutor executor(&original);
  university::UniversityConfig config;
  config.persons = 10;
  config.students = 5;
  ASSERT_TRUE(university::BuildUniversityDatabase(config, &executor).ok());

  std::stringstream first;
  ASSERT_TRUE(SaveSnapshot(original, first).ok());
  Engine restored;
  std::stringstream copy(first.str());
  ASSERT_TRUE(LoadSnapshot(copy, &restored).ok());
  std::stringstream second;
  ASSERT_TRUE(SaveSnapshot(restored, second).ok());
  EXPECT_EQ(first.str(), second.str());
}

TEST(SnapshotTest, PreservesValueKindsAndNulls) {
  Engine engine;
  abdm::FileDescriptor f;
  f.name = "t";
  f.attributes = {{"FILE", abdm::ValueKind::kString, 0, true},
                  {"i", abdm::ValueKind::kInteger, 0, true},
                  {"f", abdm::ValueKind::kFloat, 0, false},
                  {"s", abdm::ValueKind::kString, 12, false}};
  ASSERT_TRUE(engine.DefineFile(f).ok());
  auto insert = abdl::ParseRequest(
      "INSERT (<FILE, t>, <i, -7>, <f, 2.5>, <s, 'hi there'>, <n, NULL>)");
  ASSERT_TRUE(insert.ok());
  ASSERT_TRUE(engine.Execute(*insert).ok());

  std::stringstream stream;
  ASSERT_TRUE(SaveSnapshot(engine, stream).ok());
  Engine restored;
  ASSERT_TRUE(LoadSnapshot(stream, &restored).ok());
  auto all = abdl::ParseRequest("RETRIEVE ((FILE = t)) (all attributes)");
  auto rows = restored.Execute(*all);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->records.size(), 1u);
  EXPECT_EQ(rows->records[0].GetOrNull("i").AsInteger(), -7);
  EXPECT_DOUBLE_EQ(rows->records[0].GetOrNull("f").AsFloat(), 2.5);
  EXPECT_EQ(rows->records[0].GetOrNull("s").AsString(), "hi there");
  EXPECT_TRUE(rows->records[0].GetOrNull("n").is_null());
  // Descriptor survived with kinds and directory flags.
  const abdm::FileDescriptor* desc = restored.FindDescriptor("t");
  ASSERT_NE(desc, nullptr);
  EXPECT_EQ(desc->FindAttribute("i")->kind, abdm::ValueKind::kInteger);
  EXPECT_FALSE(desc->FindAttribute("f")->directory);
  EXPECT_EQ(desc->FindAttribute("s")->max_length, 12);
}

TEST(SnapshotTest, FloatsKeepEveryDigit) {
  Engine engine;
  abdm::FileDescriptor f;
  f.name = "t";
  f.attributes = {{"FILE", abdm::ValueKind::kString, 0, true},
                  {"x", abdm::ValueKind::kFloat, 0, true}};
  ASSERT_TRUE(engine.DefineFile(f).ok());
  auto insert = abdl::ParseRequest("INSERT (<FILE, t>, <x, 1234567.25>)");
  ASSERT_TRUE(insert.ok());
  ASSERT_TRUE(engine.Execute(*insert).ok());

  std::stringstream stream;
  ASSERT_TRUE(SaveSnapshot(engine, stream).ok());
  Engine restored;
  ASSERT_TRUE(LoadSnapshot(stream, &restored).ok());
  auto all = abdl::ParseRequest("RETRIEVE ((FILE = t)) (all attributes)");
  auto rows = restored.Execute(*all);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->records.size(), 1u);
  EXPECT_EQ(rows->records[0].GetOrNull("x").AsFloat(), 1234567.25);
}

TEST(SnapshotTest, IntegralFloatsStayFloat) {
  // 87.0 prints as "87" and -0.0 as "-0": the reader parses each by its
  // attribute's FLOAT kind, not as the integer the text also spells.
  Engine engine;
  abdm::FileDescriptor f;
  f.name = "t";
  f.attributes = {{"FILE", abdm::ValueKind::kString, 0, true},
                  {"k", abdm::ValueKind::kInteger, 0, true},
                  {"x", abdm::ValueKind::kFloat, 0, false}};
  ASSERT_TRUE(engine.DefineFile(f).ok());
  const double values[] = {87.0, -0.0};
  for (int k = 0; k < 2; ++k) {
    abdm::Record record;
    record.Set("FILE", abdm::Value::String("t"));
    record.Set("k", abdm::Value::Integer(k));
    record.Set("x", abdm::Value::Float(values[k]));
    ASSERT_TRUE(engine.Execute(abdl::InsertRequest{{record}}).ok());
  }

  std::stringstream stream;
  ASSERT_TRUE(SaveSnapshot(engine, stream).ok());
  Engine restored;
  ASSERT_TRUE(LoadSnapshot(stream, &restored).ok());
  auto all = abdl::ParseRequest("RETRIEVE ((FILE = t)) (all attributes) BY k");
  auto rows = restored.Execute(*all);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->records.size(), 2u);
  for (int k = 0; k < 2; ++k) {
    const abdm::Value x = rows->records[k].GetOrNull("x");
    ASSERT_TRUE(x.is_float()) << k;
    EXPECT_EQ(x.AsFloat(), values[k]);
    EXPECT_EQ(std::signbit(x.AsFloat()), std::signbit(values[k])) << k;
  }
  // The integer attribute still reads back as INTEGER.
  EXPECT_TRUE(rows->records[0].GetOrNull("k").is_integer());
}

TEST(SnapshotTest, RejectsBadHeader) {
  std::stringstream stream("NOT A SNAPSHOT\n");
  Engine engine;
  auto status = LoadSnapshot(stream, &engine);
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(status.IsParseError());
}

TEST(SnapshotTest, RejectsAttrOutsideFile) {
  std::stringstream stream("MLDS-SNAPSHOT 1\nATTR x string 0 1\n");
  Engine engine;
  EXPECT_FALSE(LoadSnapshot(stream, &engine).ok());
}

TEST(SnapshotTest, RejectsGarbageLine) {
  std::stringstream stream("MLDS-SNAPSHOT 1\nFILE f\nWHAT is this\n");
  Engine engine;
  EXPECT_FALSE(LoadSnapshot(stream, &engine).ok());
}

TEST(SnapshotTest, RejectsDataLineWithSeveralRecords) {
  Engine engine;
  abdm::FileDescriptor f;
  f.name = "t";
  f.attributes = {{"FILE", abdm::ValueKind::kString, 0, true},
                  {"k", abdm::ValueKind::kInteger, 0, false}};
  ASSERT_TRUE(engine.DefineFile(f).ok());
  auto insert = abdl::ParseRequest("INSERT (<FILE, t>, <k, 1>)");
  ASSERT_TRUE(insert.ok());
  ASSERT_TRUE(engine.Execute(*insert).ok());
  std::stringstream saved;
  ASSERT_TRUE(SaveSnapshot(engine, saved).ok());

  // Snapshots hold one record per data line; a line carrying the
  // multi-record INSERT form is rejected before anything is defined.
  std::string text = saved.str();
  const size_t line = text.find("INSERT (");
  ASSERT_NE(line, std::string::npos);
  const size_t end = text.find('\n', line);
  const std::string group = text.substr(line + 7, end - line - 7);
  text.insert(end, " " + group);
  std::stringstream doubled(text);
  Engine restored;
  auto status = LoadSnapshot(doubled, &restored);
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(status.IsParseError()) << status;
  EXPECT_FALSE(restored.HasFile("t"));
}

TEST(SnapshotTest, LoadIntoNonEmptyEngineRejectsDuplicates) {
  Engine engine;
  abdm::FileDescriptor f;
  f.name = "t";
  f.attributes = {{"FILE", abdm::ValueKind::kString, 0, true}};
  ASSERT_TRUE(engine.DefineFile(f).ok());
  std::stringstream snapshot;
  ASSERT_TRUE(SaveSnapshot(engine, snapshot).ok());
  auto status = LoadSnapshot(snapshot, &engine);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kAlreadyExists);
}

TEST(SnapshotTest, RestoredDatabaseServesDmlSessions) {
  // Save a loaded University database, restore it into a fresh engine,
  // and run a CODASYL-DML session against the restored kernel.
  Engine original;
  kc::EngineExecutor build_exec(&original);
  university::UniversityConfig config;
  auto db = university::BuildUniversityDatabase(config, &build_exec);
  ASSERT_TRUE(db.ok());

  std::stringstream stream;
  ASSERT_TRUE(SaveSnapshot(original, stream).ok());
  Engine restored;
  ASSERT_TRUE(LoadSnapshot(stream, &restored).ok());

  kc::EngineExecutor exec(&restored);
  kms::DmlMachine machine(&db->mapping.schema, &db->mapping, &exec);
  auto run = machine.RunProgram(
      "MOVE 'Advanced Database' TO title IN course\n"
      "FIND ANY course USING title IN course\n"
      "GET title, credits IN course\n");
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(run->back().records[0].GetOrNull("title").AsString(),
            "Advanced Database");
  // Session statistics reflect the run.
  EXPECT_EQ(machine.statistics().total_statements, 3u);
  EXPECT_EQ(machine.statistics().total_requests, 1u);
  EXPECT_EQ(machine.statistics().abdl_requests.at("RETRIEVE"), 1u);
}

}  // namespace
}  // namespace mlds::kds
