// End-to-end tests of the MLDS facade: LIL database registry, on-demand
// schema transformation, and CODASYL-DML sessions over both kernels.

#include "mlds/mlds.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "kfs/formatter.h"
#include "university/university.h"

namespace mlds {
namespace {

constexpr char kShopDdl[] =
    "SCHEMA NAME IS shop;"
    "RECORD NAME IS customer;"
    "  ITEM cname TYPE IS CHARACTER 20;"
    "SET NAME IS system_customer;"
    "  OWNER IS SYSTEM; MEMBER IS customer;"
    "  INSERTION IS AUTOMATIC; RETENTION IS FIXED;"
    "  SET SELECTION IS BY APPLICATION;";

TEST(MldsSystemTest, LoadNetworkAndFunctionalDatabases) {
  MldsSystem mlds;
  ASSERT_TRUE(mlds.LoadNetworkDatabase(kShopDdl).ok());
  ASSERT_TRUE(
      mlds.LoadFunctionalDatabase(university::kUniversityDaplexDdl).ok());
  auto names = mlds.DatabaseNames();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "shop");
  EXPECT_EQ(names[1], "university");
}

TEST(MldsSystemTest, DuplicateDatabaseNameRejected) {
  MldsSystem mlds;
  ASSERT_TRUE(mlds.LoadNetworkDatabase(kShopDdl).ok());
  EXPECT_EQ(mlds.LoadNetworkDatabase(kShopDdl).code(),
            StatusCode::kAlreadyExists);
}

// Database names are unique across all four data models: loading a
// second database under a taken name fails whichever models the two are.
enum class Model { kNetwork, kFunctional, kRelational, kHierarchical };

std::string ModelName(Model model) {
  switch (model) {
    case Model::kNetwork: return "Network";
    case Model::kFunctional: return "Functional";
    case Model::kRelational: return "Relational";
    case Model::kHierarchical: return "Hierarchical";
  }
  return "";
}

void PrintTo(Model model, std::ostream* os) { *os << ModelName(model); }

// Each model's DDL declares its own kernel file, so only the name clashes.
Status LoadAs(MldsSystem& mlds, Model model, const std::string& name) {
  switch (model) {
    case Model::kNetwork:
      return mlds.LoadNetworkDatabase("SCHEMA NAME IS " + name +
                                      "; RECORD NAME IS n_rec;"
                                      "  ITEM x TYPE IS CHARACTER 8;");
    case Model::kFunctional:
      return mlds.LoadFunctionalDatabase(
          "SCHEMA " + name + "; TYPE f_ent IS ENTITY x : INTEGER; END ENTITY;");
    case Model::kRelational:
      return mlds.LoadRelationalDatabase("SCHEMA " + name +
                                         "; CREATE TABLE r_tab (x CHAR(8));");
    case Model::kHierarchical:
      return mlds.LoadHierarchicalDatabase(
          "SCHEMA " + name + "; SEGMENT h_seg; FIELD x CHAR(8);");
  }
  return Status::Internal("unknown model");
}

class CrossModelNameTest
    : public ::testing::TestWithParam<std::pair<Model, Model>> {};

TEST_P(CrossModelNameTest, SecondLoadUnderTakenNameRejected) {
  const auto [first, second] = GetParam();
  MldsSystem fresh;  // the second DDL loads on its own
  ASSERT_TRUE(LoadAs(fresh, second, "shop").ok());
  MldsSystem mlds;
  ASSERT_TRUE(LoadAs(mlds, first, "shop").ok());
  EXPECT_EQ(LoadAs(mlds, second, "shop").code(), StatusCode::kAlreadyExists);
  const std::vector<std::string> names = mlds.DatabaseNames();
  EXPECT_EQ(std::count(names.begin(), names.end(), "shop"), 1);
}

std::vector<std::pair<Model, Model>> CrossModelPairs() {
  const Model models[] = {Model::kNetwork, Model::kFunctional,
                          Model::kRelational, Model::kHierarchical};
  std::vector<std::pair<Model, Model>> pairs;
  for (Model first : models) {
    for (Model second : models) {
      if (first != second) pairs.emplace_back(first, second);
    }
  }
  return pairs;
}

INSTANTIATE_TEST_SUITE_P(
    AllPairs, CrossModelNameTest, ::testing::ValuesIn(CrossModelPairs()),
    [](const ::testing::TestParamInfo<std::pair<Model, Model>>& info) {
      return ModelName(info.param.first) + "Then" +
             ModelName(info.param.second);
    });

TEST(MldsSystemTest, OpenSessionSearchesNetworkThenFunctional) {
  MldsSystem mlds;
  ASSERT_TRUE(mlds.LoadNetworkDatabase(kShopDdl).ok());
  ASSERT_TRUE(
      mlds.LoadFunctionalDatabase(university::kUniversityDaplexDdl).ok());
  auto shop = mlds.OpenCodasylSession("shop");
  ASSERT_TRUE(shop.ok());
  EXPECT_FALSE((*shop)->IsFunctionalTarget());
  auto univ = mlds.OpenCodasylSession("university");
  ASSERT_TRUE(univ.ok());
  EXPECT_TRUE((*univ)->IsFunctionalTarget());
  auto missing = mlds.OpenCodasylSession("nothere");
  EXPECT_TRUE(missing.status().IsNotFound());
}

TEST(MldsSystemTest, FunctionalDatabaseGetsTransformedSchema) {
  MldsSystem mlds;
  ASSERT_TRUE(
      mlds.LoadFunctionalDatabase(university::kUniversityDaplexDdl).ok());
  const network::Schema* view = mlds.NetworkViewOf("university");
  ASSERT_NE(view, nullptr);
  EXPECT_NE(view->FindRecord("student"), nullptr);
  EXPECT_NE(view->FindSet("advisor"), nullptr);
  EXPECT_NE(mlds.MappingOf("university"), nullptr);
  EXPECT_EQ(mlds.MappingOf("shop"), nullptr);
}

TEST(MldsSystemTest, EndToEndDmlOnFunctionalDatabase) {
  MldsSystem mlds;
  ASSERT_TRUE(
      mlds.LoadFunctionalDatabase(university::kUniversityDaplexDdl).ok());
  auto session = mlds.OpenCodasylSession("university");
  ASSERT_TRUE(session.ok());
  kms::DmlMachine* m = *session;
  // Store a person, make it a student, and read it back.
  auto run = m->RunProgram(
      "MOVE 'Alice' TO pname IN person\n"
      "MOVE 30 TO age IN person\n"
      "STORE person\n"
      "MOVE 'CS' TO major IN student\n"
      "STORE student\n"
      "GET major IN student\n");
  ASSERT_TRUE(run.ok()) << run.status();
  const kms::DmlResult& got = run->back();
  ASSERT_EQ(got.records.size(), 1u);
  EXPECT_EQ(got.records[0].GetOrNull("major").AsString(), "CS");
}

TEST(MldsSystemTest, MbdsBackedSystemBehavesIdentically) {
  MldsSystem::Options options;
  options.backends = 4;
  MldsSystem mlds(options);
  ASSERT_NE(mlds.controller(), nullptr);
  ASSERT_TRUE(
      mlds.LoadFunctionalDatabase(university::kUniversityDaplexDdl).ok());
  auto session = mlds.OpenCodasylSession("university");
  ASSERT_TRUE(session.ok());
  auto run = (*session)->RunProgram(
      "MOVE 'Bob' TO pname IN person\n"
      "STORE person\n"
      "GET pname IN person\n");
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(run->back().records[0].GetOrNull("pname").AsString(), "Bob");
  EXPECT_GT(mlds.controller()->total_response_time_ms(), 0.0);
}

TEST(MldsSystemTest, TwoSessionsOnSameDatabaseShareData) {
  MldsSystem mlds;
  ASSERT_TRUE(
      mlds.LoadFunctionalDatabase(university::kUniversityDaplexDdl).ok());
  auto a = mlds.OpenCodasylSession("university");
  auto b = mlds.OpenCodasylSession("university");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  auto run = (*a)->RunProgram(
      "MOVE 'Carol' TO pname IN person\nSTORE person\n");
  ASSERT_TRUE(run.ok());
  // Session b sees session a's stored person; currencies are private.
  auto find = (*b)->RunProgram(
      "MOVE 'Carol' TO pname IN person\n"
      "FIND ANY person USING pname IN person\n");
  ASSERT_TRUE(find.ok()) << find.status();
  EXPECT_FALSE((*a)->cit().run_unit().has_value() &&
               (*a)->cit().run_unit()->record_type == "x");
}

TEST(MldsSystemTest, RejectsUnnamedSchemas) {
  MldsSystem mlds;
  EXPECT_EQ(mlds.LoadNetworkDatabase(
                    "RECORD NAME IS r; ITEM x TYPE IS INTEGER;")
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      mlds.LoadFunctionalDatabase("TYPE a IS ENTITY x : INTEGER; END ENTITY;")
          .code(),
      StatusCode::kInvalidArgument);
}

TEST(MldsSystemTest, OpenBindsAllFiveLanguagesThroughOneInterface) {
  MldsSystem mlds;
  ASSERT_TRUE(
      mlds.LoadFunctionalDatabase(university::kUniversityDaplexDdl).ok());
  ASSERT_TRUE(LoadAs(mlds, Model::kRelational, "payroll").ok());
  ASSERT_TRUE(LoadAs(mlds, Model::kHierarchical, "clinic").ok());
  struct Case {
    Language language;
    const char* database;
    const char* statement;
    /// Text the rendered answer must contain, if any.
    const char* shows = nullptr;
  };
  const Case cases[] = {
      {Language::kCodasyl, "university", "MOVE 'x' TO title IN course"},
      {Language::kDaplex, "university", "FOR EACH course PRINT title"},
      {Language::kSql, "payroll", "INSERT INTO r_tab (x) VALUES ('a')"},
      {Language::kDli, "clinic", "ISRT h_seg (x = 'a')"},
      {Language::kAbdl, "", "RETRIEVE ((FILE = r_tab)) (x)"},
      // A quote inside a literal is written doubled in every language,
      // the way KFS and ABDL print it: SQL stores O'Brien, SQL and ABDL
      // read it back, and the other three languages store and read it
      // back in their own databases.
      {Language::kSql, "payroll", "INSERT INTO r_tab (x) VALUES ('O''Brien')"},
      {Language::kSql, "payroll", "SELECT x FROM r_tab WHERE x = 'O''Brien'",
       "O'Brien"},
      {Language::kAbdl, "",
       "RETRIEVE ((FILE = r_tab) and (x = 'O''Brien')) (x)", "O'Brien"},
      {Language::kDaplex, "university",
       "CREATE course (title = 'O''Brien', semester = 'Fall88', credits = 3)"},
      {Language::kDaplex, "university",
       "FOR EACH course SUCH THAT title = 'O''Brien' PRINT title", "O'Brien"},
      {Language::kCodasyl, "university", "MOVE 'O''Brien' TO title IN course"},
      {Language::kCodasyl, "university",
       "FIND ANY course USING title IN course"},
      {Language::kCodasyl, "university", "GET title IN course", "O'Brien"},
      {Language::kDli, "clinic", "ISRT h_seg (x = \"O'Brien\")"},
      {Language::kDli, "clinic", "GU h_seg (x = 'O''Brien')", "O'Brien"},
  };
  // One session per (language, database), so CODASYL currency carries
  // from one row to the next.
  std::map<std::pair<Language, std::string>, std::unique_ptr<LanguageInterface>>
      sessions;
  for (const Case& c : cases) {
    std::unique_ptr<LanguageInterface>& session =
        sessions[{c.language, c.database}];
    if (session == nullptr) {
      auto opened = mlds.Open(c.language, c.database);
      ASSERT_TRUE(opened.ok()) << LanguageName(c.language);
      session = std::move(*opened);
    }
    auto rendered = session->Execute(c.statement, /*explain=*/false);
    ASSERT_TRUE(rendered.ok())
        << LanguageName(c.language) << ": " << rendered.status();
    if (c.shows != nullptr) {
      const std::string body = rendered->TakeBody();
      EXPECT_NE(body.find(c.shows), std::string::npos)
          << c.statement << " rendered:\n" << body;
    }
  }

  // EXPLAIN: SQL adds the prefix itself; Daplex has no explain form.
  auto sql = mlds.Open(Language::kSql, "payroll");
  ASSERT_TRUE(sql.ok());
  auto plan = (*sql)->Execute("SELECT x FROM r_tab", /*explain=*/true);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_NE(plan->body.find("QUERY PLAN"), std::string::npos);
  auto daplex = mlds.Open(Language::kDaplex, "university");
  ASSERT_TRUE(daplex.ok());
  EXPECT_EQ((*daplex)->Execute("FOR EACH course PRINT title", true)
                .status()
                .code(),
            StatusCode::kUnimplemented);

  // Each language needs a database of its own model.
  EXPECT_EQ(mlds.Open(Language::kSql, "university").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(mlds.Open(Language::kDaplex, "payroll").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(mlds.Open(Language::kCodasyl, "clinic").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(mlds.Open(Language::kNone, "university").status().code(),
            StatusCode::kInvalidArgument);

  // Typed access reaches the machine behind the interface.
  EXPECT_NE((*sql)->machine<kms::SqlMachine>(), nullptr);
  EXPECT_EQ((*sql)->machine<kms::DmlMachine>(), nullptr);
}

TEST(KfsFormatterTest, FormatsAlignedTable) {
  std::vector<abdm::Record> records;
  abdm::Record r1;
  r1.Set("FILE", abdm::Value::String("course"));
  r1.Set("course", abdm::Value::String("course_1"));
  r1.Set("title", abdm::Value::String("Databases"));
  r1.Set("credits", abdm::Value::Integer(4));
  records.push_back(r1);
  abdm::Record r2;
  r2.Set("FILE", abdm::Value::String("course"));
  r2.Set("course", abdm::Value::String("course_2"));
  r2.Set("title", abdm::Value::String("OS"));
  r2.Set("credits", abdm::Value::Null());
  records.push_back(r2);

  std::string table = kfs::FormatTable(records);
  // FILE keyword is hidden; null prints as '-'.
  EXPECT_EQ(table.find("FILE"), std::string::npos);
  EXPECT_NE(table.find("course_1"), std::string::npos);
  EXPECT_NE(table.find("Databases"), std::string::npos);
  EXPECT_NE(table.find("-"), std::string::npos);
  // Header + rule + 2 rows.
  EXPECT_EQ(std::count(table.begin(), table.end(), '\n'), 4);
}

TEST(KfsFormatterTest, RecordTypeOrdersColumns) {
  network::RecordType rt;
  rt.name = "course";
  rt.attributes = {{"title", network::AttrType::kString, 20, 0, true},
                   {"credits", network::AttrType::kInteger, 0, 0, true}};
  std::vector<abdm::Record> records;
  abdm::Record r;
  r.Set("credits", abdm::Value::Integer(4));
  r.Set("course", abdm::Value::String("course_1"));
  r.Set("title", abdm::Value::String("DB"));
  records.push_back(r);
  std::string table = kfs::FormatTable(records, &rt);
  // Key column first, then declared order.
  size_t key_pos = table.find("course");
  size_t title_pos = table.find("title");
  size_t credits_pos = table.find("credits");
  EXPECT_LT(key_pos, title_pos);
  EXPECT_LT(title_pos, credits_pos);
}

TEST(KfsFormatterTest, HideSetKeywords) {
  network::Schema schema("s");
  network::RecordType rt;
  rt.name = "student";
  rt.attributes = {{"major", network::AttrType::kString, 10, 0, true}};
  ASSERT_TRUE(schema.AddRecord(rt).ok());
  std::vector<abdm::Record> records;
  abdm::Record r;
  r.Set("student", abdm::Value::String("student_1"));
  r.Set("major", abdm::Value::String("CS"));
  r.Set("advisor", abdm::Value::String("faculty_2"));
  records.push_back(r);
  kfs::FormatOptions options;
  options.hide_set_keywords = true;
  std::string table =
      kfs::FormatTable(records, schema.FindRecord("student"), &schema, options);
  EXPECT_EQ(table.find("advisor"), std::string::npos);
  EXPECT_NE(table.find("major"), std::string::npos);
}

TEST(KfsFormatterTest, FormatRecordLines) {
  abdm::Record r;
  r.Set("FILE", abdm::Value::String("x"));
  r.Set("a", abdm::Value::Integer(1));
  std::string text = kfs::FormatRecord(r);
  EXPECT_EQ(text, "a: 1\n");
}

}  // namespace
}  // namespace mlds
