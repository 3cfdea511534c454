// Kernel-owned keys and uniqueness under concurrent sessions. Every
// language's insert is one kernel request that leaves its key and its
// unique check to the kernel, so no other session's insert can fall
// between a check and the write it guards:
//  - deterministic cases run one session's whole insert inside another's
//    (just before the outer one's kernel INSERT) and require distinct
//    keys, one winner per UNIQUE value, and a DL/I GNP that returns only
//    the parent's own children;
//  - a threaded stress runs N sessions x M inserts in SQL, CODASYL,
//    Daplex and DL/I at once, in-process and over the wire, on one engine
//    and on four MBDS backends, and checks the same properties.

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <ostream>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "client/client.h"
#include "kc/executor.h"
#include "kms/dli_machine.h"
#include "kms/dml_machine.h"
#include "kms/sql_machine.h"
#include "mlds/mlds.h"
#include "server/demo.h"
#include "server/server.h"

namespace mlds {
namespace {

/// Runs a callback once, just before the next INSERT it forwards: the
/// callback's whole statement then falls inside the statement that sent
/// the INSERT, after every request that statement issued before it.
class InterleavingExecutor : public kc::KernelExecutor {
 public:
  explicit InterleavingExecutor(kc::KernelExecutor* inner) : inner_(inner) {}

  void RunBeforeNextInsert(std::function<void()> fn) { pending_ = fn; }

  Status DefineDatabase(const abdm::DatabaseDescriptor& db) override {
    return inner_->DefineDatabase(db);
  }
  bool HasFile(std::string_view file) const override {
    return inner_->HasFile(file);
  }
  Result<kds::Response> Execute(const abdl::Request& request) override {
    const bool insert = std::holds_alternative<abdl::InsertRequest>(request);
    if (insert && pending_) std::exchange(pending_, nullptr)();
    return inner_->Execute(request);
  }
  Result<kds::Response> ExecuteTransaction(
      const abdl::Transaction& txn) override {
    return inner_->ExecuteTransaction(txn);
  }
  size_t FileSize(std::string_view file) const override {
    return inner_->FileSize(file);
  }
  Status CreateIndex(std::string_view file, std::string_view attr) override {
    return inner_->CreateIndex(file, attr);
  }
  kds::IntegrityReport VerifyIntegrity() const override {
    return inner_->VerifyIntegrity();
  }
  kds::KernelCounters Counters() const override { return inner_->Counters(); }

 private:
  kc::KernelExecutor* inner_;
  std::function<void()> pending_;
};

/// Every value of `attr` in `file`, with how many records hold it.
std::map<std::string, int> Census(kc::KernelExecutor* executor,
                                  const std::string& file,
                                  const std::string& attr) {
  auto resp = executor->Execute(
      abdl::RetrieveAttribute(abdm::Query::ForFile(file, {}), attr));
  EXPECT_TRUE(resp.ok()) << resp.status();
  std::map<std::string, int> census;
  if (!resp.ok()) return census;
  for (const abdm::Record& record : resp->records) {
    ++census[record.GetOrNull(attr).ToDisplayString()];
  }
  return census;
}

/// The values `census` holds more than once.
std::vector<std::string> Repeated(const std::map<std::string, int>& census) {
  std::vector<std::string> repeated;
  for (const auto& [value, count] : census) {
    if (count > 1) repeated.push_back(value);
  }
  return repeated;
}

// --- one statement inside another ---------------------------------------

class NestedInsertTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    MldsSystem::Options options;
    options.backends = GetParam();
    system_ = std::make_unique<MldsSystem>(options);
    ASSERT_TRUE(server::LoadDemoDatabases(system_.get()).ok());
    nested_ = std::make_unique<InterleavingExecutor>(system_->executor());
  }

  std::unique_ptr<MldsSystem> system_;
  std::unique_ptr<InterleavingExecutor> nested_;
};

TEST_P(NestedInsertTest, SqlInsertsGetDistinctKeysAndOneUniqueWinner) {
  kms::SqlMachine outer(system_->FindRelationalSchema("payroll"),
                        nested_.get());
  auto inner = system_->OpenSqlSession("payroll");
  ASSERT_TRUE(inner.ok()) << inner.status();
  std::string inner_info;
  nested_->RunBeforeNextInsert([&] {
    auto done = (*inner)->ExecuteText(
        "INSERT INTO staff (name, wage) VALUES ('inner', 1.0)");
    ASSERT_TRUE(done.ok()) << done.status();
    inner_info = done->info;
  });
  auto outer_done =
      outer.ExecuteText("INSERT INTO staff (name, wage) VALUES ('outer', 2.0)");
  ASSERT_TRUE(outer_done.ok()) << outer_done.status();
  EXPECT_NE(outer_done->info, inner_info);
  EXPECT_EQ(Repeated(Census(system_->executor(), "staff", "staff")),
            std::vector<std::string>{});

  // Both sessions insert the same UNIQUE name: exactly one wins.
  nested_->RunBeforeNextInsert([&] {
    EXPECT_TRUE((*inner)
                    ->ExecuteText(
                        "INSERT INTO staff (name, wage) VALUES ('same', 1.0)")
                    .ok());
  });
  auto loser =
      outer.ExecuteText("INSERT INTO staff (name, wage) VALUES ('same', 2.0)");
  ASSERT_FALSE(loser.ok());
  EXPECT_EQ(loser.status().message(), "INSERT violates UNIQUE(name) on 'staff'");
  EXPECT_EQ(Census(system_->executor(), "staff", "name")["same"], 1);
  EXPECT_EQ(Repeated(Census(system_->executor(), "staff", "staff")),
            std::vector<std::string>{});
}

TEST_P(NestedInsertTest, CodasylStoresKeepDuplicatesNotAllowed) {
  kms::DmlMachine outer(system_->NetworkViewOf("university"),
                        system_->MappingOf("university"), nested_.get());
  auto inner = system_->OpenCodasylSession("university");
  ASSERT_TRUE(inner.ok()) << inner.status();
  const std::string move =
      "MOVE 'Race Course' TO title IN course\n"
      "MOVE 'Race88' TO semester IN course\n"
      "MOVE 3 TO credits IN course\n";
  ASSERT_TRUE(outer.RunProgram(move).ok());
  ASSERT_TRUE((*inner)->RunProgram(move).ok());
  nested_->RunBeforeNextInsert(
      [&] { EXPECT_TRUE((*inner)->ExecuteText("STORE course").ok()); });
  auto loser = outer.ExecuteText("STORE course");
  ASSERT_FALSE(loser.ok());
  EXPECT_TRUE(loser.status().IsConstraintViolation()) << loser.status();
  EXPECT_EQ(Census(system_->executor(), "course", "title")["Race Course"], 1);

  // A distinct title: both store, under distinct keys.
  ASSERT_TRUE(outer.ExecuteText("MOVE 'Outer Course' TO title IN course").ok());
  ASSERT_TRUE(
      (*inner)->ExecuteText("MOVE 'Inner Course' TO title IN course").ok());
  nested_->RunBeforeNextInsert(
      [&] { EXPECT_TRUE((*inner)->ExecuteText("STORE course").ok()); });
  ASSERT_TRUE(outer.ExecuteText("STORE course").ok());
  EXPECT_EQ(Repeated(Census(system_->executor(), "course", "course")),
            std::vector<std::string>{});
}

TEST_P(NestedInsertTest, DliParentsKeepTheirOwnChildren) {
  kms::DliMachine outer(system_->FindHierarchicalSchema("clinic"),
                        nested_.get());
  auto inner = system_->OpenDliSession("clinic");
  ASSERT_TRUE(inner.ok()) << inner.status();
  // The inner session's patient and its visit fall inside the outer
  // session's ISRT patient.
  nested_->RunBeforeNextInsert([&] {
    EXPECT_TRUE((*inner)->ExecuteText("ISRT patient (pname = 'inner')").ok());
    EXPECT_TRUE((*inner)
                    ->ExecuteText("ISRT visit (vdate = 'in', cost = 1.0)")
                    .ok());
  });
  ASSERT_TRUE(outer.ExecuteText("ISRT patient (pname = 'outer')").ok());
  ASSERT_TRUE(outer.ExecuteText("ISRT visit (vdate = 'out', cost = 2.0)").ok());
  EXPECT_EQ(Repeated(Census(system_->executor(), "patient", "patient")),
            std::vector<std::string>{});

  ASSERT_TRUE(outer.ExecuteText("GU patient (pname = 'outer')").ok());
  auto first = outer.ExecuteText("GNP visit");
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_EQ(first->segments.size(), 1u);
  EXPECT_EQ(first->segments[0].GetOrNull("vdate").ToDisplayString(), "out");
  EXPECT_FALSE(outer.ExecuteText("GNP visit").ok());
}

INSTANTIATE_TEST_SUITE_P(Backends, NestedInsertTest, ::testing::Values(0, 4),
                         [](const auto& info) {
                           return "Backends" + std::to_string(info.param);
                         });

// --- N sessions x M inserts at once --------------------------------------

constexpr int kSessions = 4;
constexpr int kInserts = 24;

/// One session of each language, in-process or over the wire.
class Sessions {
 public:
  virtual ~Sessions() = default;
  /// Runs `statement` in `language`; the rendered body, or the error.
  virtual Result<std::string> Run(Language language,
                                  const std::string& statement) = 0;
};

class InProcessSessions : public Sessions {
 public:
  static Result<std::unique_ptr<Sessions>> Open(MldsSystem* system) {
    auto sessions = std::make_unique<InProcessSessions>();
    for (auto [language, db] : kDatabases) {
      MLDS_ASSIGN_OR_RETURN(sessions->open_[language],
                            system->Open(language, db));
    }
    return std::unique_ptr<Sessions>(std::move(sessions));
  }

  Result<std::string> Run(Language language,
                          const std::string& statement) override {
    MLDS_ASSIGN_OR_RETURN(Rendered rendered,
                          open_[language]->Execute(statement, false));
    return rendered.TakeBody();
  }

  static constexpr std::pair<Language, const char*> kDatabases[] = {
      {Language::kSql, "payroll"},
      {Language::kCodasyl, "university"},
      {Language::kDaplex, "university"},
      {Language::kDli, "clinic"}};

 private:
  std::map<Language, std::unique_ptr<LanguageInterface>> open_;
};

class WireSessions : public Sessions {
 public:
  static Result<std::unique_ptr<Sessions>> Open(uint16_t port) {
    auto sessions = std::make_unique<WireSessions>();
    for (auto [language, db] : InProcessSessions::kDatabases) {
      auto& client = sessions->open_[language];
      client = std::make_unique<client::MldsClient>();
      MLDS_RETURN_IF_ERROR(client->Connect("127.0.0.1", port));
      MLDS_RETURN_IF_ERROR(client->Use(LanguageName(language), db));
    }
    return std::unique_ptr<Sessions>(std::move(sessions));
  }

  Result<std::string> Run(Language language,
                          const std::string& statement) override {
    MLDS_ASSIGN_OR_RETURN(wire::ExecuteResult result,
                          open_[language]->Execute(statement));
    return result.body;
  }

 private:
  std::map<Language, std::unique_ptr<client::MldsClient>> open_;
};

struct StressParam {
  int backends;
  bool wire;
};

void PrintTo(const StressParam& param, std::ostream* out) {
  *out << (param.wire ? "wire" : "in-process") << ", " << param.backends
       << " backends";
}

class InsertStressTest : public ::testing::TestWithParam<StressParam> {
 protected:
  void SetUp() override {
    MldsSystem::Options options;
    options.backends = GetParam().backends;
    system_ = std::make_unique<MldsSystem>(options);
    ASSERT_TRUE(server::LoadDemoDatabases(system_.get()).ok());
    if (GetParam().wire) {
      server::ServerOptions server_options;
      server_options.max_sessions = 4 * (kSessions + 1);  // + a reader
      server_options.worker_threads = 4;
      server_ = std::make_unique<server::MldsServer>(system_.get(),
                                                     server_options);
      ASSERT_TRUE(server_->Start().ok());
    }
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Shutdown();
  }

  Result<std::unique_ptr<Sessions>> OpenSessions() {
    if (server_ != nullptr) return WireSessions::Open(server_->port());
    return InProcessSessions::Open(system_.get());
  }

  std::unique_ptr<MldsSystem> system_;
  std::unique_ptr<server::MldsServer> server_;
};

TEST_P(InsertStressTest, KeysNeverRepeatAndEveryUniqueHolds) {
  std::vector<std::unique_ptr<Sessions>> sessions;
  for (int s = 0; s < kSessions; ++s) {
    auto opened = OpenSessions();
    ASSERT_TRUE(opened.ok()) << opened.status();
    sessions.push_back(std::move(*opened));
  }
  // Per session: its own rows in every language, plus, in SQL and
  // CODASYL, one UNIQUE value per round that every session tries.
  std::vector<std::string> errors(kSessions);
  std::atomic<int> unique_wins{0};
  std::vector<std::thread> threads;
  for (int s = 0; s < kSessions; ++s) {
    threads.emplace_back([&, s] {
      Sessions& session = *sessions[s];
      auto must = [&](Language language, const std::string& statement) {
        auto body = session.Run(language, statement);
        if (!body.ok() && errors[s].empty()) {
          errors[s] = statement + ": " + body.status().ToString();
        }
        return body.ok();
      };
      for (int i = 0; i < kInserts; ++i) {
        const std::string tag = std::to_string(s) + "_" + std::to_string(i);
        must(Language::kSql, "INSERT INTO staff (name, wage) VALUES ('s" +
                                 tag + "', 1.0)");
        unique_wins += session
                           .Run(Language::kSql,
                                "INSERT INTO staff (name, wage) VALUES ('u" +
                                    std::to_string(i) + "', 2.0)")
                           .ok();
        must(Language::kCodasyl, "MOVE 'c" + tag + "' TO title IN course");
        must(Language::kCodasyl, "MOVE 'Race' TO semester IN course");
        must(Language::kCodasyl, "STORE course");
        must(Language::kCodasyl,
             "MOVE 'cu" + std::to_string(i) + "' TO title IN course");
        unique_wins += session.Run(Language::kCodasyl, "STORE course").ok();
        must(Language::kDaplex,
             "CREATE person (pname = 'p" + tag + "', age = 30)");
        must(Language::kDli, "ISRT patient (pname = 'd" + tag + "')");
        must(Language::kDli, "ISRT visit (vdate = 'v" + tag + "', cost = 1.0)");
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int s = 0; s < kSessions; ++s) EXPECT_EQ(errors[s], "") << s;
  // One winner per contended SQL name and per contended CODASYL title.
  EXPECT_EQ(unique_wins.load(), 2 * kInserts);

  kc::KernelExecutor* kernel = system_->executor();
  for (const char* file : {"staff", "course", "person", "patient", "visit"}) {
    EXPECT_EQ(Repeated(Census(kernel, file, file)), std::vector<std::string>{})
        << file;
  }
  const auto names = Census(kernel, "staff", "name");
  const auto titles = Census(kernel, "course", "title");
  for (int i = 0; i < kInserts; ++i) {
    EXPECT_EQ(names.at("u" + std::to_string(i)), 1) << i;
    EXPECT_EQ(titles.at("cu" + std::to_string(i)), 1) << i;
  }
  EXPECT_EQ(kernel->FileSize("staff"), 3u + (kSessions + 1) * kInserts);

  // Each patient's GNP returns its own visit and nothing else.
  auto reader = OpenSessions();
  ASSERT_TRUE(reader.ok()) << reader.status();
  for (int s = 0; s < kSessions; ++s) {
    for (int i = 0; i < kInserts; ++i) {
      const std::string tag = std::to_string(s) + "_" + std::to_string(i);
      ASSERT_TRUE(
          (*reader)->Run(Language::kDli, "GU patient (pname = 'd" + tag + "')")
              .ok());
      auto visit = (*reader)->Run(Language::kDli, "GNP visit");
      ASSERT_TRUE(visit.ok()) << tag << ": " << visit.status();
      EXPECT_NE(visit->find("v" + tag), std::string::npos) << *visit;
      EXPECT_FALSE((*reader)->Run(Language::kDli, "GNP visit").ok()) << tag;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, InsertStressTest,
    ::testing::Values(StressParam{0, false}, StressParam{4, false},
                      StressParam{0, true}, StressParam{4, true}),
    [](const auto& info) {
      return std::string(info.param.wire ? "Wire" : "InProcess") +
             "Backends" + std::to_string(info.param.backends);
    });

}  // namespace
}  // namespace mlds
