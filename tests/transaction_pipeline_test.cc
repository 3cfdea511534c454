// MBDS transactions: statements run in program order, as on one engine,
// merged reports are deterministic across runs, and a failing statement
// leaves the same state at every backend count.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "abdl/parser.h"
#include "abdl/request.h"
#include "kds/engine.h"
#include "mbds/controller.h"

namespace mlds::mbds {
namespace {

abdm::FileDescriptor MakeFile(const std::string& name) {
  abdm::FileDescriptor f;
  f.name = name;
  f.attributes = {{"FILE", abdm::ValueKind::kString, 0, true},
                  {"key", abdm::ValueKind::kInteger, 0, true},
                  {"v", abdm::ValueKind::kInteger, 0, false}};
  return f;
}

abdl::Request MustParse(const std::string& text) {
  auto r = abdl::ParseRequest(text);
  EXPECT_TRUE(r.ok()) << text << ": " << r.status();
  return *r;
}

MbdsOptions MakeOptions(int backends) {
  MbdsOptions options;
  options.num_backends = backends;
  return options;
}

void Load(Controller* c, int records_per_file) {
  for (const char* file : {"alpha", "beta"}) {
    EXPECT_TRUE(c->DefineFile(MakeFile(file)).ok());
    for (int i = 0; i < records_per_file; ++i) {
      auto report = c->Execute(MustParse("INSERT (<FILE, " + std::string(file) +
                                         ">, <key, " + std::to_string(i) +
                                         ">, <v, 0>)"));
      EXPECT_TRUE(report.ok()) << report.status();
    }
  }
}

TEST(TransactionPipelineTest, ConflictingStatementsObserveProgramOrder) {
  Controller c(MakeOptions(2));
  Load(&c, 10);
  // UPDATE then RETRIEVE of the same file: the read must see the write.
  auto txn = abdl::ParseTransaction(
      "UPDATE ((FILE = alpha)) (v = 7); "
      "RETRIEVE ((FILE = alpha) and (v = 7)) (key)");
  ASSERT_TRUE(txn.ok());
  auto report = c.ExecuteTransaction(*txn);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->response.records.size(), 10u);
}

TEST(TransactionPipelineTest, WriteAfterReadObservesProgramOrder) {
  Controller c(MakeOptions(2));
  Load(&c, 10);
  // RETRIEVE then DELETE: the read runs first and still sees all rows.
  auto txn = abdl::ParseTransaction(
      "RETRIEVE ((FILE = alpha)) (key); DELETE ((FILE = alpha))");
  ASSERT_TRUE(txn.ok());
  auto report = c.ExecuteTransaction(*txn);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->response.records.size(), 10u);
  EXPECT_EQ(report->response.affected, 10u);
  EXPECT_EQ(c.FileSize("alpha"), 0u);
}

TEST(TransactionPipelineTest, DeterministicMergeAcrossRepeatedRuns) {
  // Independent statements (different files) pipeline concurrently, yet
  // every run must merge records and counts in statement order.
  Controller c(MakeOptions(3));
  Load(&c, 12);
  auto txn = abdl::ParseTransaction(
      "RETRIEVE ((FILE = alpha)) (key) BY key; "
      "RETRIEVE ((FILE = beta)) (key) BY key");
  ASSERT_TRUE(txn.ok());

  auto first = c.ExecuteTransaction(*txn);
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->response.records.size(), 24u);
  for (int run = 0; run < 20; ++run) {
    auto report = c.ExecuteTransaction(*txn);
    ASSERT_TRUE(report.ok());
    ASSERT_EQ(report->response.records.size(), 24u);
    for (size_t i = 0; i < 24; ++i) {
      EXPECT_EQ(report->response.records[i].ToString(),
                first->response.records[i].ToString())
          << "run " << run << " record " << i;
    }
    EXPECT_DOUBLE_EQ(report->response_time_ms, first->response_time_ms);
  }
}

TEST(TransactionPipelineTest, ErrorsReportLowestStatementIndex) {
  Controller c(MakeOptions(2));
  Load(&c, 4);
  // Two independent statements in one stage; the failing one (INSERT
  // into an undefined file) must surface its error deterministically.
  abdl::Transaction txn;
  txn.push_back(MustParse("RETRIEVE ((FILE = alpha)) (key)"));
  txn.push_back(MustParse("INSERT (<FILE, missing>, <key, 1>, <v, 0>)"));
  auto report = c.ExecuteTransaction(txn);
  EXPECT_FALSE(report.ok());
}

TEST(TransactionPipelineTest, FailureLeavesSameStateAtEveryBackendCount) {
  // The first statement fails; the second, on another file, must not run
  // at any backend count, as on one engine.
  abdl::Transaction txn;
  txn.push_back(MustParse("INSERT (<FILE, missing>, <key, 1>, <v, 0>)"));
  txn.push_back(MustParse("INSERT (<FILE, beta>, <key, 1>, <v, 0>)"));

  kds::Engine engine;
  ASSERT_TRUE(engine.DefineFile(MakeFile("alpha")).ok());
  ASSERT_TRUE(engine.DefineFile(MakeFile("beta")).ok());
  auto single = engine.ExecuteTransaction(txn);
  ASSERT_FALSE(single.ok());
  EXPECT_EQ(engine.FileSize("beta"), 0u);

  for (int backends : {1, 4}) {
    SCOPED_TRACE(std::to_string(backends) + " backends");
    Controller c(MakeOptions(backends));
    Load(&c, 0);
    auto report = c.ExecuteTransaction(txn);
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(report.status().code(), single.status().code());
    EXPECT_EQ(report.status().message(), single.status().message());
    EXPECT_EQ(c.FileSize("beta"), 0u);
  }
}

}  // namespace
}  // namespace mlds::mbds
