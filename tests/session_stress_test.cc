// Concurrent-session stress: N client threads hammer one server, mixing
// all four language interfaces, and assert session isolation — each
// session's language binding, CODASYL currency/UWA, and DL/I position
// are private to its connection even while other sessions execute
// concurrently against the same kernel.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "client/client.h"
#include "mlds/mlds.h"
#include "server/demo.h"
#include "server/server.h"

namespace mlds {
namespace {

constexpr int kThreads = 8;
constexpr int kRounds = 25;

/// Distinct course titles from the demo university database, one per
/// stress thread: if CODASYL UWA/currency leaked across sessions, a
/// thread would GET a title it never MOVEd.
const char* kCourseTitles[kThreads] = {
    "Advanced Database", "Operating Sys", "Networks",  "Compilers",
    "Algorithms",        "Architecture",  "Graphics",  "AI",
};

class SessionStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(server::LoadDemoDatabases(&system_).ok());
    server::ServerOptions options;
    options.max_sessions = kThreads + 2;
    server_ = std::make_unique<server::MldsServer>(&system_, options);
    ASSERT_TRUE(server_->Start().ok());
  }

  void TearDown() override { server_->Shutdown(); }

  MldsSystem system_;
  std::unique_ptr<server::MldsServer> server_;
};

TEST_F(SessionStressTest, ConcurrentSessionsStayIsolated) {
  std::atomic<int> failures{0};
  std::vector<std::string> errors(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);

  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto fail = [&](const std::string& what) {
        errors[t] = what;
        failures.fetch_add(1);
      };
      client::MldsClient client;
      const Status connected =
          client.Connect("127.0.0.1", server_->port());
      if (!connected.ok()) return fail(connected.ToString());
      const std::string title = kCourseTitles[t];
      // DL/I position: even threads sit on smith, odd on jones.
      const char* patient = (t % 2 == 0) ? "smith" : "jones";
      const size_t expected_visits = (t % 2 == 0) ? 2 : 1;

      for (int round = 0; round < kRounds; ++round) {
        // CODASYL: this session's UWA and currency only.
        if (!client.Use("codasyl", "university").ok()) {
          return fail("use codasyl");
        }
        if (!client.Execute("MOVE '" + title + "' TO title IN course")
                 .ok()) {
          return fail("MOVE");
        }
        Result<wire::ExecuteResult> found =
            client.Execute("FIND ANY course USING title IN course");
        if (!found.ok()) return fail("FIND: " + found.status().ToString());
        Result<wire::ExecuteResult> got = client.Execute("GET");
        if (!got.ok()) return fail("GET: " + got.status().ToString());
        if (got->body.find(title) == std::string::npos) {
          return fail("currency leak: GET after FIND '" + title +
                      "' returned: " + got->body);
        }

        // SQL: deterministic read on a different database.
        if (!client.Use("sql", "payroll").ok()) return fail("use sql");
        Result<wire::ExecuteResult> rows =
            client.Execute("SELECT name FROM staff WHERE wage > 90");
        if (!rows.ok()) return fail("SELECT");
        if (rows->body.find("ada") == std::string::npos) {
          return fail("sql result drifted: " + rows->body);
        }

        // Daplex: functional query against the shared university DB.
        if (!client.Use("daplex", "university").ok()) {
          return fail("use daplex");
        }
        Result<wire::ExecuteResult> courses = client.Execute(
            "FOR EACH course SUCH THAT title = '" + title +
            "' PRINT title");
        if (!courses.ok()) return fail("FOR EACH");
        if (courses->body.find(title) == std::string::npos) {
          return fail("daplex result drifted: " + courses->body);
        }

        // DL/I: this session's hierarchical position only.
        if (!client.Use("dli", "clinic").ok()) return fail("use dli");
        Result<wire::ExecuteResult> gu = client.Execute(
            std::string("GU patient (pname = '") + patient + "')");
        if (!gu.ok()) return fail("GU");
        size_t visits = 0;
        while (true) {
          Result<wire::ExecuteResult> gnp = client.Execute("GNP visit");
          if (!gnp.ok()) break;  // end of children
          ++visits;
          if (visits > expected_visits) break;
        }
        if (visits != expected_visits) {
          return fail("position leak: " + std::string(patient) +
                      " yielded " + std::to_string(visits) + " visits");
        }
      }
      const Status closed = client.Close();
      if (!closed.ok()) fail("close: " + closed.ToString());
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(errors[t].empty()) << "thread " << t << ": " << errors[t];
  }
  EXPECT_EQ(failures.load(), 0);

  const wire::StatsReply stats = server_->stats();
  EXPECT_GE(stats.sessions_accepted, static_cast<uint64_t>(kThreads));
  EXPECT_EQ(stats.bad_frames, 0u);
  EXPECT_EQ(stats.sessions_active, 0u);
}

/// Sessions keep distinct languages bound simultaneously: one session
/// speaking SQL must not disturb another mid-CODASYL-scan.
TEST_F(SessionStressTest, InterleavedLanguagesAcrossTwoSessions) {
  client::MldsClient codasyl, sql;
  ASSERT_TRUE(codasyl.Connect("127.0.0.1", server_->port()).ok());
  ASSERT_TRUE(sql.Connect("127.0.0.1", server_->port()).ok());
  ASSERT_TRUE(codasyl.Use("codasyl", "university").ok());
  ASSERT_TRUE(sql.Use("sql", "payroll").ok());

  ASSERT_TRUE(
      codasyl.Execute("MOVE 'Networks' TO title IN course").ok());
  ASSERT_TRUE(
      codasyl.Execute("FIND ANY course USING title IN course").ok());
  // The SQL session runs statements between the CODASYL FIND and GET.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(sql.Execute("SELECT name FROM staff").ok());
  }
  Result<wire::ExecuteResult> got = codasyl.Execute("GET");
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_NE(got->body.find("Networks"), std::string::npos);
}

}  // namespace
}  // namespace mlds
