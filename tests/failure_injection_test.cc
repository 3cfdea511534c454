// Failure injection: a kernel executor that fails on command (the shared
// kc::FaultyExecutor), verifying that the language interfaces propagate
// kernel failures as clean Status values, never crash, and remain usable
// after the fault clears; and that a DL/I DLET or Daplex DESTROY cascade
// faulted at any kernel request leaves its subtree whole or wholly gone,
// and a Daplex UPDATE changes all of its selection or none.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "abdl/parser.h"
#include "daplex/ddl_parser.h"
#include "kc/faulty_executor.h"
#include "kds/engine.h"
#include "kms/daplex_machine.h"
#include "kms/dli_machine.h"
#include "kms/dml_machine.h"
#include "mlds/mlds.h"
#include "university/university.h"

namespace mlds {
namespace {

using kc::FaultyExecutor;

class FailureInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    inner_ = std::make_unique<kc::EngineExecutor>(&engine_);
    faulty_ = std::make_unique<FaultyExecutor>(inner_.get());
    university::UniversityConfig config;
    auto db = university::BuildUniversityDatabase(config, faulty_.get());
    ASSERT_TRUE(db.ok()) << db.status();
    db_ = std::make_unique<university::UniversityDatabase>(std::move(*db));
    machine_ = std::make_unique<kms::DmlMachine>(&db_->mapping.schema,
                                                 &db_->mapping, faulty_.get());
  }

  kds::Engine engine_;
  std::unique_ptr<kc::EngineExecutor> inner_;
  std::unique_ptr<FaultyExecutor> faulty_;
  std::unique_ptr<university::UniversityDatabase> db_;
  std::unique_ptr<kms::DmlMachine> machine_;
};

TEST_F(FailureInjectionTest, FindPropagatesKernelFault) {
  faulty_->set_fail_after(0);
  auto result = machine_->RunProgram(
      "MOVE 'Advanced Database' TO title IN course\n"
      "FIND ANY course USING title IN course\n");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
}

TEST_F(FailureInjectionTest, MachineRecoversAfterFaultClears) {
  faulty_->set_fail_after(0);
  ASSERT_FALSE(machine_->ExecuteText("FIND FIRST person WITHIN system_person")
                   .ok());
  faulty_->set_fail_after(-1);
  auto retry =
      machine_->ExecuteText("FIND FIRST person WITHIN system_person");
  EXPECT_TRUE(retry.ok()) << retry.status();
}

TEST_F(FailureInjectionTest, StoreFailingMidTranslationInsertsNothing) {
  const size_t before = engine_.FileSize("course");
  // STORE course issues one request: the INSERT, which carries its key
  // and duplicates check to the kernel. Failing it inserts nothing.
  auto program =
      "MOVE 'Fault Course' TO title IN course\n"
      "MOVE 'FaultSem' TO semester IN course\n"
      "MOVE 1 TO credits IN course\n";
  ASSERT_TRUE(machine_->RunProgram(program).ok());
  faulty_->set_fail_after(0);
  auto store = machine_->ExecuteText("STORE course");
  ASSERT_FALSE(store.ok());
  EXPECT_EQ(store.status().code(), StatusCode::kInternal);
  faulty_->set_fail_after(-1);
  EXPECT_EQ(engine_.FileSize("course"), before);
  // The run-unit currency was not corrupted by the failed STORE.
  EXPECT_FALSE(machine_->cit().run_unit().has_value());
  // And a clean retry works.
  auto retry = machine_->ExecuteText("STORE course");
  EXPECT_TRUE(retry.ok()) << retry.status();
}

TEST_F(FailureInjectionTest, ConnectFailingMidFlightReportsError) {
  ASSERT_TRUE(machine_
                  ->RunProgram(
                      "MOVE 'faculty_3' TO faculty IN faculty\n"
                      "FIND ANY faculty USING faculty IN faculty\n"
                      "MOVE 'student_5' TO student IN student\n"
                      "FIND ANY student USING student IN student\n")
                  .ok());
  faulty_->set_fail_after(0);
  auto connect = machine_->ExecuteText("CONNECT student TO advisor");
  ASSERT_FALSE(connect.ok());
  EXPECT_EQ(connect.status().code(), StatusCode::kInternal);
}

TEST_F(FailureInjectionTest, DaplexQueryPropagatesFault) {
  kms::DaplexMachine daplex(&db_->functional, &db_->mapping.schema,
                            &db_->mapping, faulty_.get());
  faulty_->set_fail_after(0);
  auto rows = daplex.ExecuteText("FOR EACH course PRINT title");
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kInternal);
  faulty_->set_fail_after(-1);
  EXPECT_TRUE(daplex.ExecuteText("FOR EACH course PRINT title").ok());
}

TEST_F(FailureInjectionTest, HealthReportsDegradedWhileFailing) {
  kc::KernelHealth healthy = faulty_->Health();
  EXPECT_FALSE(healthy.degraded);
  ASSERT_FALSE(healthy.backends.empty());
  EXPECT_EQ(healthy.backends.front().state, "healthy");

  faulty_->set_fail_after(0);
  kc::KernelHealth degraded = faulty_->Health();
  EXPECT_TRUE(degraded.degraded);
  EXPECT_EQ(degraded.backends.front().state, "suspect");
  EXPECT_EQ(degraded.backends.front().last_fault, "injected kernel fault");

  faulty_->set_fail_after(-1);
  EXPECT_FALSE(faulty_->Health().degraded);
}

TEST_F(FailureInjectionTest, InheritedJoinFaultMidQuery) {
  kms::DaplexMachine daplex(&db_->functional, &db_->mapping.schema,
                            &db_->mapping, faulty_.get());
  // The inherited-print query issues a base fetch then an ancestor fetch;
  // fail the second.
  faulty_->set_fail_after(1);
  auto rows = daplex.ExecuteText("FOR EACH student PRINT pname");
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kInternal);
}

TEST_F(FailureInjectionTest, TransactionFailsWholeWhileArmed) {
  const size_t before = engine_.FileSize("course");
  auto txn = abdl::ParseTransaction(
      "INSERT (<FILE, course>, <course, 'course_txn'>, <title, 'Txn'>); "
      "DELETE ((FILE = course) and (course = 'course_txn'))");
  ASSERT_TRUE(txn.ok()) << txn.status();
  faulty_->set_fail_after(0);
  auto failed = faulty_->ExecuteTransaction(*txn);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kInternal);
  EXPECT_EQ(engine_.FileSize("course"), before);
  faulty_->set_fail_after(-1);
  auto committed = faulty_->ExecuteTransaction(*txn);
  ASSERT_TRUE(committed.ok()) << committed.status();
  EXPECT_EQ(committed->affected, 2u);
  EXPECT_EQ(engine_.FileSize("course"), before);
}

TEST_F(FailureInjectionTest, StorageCallsPassThrough) {
  // Only requests fail; index builds, scrubs and counters reach the
  // inner kernel even while armed.
  faulty_->set_fail_after(0);
  EXPECT_TRUE(faulty_->CreateIndex("course", "credits").ok());
  EXPECT_EQ(faulty_->VerifyIntegrity().files.size(),
            inner_->VerifyIntegrity().files.size());
  EXPECT_FALSE(faulty_->VerifyIntegrity().files.empty());
  EXPECT_EQ(faulty_->Counters(), inner_->Counters());
}

// --- Set-at-a-time cascades ---

constexpr char kClinicDdl[] = R"(
SCHEMA clinic;
SEGMENT patient;
  FIELD pname CHAR(20);
SEGMENT visit PARENT patient;
  FIELD vdate CHAR(8);
SEGMENT treatment PARENT visit;
  FIELD drug CHAR(12);
)";

/// A three-level subtype chain: c ISA b ISA a.
constexpr char kChainDdl[] = R"(
SCHEMA chain;
TYPE a IS ENTITY
  av : INTEGER;
END ENTITY;
TYPE b IS SUBTYPE OF a
  bv : INTEGER;
END SUBTYPE;
TYPE c IS SUBTYPE OF b
  cv : INTEGER;
END SUBTYPE;
)";

/// One cascade statement. A DL/I row runs DLET after the GU `position`
/// over the clinic; a Daplex row (no position) runs `statement` over the
/// chain.
struct CascadeRow {
  const char* position;
  const char* statement;
  /// The fault sweep's last index: the kernel calls a per-record cascade
  /// makes here (a key RETRIEVE per non-leaf record, a DELETE per
  /// record), so the sweep covers every index at which one could fault.
  int record_calls;
  /// Kernel calls of the cascade: key RETRIEVEs plus one transaction.
  int kernel_calls;
  /// Kernel records deleted, and DELETE statements in the transaction.
  size_t deleted;
  size_t deletes;
};

const CascadeRow kCascadeRows[] = {
    // smith: 10 visits x 10 treatments. One visit key RETRIEVE, then
    // DELETE treatment, visit and patient in one transaction.
    {"GU patient (pname = 'smith')", "DLET", 122, 2, 111, 3},
    // A childless patient: its visit RETRIEVE finds no key, so neither
    // visit nor treatment gets a DELETE.
    {"GU patient (pname = 'lone')", "DLET", 2, 2, 1, 1},
    // A leaf segment: one DELETE, nothing to collect.
    {"GU patient (pname = 'jones') visit treatment", "DLET", 1, 1, 1, 1},
    // 6 a entities with 5 b and 5 c below them: the selection, one b key
    // RETRIEVE (c is a leaf with no references to check, so it is deleted
    // by the b keys), then DELETE c, b and a in one transaction.
    {nullptr, "DESTROY a SUCH THAT av < 6", 28, 3, 16, 3},
};

/// Each cascade row at every fault index from 0 to its record_calls, over
/// 0 and 4 MBDS backends: the statement either reports the fault and
/// deletes nothing, or succeeds and deletes the whole subtree. It succeeds
/// from exactly kernel_calls on, which pins the row's call count.
class CascadeFaultTest : public ::testing::TestWithParam<int> {
 protected:
  struct Run {
    Result<size_t> deleted = size_t{0};
    std::vector<std::string> trace;
  };

  /// A fresh kernel at GetParam() backends behind a fault injector, with
  /// the row's database loaded unfaulted.
  void Open(const CascadeRow& row) {
    MldsSystem::Options options;
    options.backends = GetParam();
    system_ = std::make_unique<MldsSystem>(options);
    faulty_ = std::make_unique<FaultyExecutor>(system_->executor());
    if (row.position != nullptr) {
      LoadClinic();
    } else {
      LoadChain();
    }
  }

  void LoadClinic() {
    ASSERT_TRUE(system_->LoadHierarchicalDatabase(kClinicDdl).ok());
    auto session = system_->OpenDliSession("clinic");
    ASSERT_TRUE(session.ok()) << session.status();
    kms::DliMachine* dli = *session;
    auto run = [&](const std::string& call) {
      auto outcome = dli->ExecuteText(call);
      ASSERT_TRUE(outcome.ok()) << call << ": " << outcome.status();
    };
    auto batch = [&](const std::string& call, int rows) {
      std::vector<std::vector<abdm::Value>> values;
      for (int i = 0; i < rows; ++i) {
        values.push_back({abdm::Value::String("x" + std::to_string(i))});
      }
      auto outcome = dli->ExecuteBatch(call, values);
      ASSERT_TRUE(outcome.ok()) << call << ": " << outcome.status();
    };
    run("ISRT patient (pname = 'smith')");
    batch("ISRT visit (vdate = ?)", 10);
    for (int v = 0; v < 10; ++v) {
      run("GU patient (pname = 'smith') visit (vdate = 'x" +
          std::to_string(v) + "')");
      batch("ISRT treatment (drug = ?)", 10);
    }
    run("ISRT patient (pname = 'jones')");
    run("ISRT visit (vdate = 'j')");
    run("ISRT treatment (drug = 'j')");
    run("ISRT patient (pname = 'lone')");
  }

  void LoadChain() {
    ASSERT_TRUE(system_->LoadFunctionalDatabase(kChainDdl).ok());
    auto session = system_->OpenDaplexSession("chain");
    ASSERT_TRUE(session.ok()) << session.status();
    auto create = [&](const std::string& text) {
      auto outcome = (*session)->ExecuteStatement(text);
      EXPECT_TRUE(outcome.ok()) << text << ": " << outcome.status();
      return outcome.ok() ? outcome->info.substr(8) : "";
    };
    // 12 a, 10 b over distinct a's and 10 c over distinct b's, linked out
    // of key order.
    std::vector<std::string> as, bs;
    for (int i = 0; i < 12; ++i) {
      as.push_back(create("CREATE a (av = " + std::to_string(i) + ")"));
    }
    for (int j = 0; j < 10; ++j) {
      bs.push_back(create("CREATE b (a = '" + as[(5 * j + 3) % 12] +
                          "', bv = " + std::to_string(j) + ")"));
    }
    for (int i = 0; i < 10; ++i) {
      create("CREATE c (b = '" + bs[(3 * i + 1) % 10] +
             "', cv = " + std::to_string(i) + ")");
    }
    auto functional = daplex::ParseFunctionalSchema(kChainDdl);
    ASSERT_TRUE(functional.ok()) << functional.status();
    functional_ = std::make_unique<daplex::FunctionalSchema>(*functional);
  }

  /// Kernel records in the row's database.
  size_t Records(const CascadeRow& row) const {
    size_t total = 0;
    for (const char* file : row.position != nullptr
                                ? std::vector<const char*>{"patient", "visit",
                                                           "treatment"}
                                : std::vector<const char*>{"a", "b", "c"}) {
      total += system_->executor()->FileSize(file);
    }
    return total;
  }

  /// Runs the row's statement through a machine on the fault injector,
  /// armed to fail after `n` kernel calls of the statement.
  Run Execute(const CascadeRow& row, int n) {
    Run run;
    if (row.position != nullptr) {
      kms::DliMachine machine(system_->FindHierarchicalSchema("clinic"),
                              faulty_.get());
      EXPECT_TRUE(machine.ExecuteText(row.position).ok()) << row.position;
      faulty_->set_fail_after(n);
      auto outcome = machine.ExecuteText(row.statement);
      faulty_->set_fail_after(-1);
      if (outcome.ok()) {
        run.deleted = outcome->affected;
      } else {
        run.deleted = outcome.status();
      }
      run.trace = machine.trace();
    } else {
      kms::DaplexMachine machine(functional_.get(),
                                 system_->NetworkViewOf("chain"),
                                 system_->MappingOf("chain"), faulty_.get());
      faulty_->set_fail_after(n);
      auto outcome = machine.ExecuteStatement(row.statement);
      faulty_->set_fail_after(-1);
      if (outcome.ok()) {
        // "destroyed N entity(ies), M kernel record(s)"
        const std::string& info = outcome->info;
        const size_t comma = info.find(", ");
        run.deleted = std::stoul(info.substr(comma + 2));
      } else {
        run.deleted = outcome.status();
      }
      run.trace = machine.trace();
    }
    return run;
  }

  std::unique_ptr<MldsSystem> system_;
  std::unique_ptr<FaultyExecutor> faulty_;
  std::unique_ptr<daplex::FunctionalSchema> functional_;
};

TEST_P(CascadeFaultTest, FaultAtEveryRequestLeavesSubtreeWholeOrGone) {
  for (const CascadeRow& row : kCascadeRows) {
    for (int n = 0; n <= row.record_calls; ++n) {
      SCOPED_TRACE(std::string(row.statement) + " after " +
                   (row.position != nullptr ? row.position : "") +
                   ", fault after " + std::to_string(n) + " call(s)");
      Open(row);
      const size_t before = Records(row);
      const Run run = Execute(row, n);
      const size_t gone = before - Records(row);
      EXPECT_TRUE(gone == 0 || gone == row.deleted)
          << gone << " of the subtree's " << row.deleted
          << " records deleted";
      if (n < row.kernel_calls) {
        ASSERT_FALSE(run.deleted.ok());
        EXPECT_EQ(run.deleted.status().code(), StatusCode::kInternal);
        EXPECT_EQ(gone, 0u);
        continue;
      }
      if (!run.deleted.ok()) {
        ADD_FAILURE() << run.deleted.status();
        continue;
      }
      EXPECT_EQ(*run.deleted, row.deleted);
      EXPECT_EQ(gone, row.deleted);
      size_t deletes = 0;
      for (const std::string& request : run.trace) {
        if (request.starts_with("DELETE ")) ++deletes;
        EXPECT_EQ(request.find("(FALSE)"), std::string::npos) << request;
      }
      EXPECT_EQ(deletes, row.deletes);
    }
  }
}

/// A Daplex UPDATE faulted at every kernel request, over 0 and 4
/// backends: it reports the fault and changes no course, or succeeds and
/// changes every course.
TEST_P(CascadeFaultTest, UpdateFaultedAtEveryRequestChangesAllOrNone) {
  const abdl::Request nines = *abdl::ParseRequest(
      "RETRIEVE ((FILE = course) and (credits = 9)) (course)");
  for (int n = 0;; ++n) {
    SCOPED_TRACE("fault after " + std::to_string(n) + " call(s)");
    ASSERT_LT(n, 16) << "UPDATE never succeeded";
    MldsSystem::Options options;
    options.backends = GetParam();
    MldsSystem system(options);
    FaultyExecutor faulty(system.executor());
    auto db = university::BuildUniversityDatabase({}, system.executor());
    ASSERT_TRUE(db.ok()) << db.status();
    kms::DaplexMachine machine(&db->functional, &db->mapping.schema,
                               &db->mapping, &faulty);
    faulty.set_fail_after(n);
    auto outcome = machine.ExecuteStatement("UPDATE course (credits = 9)");
    faulty.set_fail_after(-1);
    auto changed = system.executor()->Execute(nines);
    ASSERT_TRUE(changed.ok()) << changed.status();
    const size_t courses = system.executor()->FileSize("course");
    ASSERT_GT(courses, 0u);
    if (!outcome.ok()) {
      EXPECT_EQ(outcome.status().code(), StatusCode::kInternal);
      EXPECT_EQ(changed->records.size(), 0u) << "of " << courses;
      continue;
    }
    EXPECT_EQ(outcome->affected, courses);
    EXPECT_EQ(changed->records.size(), courses);
    break;
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, CascadeFaultTest, ::testing::Values(0, 4));

}  // namespace
}  // namespace mlds
