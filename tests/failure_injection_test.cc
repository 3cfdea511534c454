// Failure injection: a kernel executor that fails on command (the shared
// kc::FaultyExecutor), verifying that the language interfaces propagate
// kernel failures as clean Status values, never crash, and remain usable
// after the fault clears.

#include <gtest/gtest.h>

#include <memory>

#include "abdl/parser.h"
#include "kc/faulty_executor.h"
#include "kds/engine.h"
#include "kms/daplex_machine.h"
#include "kms/dml_machine.h"
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
  // STORE course issues: key probe, duplicates probe, INSERT. Failing on
  // the third request kills the INSERT after the checks passed.
  auto program =
      "MOVE 'Fault Course' TO title IN course\n"
      "MOVE 'FaultSem' TO semester IN course\n"
      "MOVE 1 TO credits IN course\n";
  ASSERT_TRUE(machine_->RunProgram(program).ok());
  faulty_->set_fail_after(2);
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

}  // namespace
}  // namespace mlds
