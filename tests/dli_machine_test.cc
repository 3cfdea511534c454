// Tests for the hierarchical/DL-I language interface: DDL, SSA-path GU
// resolution, GN/GNP positioning, ISRT under the anchored parent, REPL,
// and subtree DLET.

#include "kms/dli_machine.h"

#include <gtest/gtest.h>

#include "hierarchical/schema.h"
#include "mlds/mlds.h"

namespace mlds::kms {
namespace {

constexpr char kClinicDdl[] = R"(
SCHEMA clinic;

SEGMENT patient;
  FIELD pname CHAR(20);
  FIELD city CHAR(12);

SEGMENT visit PARENT patient;
  FIELD vdate CHAR(8);
  FIELD cost FLOAT;

SEGMENT treatment PARENT visit;
  FIELD drug CHAR(12);
  FIELD dose INTEGER;
)";

// --- DDL ---

TEST(HierarchicalSchemaTest, ParsesSegmentsAndHierarchy) {
  auto schema = hierarchical::ParseHierarchicalSchema(kClinicDdl);
  ASSERT_TRUE(schema.ok()) << schema.status();
  EXPECT_EQ(schema->name(), "clinic");
  ASSERT_EQ(schema->segments().size(), 3u);
  EXPECT_TRUE(schema->FindSegment("patient")->is_root());
  EXPECT_EQ(schema->FindSegment("treatment")->parent, "visit");
  auto ancestors = schema->AncestorsOf("treatment");
  ASSERT_EQ(ancestors.size(), 2u);
  EXPECT_EQ(ancestors[0]->name, "visit");
  EXPECT_EQ(ancestors[1]->name, "patient");
  EXPECT_EQ(schema->ChildrenOf("patient").size(), 1u);
}

TEST(HierarchicalSchemaTest, DdlRoundTrips) {
  auto first = hierarchical::ParseHierarchicalSchema(kClinicDdl);
  ASSERT_TRUE(first.ok());
  auto second = hierarchical::ParseHierarchicalSchema(first->ToDdl());
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(*first, *second);
}

TEST(HierarchicalSchemaTest, RejectsUnknownParentAndCycles) {
  EXPECT_FALSE(hierarchical::ParseHierarchicalSchema(
                   "SEGMENT a PARENT nope; FIELD x INTEGER;")
                   .ok());
  EXPECT_FALSE(hierarchical::ParseHierarchicalSchema(
                   "SEGMENT a PARENT b; FIELD x INTEGER;"
                   "SEGMENT b PARENT a; FIELD y INTEGER;")
                   .ok());
}

// --- Calls ---

class DliMachineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(system_.LoadHierarchicalDatabase(kClinicDdl).ok());
    auto session = system_.OpenDliSession("clinic");
    ASSERT_TRUE(session.ok()) << session.status();
    machine_ = *session;
    // Two patients; smith has two visits, the first with two treatments.
    auto load = machine_->RunProgram(
        "ISRT patient (pname = 'smith', city = 'monterey')\n"
        "ISRT visit (vdate = '870601', cost = 50.0)\n"
        "ISRT treatment (drug = 'aspirin', dose = 2)\n");
    ASSERT_TRUE(load.ok()) << load.status();
    // Re-anchor at the first visit to add a sibling treatment.
    auto more = machine_->RunProgram(
        "GU patient (pname = 'smith') visit (vdate = '870601')\n"
        "ISRT treatment (drug = 'iodine', dose = 1)\n"
        "GU patient (pname = 'smith')\n"
        "ISRT visit (vdate = '870702', cost = 75.5)\n"
        "ISRT patient (pname = 'jones', city = 'carmel')\n"
        "ISRT visit (vdate = '870615', cost = 20.0)\n");
    ASSERT_TRUE(more.ok()) << more.status();
  }

  DliMachine::Outcome Must(std::string_view call) {
    auto outcome = machine_->ExecuteText(call);
    EXPECT_TRUE(outcome.ok()) << call << ": " << outcome.status();
    return outcome.ok() ? std::move(*outcome) : DliMachine::Outcome{};
  }

  MldsSystem system_;
  DliMachine* machine_ = nullptr;
};

TEST_F(DliMachineTest, GuResolvesSsaPathLevelByLevel) {
  auto outcome =
      Must("GU patient (pname = 'smith') visit (cost > 60)");
  ASSERT_EQ(outcome.segments.size(), 1u);
  EXPECT_EQ(outcome.segments[0].GetOrNull("vdate").AsString(), "870702");
  // One RETRIEVE per level: the call/request correspondence.
  EXPECT_EQ(machine_->trace().size(), 2u);
}

TEST_F(DliMachineTest, GuNotFoundIsGeStatus) {
  auto outcome = machine_->ExecuteText("GU patient (pname = 'nobody')");
  ASSERT_FALSE(outcome.ok());
  EXPECT_TRUE(outcome.status().IsNotFound());
}

TEST_F(DliMachineTest, GuRejectsBrokenSsaPath) {
  auto outcome = machine_->ExecuteText(
      "GU patient (pname = 'smith') treatment (dose = 2)");
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(DliMachineTest, GnAdvancesThroughBuffer) {
  Must("GU patient (pname = 'smith') visit");
  auto second = Must("GN");
  EXPECT_EQ(second.segments[0].GetOrNull("vdate").AsString(), "870702");
  auto end = machine_->ExecuteText("GN");
  ASSERT_FALSE(end.ok());
  EXPECT_TRUE(end.status().IsNotFound());
}

TEST_F(DliMachineTest, GnDescendsToChildSegments) {
  Must("GU patient (pname = 'smith') visit (vdate = '870601')");
  auto first = Must("GN treatment");
  EXPECT_EQ(first.segments[0].GetOrNull("drug").AsString(), "aspirin");
  auto second = Must("GN");
  EXPECT_EQ(second.segments[0].GetOrNull("drug").AsString(), "iodine");
}

TEST_F(DliMachineTest, GnpIteratesChildrenOfAnchoredParent) {
  Must("GU patient (pname = 'smith')");
  auto v1 = Must("GNP visit");
  EXPECT_EQ(v1.segments[0].GetOrNull("vdate").AsString(), "870601");
  auto v2 = Must("GNP visit");
  EXPECT_EQ(v2.segments[0].GetOrNull("vdate").AsString(), "870702");
  auto end = machine_->ExecuteText("GNP visit");
  ASSERT_FALSE(end.ok());
  EXPECT_TRUE(end.status().IsNotFound());
}

TEST_F(DliMachineTest, GnpRequiresAnchor) {
  auto session = system_.OpenDliSession("clinic");
  ASSERT_TRUE(session.ok());
  auto outcome = (*session)->ExecuteText("GNP visit");
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kCurrencyError);
}

TEST_F(DliMachineTest, IsrtRequiresParentForNonRoot) {
  auto session = system_.OpenDliSession("clinic");
  ASSERT_TRUE(session.ok());
  auto outcome =
      (*session)->ExecuteText("ISRT visit (vdate = 'x', cost = 1.0)");
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kCurrencyError);
}

TEST_F(DliMachineTest, ReplUpdatesCurrentSegment) {
  Must("GU patient (pname = 'jones') visit");
  Must("REPL (cost = 99.5)");
  auto check = Must("GU patient (pname = 'jones') visit (cost = 99.5)");
  EXPECT_EQ(check.segments.size(), 1u);
}

TEST_F(DliMachineTest, ReplRejectsUnknownField) {
  Must("GU patient (pname = 'jones')");
  auto outcome = machine_->ExecuteText("REPL (bogus = 1)");
  ASSERT_FALSE(outcome.ok());
  EXPECT_TRUE(outcome.status().IsNotFound());
}

TEST_F(DliMachineTest, DletRemovesSubtree) {
  // smith: 1 patient + 2 visits + 2 treatments = 5 segments.
  Must("GU patient (pname = 'smith')");
  auto outcome = Must("DLET");
  EXPECT_EQ(outcome.affected, 5u);
  EXPECT_TRUE(
      machine_->ExecuteText("GU patient (pname = 'smith')").status()
          .IsNotFound());
  // jones is untouched.
  EXPECT_EQ(Must("GU patient (pname = 'jones')").segments.size(), 1u);
  EXPECT_EQ(system_.executor()->FileSize("visit"), 1u);
  EXPECT_EQ(system_.executor()->FileSize("treatment"), 0u);
}

TEST_F(DliMachineTest, DletClearsPosition) {
  Must("GU patient (pname = 'jones')");
  Must("DLET");
  auto repl = machine_->ExecuteText("REPL (city = 'x')");
  ASSERT_FALSE(repl.ok());
  EXPECT_EQ(repl.status().code(), StatusCode::kCurrencyError);
}

TEST_F(DliMachineTest, DletOfSegmentDeletedElsewhereIsNotFound) {
  Must("GU patient (pname = 'jones')");
  // A second session deletes jones and its visit first.
  auto other = system_.OpenDliSession("clinic");
  ASSERT_TRUE(other.ok()) << other.status();
  ASSERT_TRUE((*other)->ExecuteText("GU patient (pname = 'jones')").ok());
  auto first = (*other)->ExecuteText("DLET");
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(first->affected, 2u);
  // The cascade finds nothing to delete: no wrapped dependent count.
  auto again = machine_->ExecuteText("DLET");
  ASSERT_FALSE(again.ok()) << again->info;
  EXPECT_TRUE(again.status().IsNotFound()) << again.status();
  // The position is cleared.
  auto repl = machine_->ExecuteText("REPL (city = 'x')");
  ASSERT_FALSE(repl.ok());
  EXPECT_EQ(repl.status().code(), StatusCode::kCurrencyError);
}

TEST_F(DliMachineTest, ParserRejectsMalformedCalls) {
  EXPECT_FALSE(machine_->ExecuteText("FROB patient").ok());
  EXPECT_FALSE(machine_->ExecuteText("GU patient (pname 'x')").ok());
  EXPECT_FALSE(machine_->ExecuteText("GU patient (pname = )").ok());
  EXPECT_FALSE(machine_->ExecuteText("GU").ok());
}

TEST_F(DliMachineTest, HierarchyVisibleToKernel) {
  EXPECT_EQ(system_.executor()->FileSize("patient"), 2u);
  EXPECT_EQ(system_.executor()->FileSize("visit"), 3u);
  EXPECT_EQ(system_.executor()->FileSize("treatment"), 2u);
}

// --- batch ISRT (bulk ingest) ---

TEST_F(DliMachineTest, BatchIsrtInsertsEveryRowUnderTheAnchoredParent) {
  Must("GU patient (pname = 'jones')");
  std::vector<std::vector<abdm::Value>> rows;
  for (int i = 0; i < 4; ++i) {
    rows.push_back({abdm::Value::String("8712" + std::to_string(10 + i)),
                    abdm::Value::Float(5.0 + i)});
  }
  auto outcome =
      machine_->ExecuteBatch("ISRT visit (vdate = ?, cost = ?)", rows);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_EQ(outcome->affected, 4u);
  EXPECT_EQ(system_.executor()->FileSize("visit"), 7u);
  // Every inserted segment is a child of jones: GNP walks all five of
  // jones's visits (the seed one plus the batch).
  Must("GU patient (pname = 'jones') visit");
  size_t jones_visits = 1;
  while (machine_->ExecuteText("GN").ok()) ++jones_visits;
  EXPECT_EQ(jones_visits, 5u);
  // The last batch row is the current position: ISRT of a child segment
  // hangs off it, exactly as after a sequence of single ISRTs.
  Must("ISRT treatment (drug = 'salve', dose = 1)");
  auto under_last = Must(
      "GU patient (pname = 'jones') visit (vdate = '871213') treatment");
  ASSERT_EQ(under_last.segments.size(), 1u);
  EXPECT_EQ(under_last.segments[0].GetOrNull("drug").AsString(), "salve");
}

TEST_F(DliMachineTest, BatchIsrtRejectsHostileShapes) {
  Must("GU patient (pname = 'smith')");
  const std::vector<std::vector<abdm::Value>> one = {
      {abdm::Value::String("880101"), abdm::Value::Float(1.0)}};
  EXPECT_FALSE(
      machine_->ExecuteBatch("ISRT visit (vdate = ?, cost = ?)", {}).ok());
  EXPECT_FALSE(machine_
                   ->ExecuteBatch("ISRT visit (vdate = ?, cost = ?)",
                                  {{abdm::Value::String("only-one")}})
                   .ok());
  // Unparameterized templates, non-ISRT calls, and direct execution of a
  // parameterized ISRT are all rejected.
  EXPECT_FALSE(
      machine_->ExecuteBatch("ISRT visit (vdate = 'x', cost = 1.0)", one)
          .ok());
  EXPECT_FALSE(machine_->ExecuteBatch("GU patient (pname = ?)", one).ok());
  EXPECT_FALSE(
      machine_->ExecuteText("ISRT visit (vdate = ?, cost = ?)").ok());
}

TEST_F(DliMachineTest, BatchIsrtWithoutParentIsCurrencyError) {
  auto session = system_.OpenDliSession("clinic");
  ASSERT_TRUE(session.ok());
  const std::vector<std::vector<abdm::Value>> one = {
      {abdm::Value::String("880101"), abdm::Value::Float(1.0)}};
  Status status =
      (*session)->ExecuteBatch("ISRT visit (vdate = ?, cost = ?)", one)
          .status();
  EXPECT_EQ(status.code(), StatusCode::kCurrencyError);
}

}  // namespace
}  // namespace mlds::kms
