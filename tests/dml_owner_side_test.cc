// Tests for the owner-side Daplex function translation paths (the
// duplicated-record AB(functional) representation, Ch. VI.D.2.a / VI.E),
// the overlap-permitted STORE path, and native-network-mode targets.

#include <gtest/gtest.h>

#include "abdl/parser.h"
#include "daplex/ddl_parser.h"
#include "kds/engine.h"
#include "kms/dml_machine.h"
#include "network/ddl_parser.h"
#include "transform/abdm_mapping.h"
#include "transform/fun_to_net.h"

namespace mlds::kms {
namespace {

/// Fixture over a minimal functional schema with a one-to-many
/// multi-valued function (parent.kids : SET OF child, no inverse).
class OwnerSideDmlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto schema = daplex::ParseFunctionalSchema(
        "TYPE parent IS ENTITY pname : STRING(10); kids : SET OF child; "
        "END ENTITY;"
        "TYPE child IS ENTITY cname : STRING(10); END ENTITY;");
    ASSERT_TRUE(schema.ok()) << schema.status();
    auto mapping = transform::TransformFunctionalToNetwork(*schema);
    ASSERT_TRUE(mapping.ok()) << mapping.status();
    mapping_ = std::move(*mapping);
    auto db = transform::MapNetworkToAbdm(mapping_.schema, &mapping_);
    ASSERT_TRUE(db.ok()) << db.status();
    executor_ = std::make_unique<kc::EngineExecutor>(&engine_);
    ASSERT_TRUE(executor_->DefineDatabase(*db).ok());
    machine_ = std::make_unique<DmlMachine>(&mapping_.schema, &mapping_,
                                            executor_.get());
  }

  DmlResult Must(std::string_view dml) {
    auto result = machine_->ExecuteText(dml);
    EXPECT_TRUE(result.ok()) << dml << ": " << result.status();
    return result.ok() ? std::move(*result) : DmlResult{};
  }

  Status Fails(std::string_view dml) {
    auto result = machine_->ExecuteText(dml);
    EXPECT_FALSE(result.ok()) << dml << " unexpectedly succeeded";
    return result.ok() ? Status::OK() : result.status();
  }

  kds::Response Kernel(std::string_view abdl) {
    auto req = abdl::ParseRequest(abdl);
    EXPECT_TRUE(req.ok()) << req.status();
    auto resp = engine_.Execute(*req);
    EXPECT_TRUE(resp.ok()) << resp.status();
    return std::move(*resp);
  }

  /// STOREs a parent and two children; re-finds the parent as the current
  /// owner of kids; leaves the given child as the run-unit.
  void StoreFamily() {
    Must("MOVE 'p' TO pname IN parent");
    Must("STORE parent");
    Must("MOVE 'c1' TO cname IN child");
    Must("STORE child");
    Must("MOVE 'c2' TO cname IN child");
    Must("STORE child");
  }

  void FindParent() {
    Must("MOVE 'p' TO pname IN parent");
    Must("FIND ANY parent USING pname IN parent");
  }

  void FindChild(std::string_view cname) {
    Must("MOVE '" + std::string(cname) + "' TO cname IN child");
    Must("FIND ANY child USING cname IN child");
  }

  transform::FunNetMapping mapping_;
  kds::Engine engine_;
  std::unique_ptr<kc::EngineExecutor> executor_;
  std::unique_ptr<DmlMachine> machine_;
};

TEST_F(OwnerSideDmlTest, SchemaShape) {
  const network::SetType* kids = mapping_.schema.FindSet("kids");
  ASSERT_NE(kids, nullptr);
  EXPECT_EQ(kids->owner, "parent");
  EXPECT_EQ(kids->members[0], "child");
  EXPECT_TRUE(machine_->IsFunctionalTarget());
}

TEST_F(OwnerSideDmlTest, ConnectFirstChildUpdatesNullOwnerKeyword) {
  StoreFamily();
  FindParent();
  FindChild("c1");
  Must("CONNECT child TO kids");
  // Case (1)/(2): the owner record's null set keyword takes the member's
  // database key via UPDATE — no new record.
  auto owners = Kernel("RETRIEVE ((FILE = parent)) (all attributes)");
  ASSERT_EQ(owners.records.size(), 1u);
  EXPECT_EQ(owners.records[0].GetOrNull("kids").AsString(), "child_1");
  const std::vector<std::string>& requests = machine_->trace();
  // ARR (retrieve owners) + UPDATE.
  ASSERT_EQ(requests.size(), 3u);  // +1 for the run-unit refresh.
  EXPECT_TRUE(requests[1].starts_with("UPDATE")) << requests[1];
}

TEST_F(OwnerSideDmlTest, ConnectSecondChildInsertsDuplicatedOwnerRecord) {
  StoreFamily();
  FindParent();
  FindChild("c1");
  Must("CONNECT child TO kids");
  FindParent();
  FindChild("c2");
  Must("CONNECT child TO kids");
  // Case (3)/(4): a duplicated AB(functional) owner record per new member.
  auto owners = Kernel("RETRIEVE ((FILE = parent)) (all attributes)");
  ASSERT_EQ(owners.records.size(), 2u);
  std::set<std::string> members;
  for (const auto& r : owners.records) {
    EXPECT_EQ(r.GetOrNull("parent").AsString(), "parent_1");
    EXPECT_EQ(r.GetOrNull("pname").AsString(), "p");
    members.insert(r.GetOrNull("kids").AsString());
  }
  EXPECT_EQ(members, (std::set<std::string>{"child_1", "child_2"}));
}

TEST_F(OwnerSideDmlTest, FindMembersThroughOwnerSideRepresentation) {
  StoreFamily();
  FindParent();
  FindChild("c1");
  Must("CONNECT child TO kids");
  FindParent();
  FindChild("c2");
  Must("CONNECT child TO kids");
  FindParent();
  // FIND FIRST/NEXT child WITHIN kids walks both members, via the
  // two-request owner-side fetch.
  DmlResult first = Must("FIND FIRST child WITHIN kids");
  EXPECT_EQ(first.records[0].GetOrNull("child").AsString(), "child_1");
  // Two ABDL requests: owner fetch + member fetch (Ch. III.A's
  // one-to-many statement/request correspondence).
  EXPECT_EQ(machine_->trace().size(), 2u);
  DmlResult next = Must("FIND NEXT child WITHIN kids");
  EXPECT_EQ(next.records[0].GetOrNull("child").AsString(), "child_2");
  EXPECT_TRUE(
      machine_->ExecuteText("FIND NEXT child WITHIN kids").status()
          .IsNotFound());
}

TEST_F(OwnerSideDmlTest, DisconnectWithMultipleMembersDeletesDuplicate) {
  StoreFamily();
  FindParent();
  FindChild("c1");
  Must("CONNECT child TO kids");
  FindParent();
  FindChild("c2");
  Must("CONNECT child TO kids");
  FindParent();
  FindChild("c2");
  Must("DISCONNECT child FROM kids");
  // The duplicated record naming child_2 is deleted; child_1 remains.
  auto owners = Kernel("RETRIEVE ((FILE = parent)) (all attributes)");
  ASSERT_EQ(owners.records.size(), 1u);
  EXPECT_EQ(owners.records[0].GetOrNull("kids").AsString(), "child_1");
}

TEST_F(OwnerSideDmlTest, DisconnectSingletonNullsOut) {
  StoreFamily();
  FindParent();
  FindChild("c1");
  Must("CONNECT child TO kids");
  FindParent();
  FindChild("c1");
  Must("DISCONNECT child FROM kids");
  auto owners = Kernel("RETRIEVE ((FILE = parent)) (all attributes)");
  ASSERT_EQ(owners.records.size(), 1u);
  EXPECT_TRUE(owners.records[0].GetOrNull("kids").is_null());
}

TEST_F(OwnerSideDmlTest, DisconnectUnconnectedChildIsNotFound) {
  StoreFamily();
  FindParent();
  FindChild("c1");
  Status status = Fails("DISCONNECT child FROM kids");
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
}

TEST_F(OwnerSideDmlTest, EraseParentWithConnectedKidsAborts) {
  StoreFamily();
  FindParent();
  FindChild("c1");
  Must("CONNECT child TO kids");
  FindParent();
  Status status = Fails("ERASE parent");
  EXPECT_EQ(status.code(), StatusCode::kAborted);
}

TEST_F(OwnerSideDmlTest, EraseReferencedChildAborts) {
  // The Daplex constraint: an entity referenced by a database function
  // cannot be destroyed.
  StoreFamily();
  FindParent();
  FindChild("c1");
  Must("CONNECT child TO kids");
  FindChild("c1");
  Status status = Fails("ERASE child");
  EXPECT_EQ(status.code(), StatusCode::kAborted);
}

TEST_F(OwnerSideDmlTest, EraseAfterDisconnectSucceeds) {
  StoreFamily();
  FindParent();
  FindChild("c1");
  Must("CONNECT child TO kids");
  FindParent();
  FindChild("c1");
  Must("DISCONNECT child FROM kids");
  FindChild("c1");
  Must("ERASE child");
  auto children = Kernel("RETRIEVE ((FILE = child)) (child)");
  EXPECT_EQ(children.records.size(), 1u);  // only child_2 remains.
}

// --- Overlap permitted by the table ---

class OverlapDmlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto schema = daplex::ParseFunctionalSchema(
        "TYPE base IS ENTITY bname : STRING(10); END ENTITY;"
        "TYPE sa IS SUBTYPE OF base xa : INTEGER; END SUBTYPE;"
        "TYPE sb IS SUBTYPE OF base xb : INTEGER; END SUBTYPE;"
        "TYPE sc IS SUBTYPE OF base xc : INTEGER; END SUBTYPE;"
        "OVERLAP sa WITH sb;");
    ASSERT_TRUE(schema.ok()) << schema.status();
    auto mapping = transform::TransformFunctionalToNetwork(*schema);
    ASSERT_TRUE(mapping.ok()) << mapping.status();
    mapping_ = std::move(*mapping);
    auto db = transform::MapNetworkToAbdm(mapping_.schema, &mapping_);
    ASSERT_TRUE(db.ok());
    executor_ = std::make_unique<kc::EngineExecutor>(&engine_);
    ASSERT_TRUE(executor_->DefineDatabase(*db).ok());
    machine_ = std::make_unique<DmlMachine>(&mapping_.schema, &mapping_,
                                            executor_.get());
    // One base entity, already a member of subtype sa.
    Must("MOVE 'b' TO bname IN base");
    Must("STORE base");
    Must("MOVE 1 TO xa IN sa");
    Must("STORE sa");
    // Restore the base entity as owner currency for further STOREs.
    Must("MOVE 'b' TO bname IN base");
    Must("FIND ANY base USING bname IN base");
  }

  DmlResult Must(std::string_view dml) {
    auto result = machine_->ExecuteText(dml);
    EXPECT_TRUE(result.ok()) << dml << ": " << result.status();
    return result.ok() ? std::move(*result) : DmlResult{};
  }

  transform::FunNetMapping mapping_;
  kds::Engine engine_;
  std::unique_ptr<kc::EngineExecutor> executor_;
  std::unique_ptr<DmlMachine> machine_;
};

TEST_F(OverlapDmlTest, DeclaredOverlapPermitsSharedEntity) {
  // OVERLAP sa WITH sb: the entity may also join sb.
  Must("MOVE 2 TO xb IN sb");
  DmlResult stored = Must("STORE sb");
  EXPECT_EQ(stored.records[0].GetOrNull("base_sb").AsString(), "base_1");
}

TEST_F(OverlapDmlTest, UndeclaredOverlapAborts) {
  // sc is not overlapped with sa.
  Must("MOVE 3 TO xc IN sc");
  auto result = machine_->ExecuteText("STORE sc");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kConstraintViolation);
}

TEST_F(OverlapDmlTest, OverlapIsSymmetric) {
  // Fresh entity joining sb first, then sa must also be allowed.
  Must("MOVE 'b2' TO bname IN base");
  Must("STORE base");
  Must("MOVE 5 TO xb IN sb");
  Must("STORE sb");
  Must("MOVE 'b2' TO bname IN base");
  Must("FIND ANY base USING bname IN base");
  Must("MOVE 6 TO xa IN sa");
  Must("STORE sa");
}

// --- Native network target (mapping == nullptr): the Emdi translation ---

class NativeNetworkDmlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto schema = network::ParseSchema(
        "SCHEMA NAME IS shop;"
        "RECORD NAME IS customer;"
        "  ITEM cname TYPE IS CHARACTER 20;"
        "  DUPLICATES ARE NOT ALLOWED FOR cname;"
        "RECORD NAME IS invoice;"
        "  ITEM total TYPE IS FLOAT;"
        "SET NAME IS system_customer;"
        "  OWNER IS SYSTEM; MEMBER IS customer;"
        "  INSERTION IS AUTOMATIC; RETENTION IS FIXED;"
        "  SET SELECTION IS BY APPLICATION;"
        "SET NAME IS places;"
        "  OWNER IS customer; MEMBER IS invoice;"
        "  INSERTION IS MANUAL; RETENTION IS OPTIONAL;"
        "  SET SELECTION IS BY APPLICATION;");
    ASSERT_TRUE(schema.ok()) << schema.status();
    schema_ = std::move(*schema);
    auto db = transform::MapNetworkToAbdm(schema_);
    ASSERT_TRUE(db.ok());
    executor_ = std::make_unique<kc::EngineExecutor>(&engine_);
    ASSERT_TRUE(executor_->DefineDatabase(*db).ok());
    machine_ =
        std::make_unique<DmlMachine>(&schema_, nullptr, executor_.get());
  }

  DmlResult Must(std::string_view dml) {
    auto result = machine_->ExecuteText(dml);
    EXPECT_TRUE(result.ok()) << dml << ": " << result.status();
    return result.ok() ? std::move(*result) : DmlResult{};
  }

  network::Schema schema_;
  kds::Engine engine_;
  std::unique_ptr<kc::EngineExecutor> executor_;
  std::unique_ptr<DmlMachine> machine_;
};

TEST_F(NativeNetworkDmlTest, StoreFindConnectRoundTrip) {
  EXPECT_FALSE(machine_->IsFunctionalTarget());
  Must("MOVE 'Acme' TO cname IN customer");
  Must("STORE customer");
  Must("MOVE 12.5 TO total IN invoice");
  Must("STORE invoice");
  Must("CONNECT invoice TO places");
  DmlResult first = Must("FIND FIRST invoice WITHIN places");
  EXPECT_DOUBLE_EQ(first.records[0].GetOrNull("total").AsFloat(), 12.5);
  DmlResult owner = Must("FIND OWNER WITHIN places");
  EXPECT_EQ(owner.records[0].GetOrNull("cname").AsString(), "Acme");
}

TEST_F(NativeNetworkDmlTest, DuplicatesClauseEnforcedOnStore) {
  Must("MOVE 'Acme' TO cname IN customer");
  Must("STORE customer");
  auto again = machine_->ExecuteText("STORE customer");
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), StatusCode::kConstraintViolation);
}

TEST_F(NativeNetworkDmlTest, DisconnectThenEraseOwner) {
  Must("MOVE 'Acme' TO cname IN customer");
  Must("STORE customer");
  Must("MOVE 9.0 TO total IN invoice");
  Must("STORE invoice");
  Must("CONNECT invoice TO places");
  // Owner cannot be erased while the occurrence is non-null.
  Must("FIND OWNER WITHIN places");
  auto erase = machine_->ExecuteText("ERASE customer");
  ASSERT_FALSE(erase.ok());
  EXPECT_EQ(erase.status().code(), StatusCode::kAborted);
  // Disconnect, then erase succeeds.
  Must("FIND FIRST invoice WITHIN places");
  Must("DISCONNECT invoice FROM places");
  Must("FIND OWNER WITHIN places");
  Must("ERASE customer");
  EXPECT_EQ(engine_.FileSize("customer"), 0u);
}

TEST_F(NativeNetworkDmlTest, ModifyUpdatesItem) {
  Must("MOVE 'Acme' TO cname IN customer");
  Must("STORE customer");
  Must("MOVE 'AcmeCorp' TO cname IN customer");
  Must("MODIFY cname IN customer");
  DmlResult got = Must("GET cname IN customer");
  EXPECT_EQ(got.records[0].GetOrNull("cname").AsString(), "AcmeCorp");
}

}  // namespace
}  // namespace mlds::kms
