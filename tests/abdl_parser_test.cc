#include "abdl/parser.h"

#include <gtest/gtest.h>

#include "abdl/request.h"

namespace mlds::abdl {
namespace {

using abdm::RelOp;
using abdm::Value;

TEST(AbdlParserTest, ParseRetrieveWithFileAndPredicate) {
  auto result = ParseRequest(
      "RETRIEVE ((FILE = course) and (title = 'Advanced Database')) "
      "(title, dept, semester, credits) BY course");
  ASSERT_TRUE(result.ok()) << result.status();
  const auto* retrieve = std::get_if<RetrieveRequest>(&*result);
  ASSERT_NE(retrieve, nullptr);
  EXPECT_EQ(retrieve->query.SingleFile(), "course");
  ASSERT_EQ(retrieve->targets.size(), 4u);
  EXPECT_EQ(retrieve->targets[0].attribute, "title");
  ASSERT_TRUE(retrieve->by_attribute.has_value());
  EXPECT_EQ(*retrieve->by_attribute, "course");
}

TEST(AbdlParserTest, ParseRetrieveAllAttributes) {
  auto result =
      ParseRequest("RETRIEVE ((FILE = person)) (all attributes)");
  ASSERT_TRUE(result.ok()) << result.status();
  const auto* retrieve = std::get_if<RetrieveRequest>(&*result);
  ASSERT_NE(retrieve, nullptr);
  EXPECT_TRUE(retrieve->all_attributes);
}

TEST(AbdlParserTest, ParseInsertKeywordList) {
  auto result = ParseRequest(
      "INSERT (<FILE, course>, <title, 'Database'>, <credits, 4>)");
  ASSERT_TRUE(result.ok()) << result.status();
  const auto* insert = std::get_if<InsertRequest>(&*result);
  ASSERT_NE(insert, nullptr);
  ASSERT_EQ(insert->records.size(), 1u);
  EXPECT_EQ(insert->records[0].GetOrNull("FILE").AsString(), "course");
  EXPECT_EQ(insert->records[0].GetOrNull("title").AsString(), "Database");
  EXPECT_EQ(insert->records[0].GetOrNull("credits").AsInteger(), 4);
}

TEST(AbdlParserTest, ParseDelete) {
  auto result =
      ParseRequest("DELETE ((FILE = course) and (title = 'Old Course'))");
  ASSERT_TRUE(result.ok()) << result.status();
  const auto* del = std::get_if<DeleteRequest>(&*result);
  ASSERT_NE(del, nullptr);
  EXPECT_EQ(del->query.SingleFile(), "course");
}

TEST(AbdlParserTest, ParseUpdateSetModifier) {
  auto result = ParseRequest(
      "UPDATE ((FILE = course) and (credits = 3)) (credits = 4)");
  ASSERT_TRUE(result.ok()) << result.status();
  const auto* update = std::get_if<UpdateRequest>(&*result);
  ASSERT_NE(update, nullptr);
  EXPECT_EQ(update->modifier.attribute, "credits");
  EXPECT_EQ(update->modifier.kind, ModifierKind::kSet);
  EXPECT_EQ(update->modifier.operand.AsInteger(), 4);
}

TEST(AbdlParserTest, ParseUpdateAddModifier) {
  auto result =
      ParseRequest("UPDATE ((FILE = emp)) (salary = salary + 100)");
  ASSERT_TRUE(result.ok()) << result.status();
  const auto* update = std::get_if<UpdateRequest>(&*result);
  ASSERT_NE(update, nullptr);
  EXPECT_EQ(update->modifier.kind, ModifierKind::kAdd);
  EXPECT_EQ(update->modifier.operand.AsInteger(), 100);
}

TEST(AbdlParserTest, ParseUpdateToNull) {
  auto result = ParseRequest("UPDATE ((FILE = f)) (set_x = NULL)");
  ASSERT_TRUE(result.ok()) << result.status();
  const auto* update = std::get_if<UpdateRequest>(&*result);
  ASSERT_NE(update, nullptr);
  EXPECT_TRUE(update->modifier.operand.is_null());
}

TEST(AbdlParserTest, OrNormalizesToDnfDisjuncts) {
  auto q = ParseQuery("((a = 1) or (b = 2))");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->disjuncts().size(), 2u);
}

TEST(AbdlParserTest, AndDistributesOverOr) {
  // (FILE = f) AND ((a = 1) OR (b = 2)) --> two conjunctions, each
  // carrying the FILE predicate.
  auto q = ParseQuery("((FILE = f) and ((a = 1) or (b = 2)))");
  ASSERT_TRUE(q.ok()) << q.status();
  ASSERT_EQ(q->disjuncts().size(), 2u);
  for (const auto& conj : q->disjuncts()) {
    ASSERT_EQ(conj.predicates.size(), 2u);
    EXPECT_EQ(conj.predicates[0].attribute, "FILE");
  }
  EXPECT_EQ(q->SingleFile(), "f");
}

TEST(AbdlParserTest, RelationalOperators) {
  auto q = ParseQuery(
      "((a >= 1) and (b <= 2) and (c != 3) and (d > 4) and (e < 5))");
  ASSERT_TRUE(q.ok()) << q.status();
  const auto& preds = q->disjuncts()[0].predicates;
  ASSERT_EQ(preds.size(), 5u);
  EXPECT_EQ(preds[0].op, RelOp::kGe);
  EXPECT_EQ(preds[1].op, RelOp::kLe);
  EXPECT_EQ(preds[2].op, RelOp::kNe);
  EXPECT_EQ(preds[3].op, RelOp::kGt);
  EXPECT_EQ(preds[4].op, RelOp::kLt);
}

TEST(AbdlParserTest, ParseTransactionMultipleRequests) {
  auto txn = ParseTransaction(
      "INSERT (<FILE, f>, <x, 1>); "
      "RETRIEVE ((FILE = f)) (all attributes)");
  ASSERT_TRUE(txn.ok()) << txn.status();
  ASSERT_EQ(txn->size(), 2u);
  EXPECT_EQ(RequestOperation((*txn)[0]), "INSERT");
  EXPECT_EQ(RequestOperation((*txn)[1]), "RETRIEVE");
}

TEST(AbdlParserTest, ParseAggregateTargets) {
  auto result = ParseRequest(
      "RETRIEVE ((FILE = course)) (AVG(credits), COUNT(title)) BY dept");
  ASSERT_TRUE(result.ok()) << result.status();
  const auto* retrieve = std::get_if<RetrieveRequest>(&*result);
  ASSERT_NE(retrieve, nullptr);
  ASSERT_EQ(retrieve->targets.size(), 2u);
  EXPECT_EQ(retrieve->targets[0].aggregate, AggregateOp::kAvg);
  EXPECT_EQ(retrieve->targets[1].aggregate, AggregateOp::kCount);
}

TEST(AbdlParserTest, ParseRetrieveCommon) {
  auto result = ParseRequest(
      "RETRIEVE-COMMON ((FILE = faculty)) (dept) AND ((FILE = student)) "
      "(major) (name, major)");
  ASSERT_TRUE(result.ok()) << result.status();
  const auto* rc = std::get_if<RetrieveCommonRequest>(&*result);
  ASSERT_NE(rc, nullptr);
  EXPECT_EQ(rc->left_attribute, "dept");
  EXPECT_EQ(rc->right_attribute, "major");
  EXPECT_EQ(rc->targets.size(), 2u);
}

TEST(AbdlParserTest, RejectsUnknownOperation) {
  auto result = ParseRequest("FROBNICATE ((a = 1)) (x)");
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsParseError());
}

TEST(AbdlParserTest, RejectsTrailingGarbage) {
  auto result = ParseRequest("DELETE ((a = 1)) extra");
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsParseError());
}

TEST(AbdlParserTest, RejectsUnterminatedString) {
  auto result = ParseRequest("DELETE ((a = 'oops))");
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsParseError());
}

TEST(AbdlParserTest, RequestPrintRoundTrip) {
  // Printing a parsed request and reparsing yields an equal request.
  const char* kRequests[] = {
      "RETRIEVE ((FILE = 'course') and (credits > 3)) (title, credits) BY "
      "dept",
      "INSERT (<FILE, 'f'>, <x, 1>, <y, 'two'>)",
      "UPDATE ((FILE = 'f') and (x = 1)) (y = 'three')",
      "DELETE ((FILE = 'f') or (x < 0))",
  };
  for (const char* text : kRequests) {
    auto first = ParseRequest(text);
    ASSERT_TRUE(first.ok()) << text << ": " << first.status();
    auto printed = ToString(*first);
    auto second = ParseRequest(printed);
    ASSERT_TRUE(second.ok()) << printed << ": " << second.status();
    EXPECT_EQ(*first, *second) << printed;
  }
}

}  // namespace
}  // namespace mlds::abdl
