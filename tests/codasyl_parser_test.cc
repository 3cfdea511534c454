#include "codasyl/parser.h"

#include <gtest/gtest.h>

#include "codasyl/ast.h"

namespace mlds::codasyl {
namespace {

template <typename T>
T MustParseAs(std::string_view text) {
  auto stmt = ParseStatement(text);
  EXPECT_TRUE(stmt.ok()) << text << ": " << stmt.status();
  const T* typed = std::get_if<T>(&*stmt);
  EXPECT_NE(typed, nullptr) << text << " parsed as " << StatementKind(*stmt);
  return typed != nullptr ? *typed : T{};
}

TEST(CodasylParserTest, Move) {
  auto s = MustParseAs<MoveStatement>(
      "MOVE 'Advanced Database' TO title IN course");
  EXPECT_EQ(s.value.AsString(), "Advanced Database");
  EXPECT_EQ(s.item, "title");
  EXPECT_EQ(s.record, "course");
}

TEST(CodasylParserTest, MoveNumericLiteral) {
  auto s = MustParseAs<MoveStatement>("MOVE 4 TO credits IN course");
  EXPECT_EQ(s.value.AsInteger(), 4);
}

TEST(CodasylParserTest, MoveFloatLiteral) {
  auto s = MustParseAs<MoveStatement>("MOVE 99.5 TO salary IN employee");
  EXPECT_DOUBLE_EQ(s.value.AsFloat(), 99.5);
}

TEST(CodasylParserTest, MoveUnquotedWordLiteral) {
  auto s = MustParseAs<MoveStatement>("MOVE YES TO eof IN status");
  EXPECT_EQ(s.value.AsString(), "YES");
}

TEST(CodasylParserTest, FindAnyWithItems) {
  auto s = MustParseAs<FindAnyStatement>(
      "FIND ANY course USING title, semester IN course");
  EXPECT_EQ(s.record, "course");
  EXPECT_EQ(s.items, (std::vector<std::string>{"title", "semester"}));
}

TEST(CodasylParserTest, FindAnyWithoutUsing) {
  auto s = MustParseAs<FindAnyStatement>("FIND ANY course");
  EXPECT_TRUE(s.items.empty());
}

TEST(CodasylParserTest, FindAnyRejectsMismatchedRecord) {
  auto stmt = ParseStatement("FIND ANY course USING title IN student");
  ASSERT_FALSE(stmt.ok());
}

TEST(CodasylParserTest, FindCurrent) {
  auto s = MustParseAs<FindCurrentStatement>(
      "FIND CURRENT student WITHIN person_student");
  EXPECT_EQ(s.record, "student");
  EXPECT_EQ(s.set, "person_student");
}

TEST(CodasylParserTest, FindDuplicate) {
  auto s = MustParseAs<FindDuplicateStatement>(
      "FIND DUPLICATE WITHIN person_student USING major IN student");
  EXPECT_EQ(s.set, "person_student");
  EXPECT_EQ(s.items, std::vector<std::string>{"major"});
  EXPECT_EQ(s.record, "student");
}

TEST(CodasylParserTest, FindPositionalVariants) {
  EXPECT_EQ(MustParseAs<FindPositionalStatement>(
                "FIND FIRST student WITHIN advisor")
                .position,
            FindPosition::kFirst);
  EXPECT_EQ(MustParseAs<FindPositionalStatement>(
                "FIND LAST student WITHIN advisor")
                .position,
            FindPosition::kLast);
  EXPECT_EQ(MustParseAs<FindPositionalStatement>(
                "FIND NEXT student WITHIN advisor")
                .position,
            FindPosition::kNext);
  EXPECT_EQ(MustParseAs<FindPositionalStatement>(
                "FIND PRIOR student WITHIN advisor")
                .position,
            FindPosition::kPrior);
}

TEST(CodasylParserTest, FindOwner) {
  auto s = MustParseAs<FindOwnerStatement>("FIND OWNER WITHIN advisor");
  EXPECT_EQ(s.set, "advisor");
}

TEST(CodasylParserTest, FindWithinCurrent) {
  auto s = MustParseAs<FindWithinCurrentStatement>(
      "FIND student WITHIN advisor CURRENT USING major IN student");
  EXPECT_EQ(s.record, "student");
  EXPECT_EQ(s.set, "advisor");
  EXPECT_EQ(s.items, std::vector<std::string>{"major"});
}

TEST(CodasylParserTest, GetVariants) {
  EXPECT_EQ(MustParseAs<GetStatement>("GET").kind, GetStatement::Kind::kAll);
  auto record = MustParseAs<GetStatement>("GET student");
  EXPECT_EQ(record.kind, GetStatement::Kind::kRecord);
  EXPECT_EQ(record.record, "student");
  auto items = MustParseAs<GetStatement>("GET major, advisor IN student");
  EXPECT_EQ(items.kind, GetStatement::Kind::kItems);
  EXPECT_EQ(items.items, (std::vector<std::string>{"major", "advisor"}));
  EXPECT_EQ(items.record, "student");
}

TEST(CodasylParserTest, StoreConnectDisconnect) {
  EXPECT_EQ(MustParseAs<StoreStatement>("STORE course").record, "course");
  auto connect = MustParseAs<ConnectStatement>(
      "CONNECT student TO advisor, person_student");
  EXPECT_EQ(connect.sets,
            (std::vector<std::string>{"advisor", "person_student"}));
  auto disconnect =
      MustParseAs<DisconnectStatement>("DISCONNECT student FROM advisor");
  EXPECT_EQ(disconnect.sets, std::vector<std::string>{"advisor"});
}

TEST(CodasylParserTest, ModifyVariants) {
  auto whole = MustParseAs<ModifyStatement>("MODIFY course");
  EXPECT_TRUE(whole.items.empty());
  auto items = MustParseAs<ModifyStatement>(
      "MODIFY title, credits IN course");
  EXPECT_EQ(items.items, (std::vector<std::string>{"title", "credits"}));
}

TEST(CodasylParserTest, EraseVariants) {
  EXPECT_FALSE(MustParseAs<EraseStatement>("ERASE course").all);
  EXPECT_TRUE(MustParseAs<EraseStatement>("ERASE ALL course").all);
}

TEST(CodasylParserTest, KeywordsAreCaseInsensitive) {
  auto s = MustParseAs<FindAnyStatement>(
      "find any course using title in course");
  EXPECT_EQ(s.record, "course");
}

TEST(CodasylParserTest, RejectsUnknownStatement) {
  EXPECT_FALSE(ParseStatement("FROB course").ok());
}

TEST(CodasylParserTest, RejectsUnterminatedLiteral) {
  EXPECT_FALSE(ParseStatement("MOVE 'oops TO title IN course").ok());
}

TEST(CodasylParserTest, RejectsTrailingGarbage) {
  EXPECT_FALSE(ParseStatement("STORE course extra").ok());
  // The message quotes the offending token as it was written.
  auto literal = ParseStatement("GET title IN course 42");
  ASSERT_FALSE(literal.ok());
  EXPECT_EQ(literal.status().message(),
            "trailing input after DML statement: '42'");
}

TEST(CodasylParserTest, ProgramSplitsStatementsAndSkipsComments) {
  auto program = ParseProgram(
      "-- setup\n"
      "MOVE 'X' TO title IN course\n"
      "\n"
      "FIND ANY course USING title IN course; GET\n");
  ASSERT_TRUE(program.ok()) << program.status();
  EXPECT_EQ(program->size(), 3u);
}

TEST(CodasylParserTest, EmptyProgramRejected) {
  EXPECT_FALSE(ParseProgram("  \n-- nothing\n").ok());
}

TEST(CodasylParserTest, WalkChain) {
  auto s = MustParseAs<WalkStatement>("WALK dept THEN advisor THEN enrolls");
  ASSERT_EQ(s.sets.size(), 3u);
  EXPECT_EQ(s.sets[0], "dept");
  EXPECT_EQ(s.sets[1], "advisor");
  EXPECT_EQ(s.sets[2], "enrolls");
  EXPECT_EQ(MustParseAs<WalkStatement>("WALK dept").sets.size(), 1u);
}

TEST(CodasylParserTest, WalkRejectsMissingSetName) {
  EXPECT_FALSE(ParseStatement("WALK").ok());
  EXPECT_FALSE(ParseStatement("WALK dept THEN").ok());
}

TEST(CodasylParserTest, ToStringRoundTrip) {
  const char* statements[] = {
      "MOVE 'Advanced Database' TO title IN course",
      "FIND ANY course USING title, semester IN course",
      "FIND CURRENT student WITHIN person_student",
      "FIND DUPLICATE WITHIN advisor USING major IN student",
      "FIND FIRST student WITHIN advisor",
      "FIND OWNER WITHIN advisor",
      "FIND student WITHIN advisor CURRENT USING major IN student",
      "GET",
      "GET student",
      "GET major, advisor IN student",
      "STORE course",
      "CONNECT student TO advisor",
      "DISCONNECT student FROM advisor",
      "MODIFY course",
      "MODIFY title, credits IN course",
      "ERASE course",
      "ERASE ALL course",
      "WALK dept",
      "WALK dept THEN advisor",
  };
  for (const char* text : statements) {
    auto first = ParseStatement(text);
    ASSERT_TRUE(first.ok()) << text;
    auto second = ParseStatement(ToString(*first));
    ASSERT_TRUE(second.ok()) << ToString(*first);
    EXPECT_EQ(ToString(*first), ToString(*second)) << text;
  }
}

}  // namespace
}  // namespace mlds::codasyl
