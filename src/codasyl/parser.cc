#include "codasyl/parser.h"

#include "abdm/lexer.h"
#include "common/strings.h"

namespace mlds::codasyl {

namespace {

constexpr abdm::Dialect kDml{"DML statement"};

class Parser {
 public:
  explicit Parser(abdm::TokenCursor in) : in_(std::move(in)) {}

  Result<Statement> Parse() {
    MLDS_ASSIGN_OR_RETURN(Statement stmt, ParseStatementBody());
    if (!in_.AtEnd()) {
      return Status::ParseError("trailing input after DML statement: " +
                                in_.Peek().Describe());
    }
    return stmt;
  }

  Result<ParsedStatement> ParseExplainable() {
    ParsedStatement out;
    if (in_.ConsumeKeyword("EXPLAIN")) {
      out.explain = true;
      if (in_.PeekKeyword("EXPLAIN")) {
        return Status::ParseError("EXPLAIN may appear only once");
      }
      if (in_.PeekKeyword("MOVE")) {
        return Status::ParseError(
            "EXPLAIN does not apply to MOVE: it issues no kernel request");
      }
      if (in_.AtEnd()) {
        return Status::ParseError("expected DML statement after EXPLAIN");
      }
    }
    MLDS_ASSIGN_OR_RETURN(out.statement, Parse());
    return out;
  }

 private:
  Result<std::vector<std::string>> ParseNameList(std::string_view what) {
    std::vector<std::string> names;
    do {
      MLDS_ASSIGN_OR_RETURN(std::string name, in_.ExpectName(what));
      names.push_back(std::move(name));
    } while (in_.Consume(","));
    return names;
  }

  Result<Statement> ParseStatementBody() {
    if (in_.ConsumeKeyword("MOVE")) return ParseMove();
    if (in_.ConsumeKeyword("FIND")) return ParseFind();
    if (in_.ConsumeKeyword("GET")) return ParseGet();
    if (in_.ConsumeKeyword("STORE")) {
      StoreStatement s;
      MLDS_ASSIGN_OR_RETURN(s.record, in_.ExpectName("record type"));
      // Optional inline assignment list: STORE rec (item = value | ?, ...)
      if (in_.Consume("(")) {
        do {
          StoreStatement::Assignment a;
          MLDS_ASSIGN_OR_RETURN(a.item, in_.ExpectName("item name"));
          MLDS_RETURN_IF_ERROR(in_.Expect("=", "in STORE assignment"));
          if (in_.Peek().IsLiteral()) {
            a.value = in_.Advance().value;
          } else if (in_.Consume("?")) {
            a.is_param = true;
          } else if (!in_.ConsumeKeyword("NULL")) {  // NULL leaves a.value null
            return in_.Unexpected("literal, NULL, or '?' in STORE assignment");
          }
          s.assignments.push_back(std::move(a));
        } while (in_.Consume(","));
        MLDS_RETURN_IF_ERROR(in_.Expect(")", "after STORE assignments"));
      }
      return Statement(std::move(s));
    }
    if (in_.ConsumeKeyword("CONNECT")) {
      ConnectStatement s;
      MLDS_ASSIGN_OR_RETURN(s.record, in_.ExpectName("record type"));
      MLDS_RETURN_IF_ERROR(in_.ExpectKeyword("TO"));
      MLDS_ASSIGN_OR_RETURN(s.sets, ParseNameList("set type"));
      return Statement(std::move(s));
    }
    if (in_.ConsumeKeyword("DISCONNECT")) {
      DisconnectStatement s;
      MLDS_ASSIGN_OR_RETURN(s.record, in_.ExpectName("record type"));
      MLDS_RETURN_IF_ERROR(in_.ExpectKeyword("FROM"));
      MLDS_ASSIGN_OR_RETURN(s.sets, ParseNameList("set type"));
      return Statement(std::move(s));
    }
    if (in_.ConsumeKeyword("RECONNECT")) {
      ReconnectStatement s;
      MLDS_ASSIGN_OR_RETURN(s.record, in_.ExpectName("record type"));
      MLDS_RETURN_IF_ERROR(in_.ExpectKeyword("IN"));
      MLDS_ASSIGN_OR_RETURN(s.sets, ParseNameList("set type"));
      return Statement(std::move(s));
    }
    if (in_.ConsumeKeyword("WALK")) {
      WalkStatement s;
      MLDS_ASSIGN_OR_RETURN(std::string first, in_.ExpectName("set type"));
      s.sets.push_back(std::move(first));
      while (in_.ConsumeKeyword("THEN")) {
        MLDS_ASSIGN_OR_RETURN(std::string next, in_.ExpectName("set type"));
        s.sets.push_back(std::move(next));
      }
      return Statement(std::move(s));
    }
    if (in_.ConsumeKeyword("MODIFY")) return ParseModify();
    if (in_.ConsumeKeyword("ERASE")) {
      EraseStatement s;
      s.all = in_.ConsumeKeyword("ALL");
      MLDS_ASSIGN_OR_RETURN(s.record, in_.ExpectName("record type"));
      return Statement(std::move(s));
    }
    return Status::ParseError("unknown DML statement: " +
                              in_.Peek().Describe());
  }

  Result<Statement> ParseMove() {
    MoveStatement s;
    if (in_.Peek().IsLiteral()) {
      s.value = in_.Advance().value;
    } else if (in_.Peek().kind == abdm::TokenKind::kWord &&
               !in_.PeekKeyword("TO")) {
      // Unquoted word literal, e.g. MOVE YES TO eof IN status.
      s.value = abdm::Value::String(std::string(in_.Advance().text));
    } else {
      return in_.Unexpected("literal after MOVE");
    }
    MLDS_RETURN_IF_ERROR(in_.ExpectKeyword("TO"));
    MLDS_ASSIGN_OR_RETURN(s.item, in_.ExpectName("item name"));
    MLDS_RETURN_IF_ERROR(in_.ExpectKeyword("IN"));
    MLDS_ASSIGN_OR_RETURN(s.record, in_.ExpectName("record type"));
    return Statement(std::move(s));
  }

  Result<Statement> ParseFind() {
    if (in_.ConsumeKeyword("ANY")) {
      FindAnyStatement s;
      MLDS_ASSIGN_OR_RETURN(s.record, in_.ExpectName("record type"));
      if (in_.ConsumeKeyword("USING")) {
        MLDS_ASSIGN_OR_RETURN(s.items, ParseNameList("item name"));
        MLDS_RETURN_IF_ERROR(in_.ExpectKeyword("IN"));
        MLDS_ASSIGN_OR_RETURN(std::string record2,
                              in_.ExpectName("record type"));
        if (record2 != s.record) {
          return Status::ParseError(
              "FIND ANY: USING items must be IN the same record type");
        }
      }
      if (in_.ConsumeKeyword("RETAINING")) {
        MLDS_ASSIGN_OR_RETURN(s.retaining, ParseNameList("set type"));
      }
      return Statement(std::move(s));
    }
    if (in_.ConsumeKeyword("CURRENT")) {
      FindCurrentStatement s;
      MLDS_ASSIGN_OR_RETURN(s.record, in_.ExpectName("record type"));
      MLDS_RETURN_IF_ERROR(in_.ExpectKeyword("WITHIN"));
      MLDS_ASSIGN_OR_RETURN(s.set, in_.ExpectName("set type"));
      return Statement(std::move(s));
    }
    if (in_.ConsumeKeyword("DUPLICATE")) {
      FindDuplicateStatement s;
      MLDS_RETURN_IF_ERROR(in_.ExpectKeyword("WITHIN"));
      MLDS_ASSIGN_OR_RETURN(s.set, in_.ExpectName("set type"));
      MLDS_RETURN_IF_ERROR(in_.ExpectKeyword("USING"));
      MLDS_ASSIGN_OR_RETURN(s.items, ParseNameList("item name"));
      MLDS_RETURN_IF_ERROR(in_.ExpectKeyword("IN"));
      MLDS_ASSIGN_OR_RETURN(s.record, in_.ExpectName("record type"));
      return Statement(std::move(s));
    }
    if (in_.ConsumeKeyword("OWNER")) {
      FindOwnerStatement s;
      MLDS_RETURN_IF_ERROR(in_.ExpectKeyword("WITHIN"));
      MLDS_ASSIGN_OR_RETURN(s.set, in_.ExpectName("set type"));
      return Statement(std::move(s));
    }
    for (FindPosition pos : {FindPosition::kFirst, FindPosition::kLast,
                             FindPosition::kNext, FindPosition::kPrior}) {
      if (in_.ConsumeKeyword(FindPositionToString(pos))) {
        FindPositionalStatement s;
        s.position = pos;
        MLDS_ASSIGN_OR_RETURN(s.record, in_.ExpectName("record type"));
        MLDS_RETURN_IF_ERROR(in_.ExpectKeyword("WITHIN"));
        MLDS_ASSIGN_OR_RETURN(s.set, in_.ExpectName("set type"));
        return Statement(std::move(s));
      }
    }
    // FIND record WITHIN set CURRENT USING items IN record.
    FindWithinCurrentStatement s;
    MLDS_ASSIGN_OR_RETURN(s.record, in_.ExpectName("record type"));
    MLDS_RETURN_IF_ERROR(in_.ExpectKeyword("WITHIN"));
    MLDS_ASSIGN_OR_RETURN(s.set, in_.ExpectName("set type"));
    MLDS_RETURN_IF_ERROR(in_.ExpectKeyword("CURRENT"));
    MLDS_RETURN_IF_ERROR(in_.ExpectKeyword("USING"));
    MLDS_ASSIGN_OR_RETURN(s.items, ParseNameList("item name"));
    MLDS_RETURN_IF_ERROR(in_.ExpectKeyword("IN"));
    MLDS_ASSIGN_OR_RETURN(std::string record2, in_.ExpectName("record type"));
    if (record2 != s.record) {
      return Status::ParseError(
          "FIND WITHIN CURRENT: USING items must be IN the same record type");
    }
    return Statement(std::move(s));
  }

  Result<Statement> ParseGet() {
    GetStatement s;
    if (in_.AtEnd()) {
      s.kind = GetStatement::Kind::kAll;
      return Statement(std::move(s));
    }
    // Either GET record, or GET items IN record.
    MLDS_ASSIGN_OR_RETURN(std::string first, in_.ExpectName("record or item"));
    if (in_.AtEnd()) {
      s.kind = GetStatement::Kind::kRecord;
      s.record = std::move(first);
      return Statement(std::move(s));
    }
    s.kind = GetStatement::Kind::kItems;
    MLDS_RETURN_IF_ERROR(ParseItemsIn(std::move(first), &s.items, &s.record));
    return Statement(std::move(s));
  }

  Result<Statement> ParseModify() {
    ModifyStatement s;
    MLDS_ASSIGN_OR_RETURN(std::string first, in_.ExpectName("record or item"));
    if (in_.AtEnd()) {
      s.record = std::move(first);
      return Statement(std::move(s));
    }
    MLDS_RETURN_IF_ERROR(ParseItemsIn(std::move(first), &s.items, &s.record));
    return Statement(std::move(s));
  }

  /// The rest of "item [, item]... IN record" (GET, MODIFY) after its
  /// first item.
  Status ParseItemsIn(std::string first, std::vector<std::string>* items,
                      std::string* record) {
    items->push_back(std::move(first));
    while (in_.Consume(",")) {
      MLDS_ASSIGN_OR_RETURN(std::string item, in_.ExpectName("item name"));
      items->push_back(std::move(item));
    }
    MLDS_RETURN_IF_ERROR(in_.ExpectKeyword("IN"));
    MLDS_ASSIGN_OR_RETURN(*record, in_.ExpectName("record type"));
    return Status::OK();
  }

  abdm::TokenCursor in_;
};

}  // namespace

Result<Statement> ParseStatement(std::string_view text) {
  MLDS_ASSIGN_OR_RETURN(abdm::TokenCursor in,
                        abdm::TokenCursor::Open(text, kDml));
  return Parser(std::move(in)).Parse();
}

Result<ParsedStatement> ParseDmlStatement(std::string_view text) {
  MLDS_ASSIGN_OR_RETURN(abdm::TokenCursor in,
                        abdm::TokenCursor::Open(text, kDml));
  return Parser(std::move(in)).ParseExplainable();
}

Result<std::vector<ParsedStatement>> ParseDmlProgram(std::string_view text) {
  std::vector<ParsedStatement> out;
  for (std::string_view line : ProgramStatements(text)) {
    MLDS_ASSIGN_OR_RETURN(ParsedStatement stmt, ParseDmlStatement(line));
    out.push_back(std::move(stmt));
  }
  if (out.empty()) return Status::ParseError("empty DML program");
  return out;
}

Result<std::vector<Statement>> ParseProgram(std::string_view text) {
  MLDS_ASSIGN_OR_RETURN(std::vector<ParsedStatement> parsed,
                        ParseDmlProgram(text));
  std::vector<Statement> out;
  out.reserve(parsed.size());
  for (ParsedStatement& stmt : parsed) {
    if (stmt.explain) {
      return Status::ParseError(
          "EXPLAIN is not supported here; use ParseDmlProgram");
    }
    out.push_back(std::move(stmt.statement));
  }
  return out;
}

}  // namespace mlds::codasyl
