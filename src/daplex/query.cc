#include "daplex/query.h"

#include "abdm/lexer.h"
#include "common/strings.h"

namespace mlds::daplex {

namespace {

using abdm::TokenCursor;
using abdm::TokenKind;

constexpr abdm::Dialect kDaplexQuery{"Daplex query"};

/// A literal where a statement assigns or compares a value: quoted or
/// numeric, NULL, or a bare word taken as a string.
Result<abdm::Value> ParseLiteral(TokenCursor& in) {
  if (in.Peek().IsLiteral()) return in.Advance().value;
  if (in.Peek().kind == TokenKind::kWord) {
    if (in.ConsumeKeyword("NULL")) return abdm::Value::Null();
    return abdm::Value::String(std::string(in.Advance().text));
  }
  return in.Unexpected("literal");
}

/// An optional SUCH THAT f op v [AND ...] clause. FOR EACH reads any bare
/// word but AND and PRINT as a string, NULL included; UPDATE and DESTROY
/// read values with ParseLiteral.
Result<std::vector<Comparison>> ParseSuchThat(TokenCursor& in,
                                              bool for_each) {
  std::vector<Comparison> such_that;
  if (!in.ConsumeKeyword("SUCH")) return such_that;
  if (!in.ConsumeKeyword("THAT")) return in.Unexpected("THAT after SUCH");
  do {
    Comparison cmp;
    MLDS_ASSIGN_OR_RETURN(cmp.function,
                          in.ExpectName("function name in SUCH THAT"));
    std::optional<abdm::RelOp> op = in.ConsumeRelOp();
    if (!op) {
      return in.Unexpected("comparison operator after '" + cmp.function +
                           "'");
    }
    cmp.op = *op;
    if (!for_each) {
      MLDS_ASSIGN_OR_RETURN(cmp.value, ParseLiteral(in));
    } else if (in.Peek().IsLiteral()) {
      cmp.value = in.Advance().value;
    } else if (in.Peek().kind == TokenKind::kWord &&
               !in.PeekKeyword("AND") && !in.PeekKeyword("PRINT")) {
      cmp.value = abdm::Value::String(std::string(in.Advance().text));
    } else {
      return in.Unexpected("literal in SUCH THAT comparison");
    }
    such_that.push_back(std::move(cmp));
  } while (in.ConsumeKeyword("AND"));
  return such_that;
}

/// "( fn = value, ... )" after CREATE or UPDATE; `param_mask` is non-null
/// where a value may be the '?' parameter marker (CREATE templates).
Status ParseAssignments(
    TokenCursor& in, std::string_view list,
    std::vector<std::pair<std::string, abdm::Value>>* assignments,
    std::vector<uint8_t>* param_mask) {
  MLDS_RETURN_IF_ERROR(in.Expect("(", "opening " + std::string(list)));
  do {
    MLDS_ASSIGN_OR_RETURN(
        std::string fn,
        in.ExpectName("function name in " + std::string(list)));
    MLDS_RETURN_IF_ERROR(in.Expect("=", "after '" + fn + "'"));
    if (param_mask != nullptr && in.Consume("?")) {
      assignments->emplace_back(std::move(fn), abdm::Value::Null());
      param_mask->push_back(1);
      continue;
    }
    MLDS_ASSIGN_OR_RETURN(abdm::Value value, ParseLiteral(in));
    assignments->emplace_back(std::move(fn), std::move(value));
    if (param_mask != nullptr) param_mask->push_back(0);
  } while (in.Consume(","));
  return in.Expect(")", "closing " + std::string(list));
}

Result<ForEachQuery> ParseForEachFrom(TokenCursor& in) {
  if (!in.ConsumeKeyword("FOR") || !in.ConsumeKeyword("EACH")) {
    return Status::ParseError("Daplex query must begin with FOR EACH");
  }
  ForEachQuery query;
  MLDS_ASSIGN_OR_RETURN(query.type, in.ExpectName("type name after FOR EACH"));
  MLDS_ASSIGN_OR_RETURN(query.such_that,
                        ParseSuchThat(in, /*for_each=*/true));
  if (!in.ConsumeKeyword("PRINT")) return in.Unexpected("PRINT clause");
  if (in.ConsumeKeyword("ALL")) {
    query.print_all = true;
  } else {
    do {
      MLDS_ASSIGN_OR_RETURN(std::string word,
                            in.ExpectName("function name in PRINT list"));
      PrintItem item;
      const std::string upper = ToUpper(word);
      if ((upper == "COUNT" || upper == "AVG" || upper == "MIN" ||
           upper == "MAX" || upper == "SUM") &&
          in.Consume("(")) {
        MLDS_ASSIGN_OR_RETURN(item.function,
                              in.ExpectName("function inside aggregate"));
        item.aggregate = upper == "COUNT"  ? DaplexAggregate::kCount
                         : upper == "AVG" ? DaplexAggregate::kAvg
                         : upper == "MIN" ? DaplexAggregate::kMin
                         : upper == "MAX" ? DaplexAggregate::kMax
                                          : DaplexAggregate::kSum;
        MLDS_RETURN_IF_ERROR(in.Expect(")", "after aggregate"));
      } else {
        item.function = std::move(word);
      }
      query.print.push_back(std::move(item));
    } while (in.Consume(","));
  }
  return query;
}

Status ExpectEnd(const TokenCursor& in, std::string_view statement) {
  if (in.AtEnd()) return Status::OK();
  return Status::ParseError("trailing input after " + std::string(statement) +
                            ": " + in.Peek().Describe());
}

}  // namespace

Result<ForEachQuery> ParseForEach(std::string_view text) {
  MLDS_ASSIGN_OR_RETURN(TokenCursor in, TokenCursor::Open(text, kDaplexQuery));
  MLDS_ASSIGN_OR_RETURN(ForEachQuery query, ParseForEachFrom(in));
  MLDS_RETURN_IF_ERROR(ExpectEnd(in, "Daplex query"));
  return query;
}

Result<DaplexStatement> ParseDaplexStatement(std::string_view text) {
  MLDS_ASSIGN_OR_RETURN(TokenCursor in, TokenCursor::Open(text, kDaplexQuery));
  if (in.PeekKeyword("FOR")) {
    MLDS_ASSIGN_OR_RETURN(ForEachQuery query, ParseForEachFrom(in));
    MLDS_RETURN_IF_ERROR(ExpectEnd(in, "Daplex query"));
    return DaplexStatement(std::move(query));
  }

  if (in.ConsumeKeyword("CREATE")) {
    CreateStatement create;
    MLDS_ASSIGN_OR_RETURN(create.type,
                          in.ExpectName("type name after CREATE"));
    MLDS_RETURN_IF_ERROR(ParseAssignments(in, "CREATE list",
                                          &create.assignments,
                                          &create.param_mask));
    MLDS_RETURN_IF_ERROR(ExpectEnd(in, "CREATE"));
    return DaplexStatement(std::move(create));
  }

  if (in.ConsumeKeyword("UPDATE")) {
    UpdateStatement update;
    MLDS_ASSIGN_OR_RETURN(update.type,
                          in.ExpectName("type name after UPDATE"));
    MLDS_ASSIGN_OR_RETURN(update.such_that,
                          ParseSuchThat(in, /*for_each=*/false));
    MLDS_RETURN_IF_ERROR(ParseAssignments(in, "UPDATE assignments",
                                          &update.assignments, nullptr));
    MLDS_RETURN_IF_ERROR(ExpectEnd(in, "UPDATE"));
    return DaplexStatement(std::move(update));
  }

  if (in.ConsumeKeyword("DESTROY")) {
    DestroyStatement destroy;
    MLDS_ASSIGN_OR_RETURN(destroy.type,
                          in.ExpectName("type name after DESTROY"));
    MLDS_ASSIGN_OR_RETURN(destroy.such_that,
                          ParseSuchThat(in, /*for_each=*/false));
    MLDS_RETURN_IF_ERROR(ExpectEnd(in, "DESTROY"));
    return DaplexStatement(std::move(destroy));
  }

  return Status::ParseError(
      "Daplex statement must begin with FOR EACH, CREATE, UPDATE, or "
      "DESTROY");
}

}  // namespace mlds::daplex
