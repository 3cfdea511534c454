#include "sql/ast.h"

#include "abdm/lexer.h"
#include "common/strings.h"

namespace mlds::sql {

namespace {

constexpr abdm::Dialect kSql{"SQL"};

/// Boolean expression over comparisons, flattened to DNF after parsing.
struct BoolExpr {
  enum class Kind { kLeaf, kAnd, kOr } kind = Kind::kLeaf;
  SqlComparison leaf;
  std::vector<BoolExpr> children;
};

std::vector<std::vector<SqlComparison>> ToDnf(const BoolExpr& e) {
  switch (e.kind) {
    case BoolExpr::Kind::kLeaf:
      return {{e.leaf}};
    case BoolExpr::Kind::kOr: {
      std::vector<std::vector<SqlComparison>> out;
      for (const auto& child : e.children) {
        auto sub = ToDnf(child);
        out.insert(out.end(), sub.begin(), sub.end());
      }
      return out;
    }
    case BoolExpr::Kind::kAnd: {
      std::vector<std::vector<SqlComparison>> acc = {{}};
      for (const auto& child : e.children) {
        auto sub = ToDnf(child);
        std::vector<std::vector<SqlComparison>> next;
        for (const auto& a : acc) {
          for (const auto& b : sub) {
            auto merged = a;
            merged.insert(merged.end(), b.begin(), b.end());
            next.push_back(std::move(merged));
          }
        }
        acc = std::move(next);
      }
      return acc;
    }
  }
  return {};
}

class Parser {
 public:
  explicit Parser(abdm::TokenCursor in) : in_(std::move(in)) {}

  Result<SqlStatement> Parse() {
    MLDS_ASSIGN_OR_RETURN(SqlStatement stmt, ParseStatement());
    in_.Consume(";");
    if (!in_.AtEnd()) {
      return Status::ParseError("trailing input after SQL statement: " +
                                in_.Peek().Describe());
    }
    return stmt;
  }

 private:
  Result<ColumnRef> ParseColumnRef() {
    MLDS_ASSIGN_OR_RETURN(std::string first, in_.ExpectName("column"));
    if (in_.Consume(".")) {
      MLDS_ASSIGN_OR_RETURN(std::string column, in_.ExpectName("column"));
      return ColumnRef{std::move(first), std::move(column)};
    }
    return ColumnRef{"", std::move(first)};
  }

  /// A literal or NULL, if one is next.
  std::optional<abdm::Value> ConsumeValue() {
    if (in_.Peek().IsLiteral()) return in_.Advance().value;
    if (in_.ConsumeKeyword("NULL")) return abdm::Value::Null();
    return std::nullopt;
  }

  Result<SqlStatement> ParseStatement() {
    // EXPLAIN prefixes a statement with an access path: the statement
    // executes normally and its annotated plan rides along.
    if (in_.ConsumeKeyword("EXPLAIN")) {
      if (in_.PeekKeyword("EXPLAIN")) {
        return Status::ParseError("EXPLAIN may appear only once");
      }
      if (in_.ConsumeKeyword("INSERT")) {
        return Status::ParseError("EXPLAIN does not apply to INSERT");
      }
      MLDS_ASSIGN_OR_RETURN(SqlStatement stmt, ParseStatement());
      std::visit([](auto& s) {
        if constexpr (!std::is_same_v<std::decay_t<decltype(s)>,
                                      InsertStatement>) {
          s.explain = true;
        }
      }, stmt);
      return stmt;
    }
    if (in_.ConsumeKeyword("SELECT")) return ParseSelect();
    if (in_.ConsumeKeyword("INSERT")) return ParseInsert();
    if (in_.ConsumeKeyword("UPDATE")) return ParseUpdate();
    if (in_.ConsumeKeyword("DELETE")) return ParseDelete();
    return in_.Unexpected("SELECT, INSERT, UPDATE, or DELETE");
  }

  Result<SqlStatement> ParseSelect() {
    SelectStatement stmt;
    do {
      SelectItem item;
      const std::string upper = in_.Peek().kind == abdm::TokenKind::kWord
                                    ? ToUpper(in_.Peek().text)
                                    : std::string();
      if (in_.Consume("*")) {
        item.star = true;
      } else if ((upper == "COUNT" || upper == "SUM" || upper == "AVG" ||
                  upper == "MIN" || upper == "MAX") &&
                 in_.Peek(1).Is("(")) {
        in_.Advance();
        in_.Advance();
        item.aggregate = upper == "COUNT"  ? SqlAggregate::kCount
                         : upper == "SUM" ? SqlAggregate::kSum
                         : upper == "AVG" ? SqlAggregate::kAvg
                         : upper == "MIN" ? SqlAggregate::kMin
                                          : SqlAggregate::kMax;
        if (in_.Consume("*")) {
          item.star = true;  // COUNT(*)
        } else {
          MLDS_ASSIGN_OR_RETURN(item.column, ParseColumnRef());
        }
        MLDS_RETURN_IF_ERROR(in_.Expect(")"));
      } else {
        MLDS_ASSIGN_OR_RETURN(item.column, ParseColumnRef());
      }
      stmt.items.push_back(std::move(item));
    } while (in_.Consume(","));
    MLDS_RETURN_IF_ERROR(in_.ExpectKeyword("FROM"));
    do {
      MLDS_ASSIGN_OR_RETURN(std::string table, in_.ExpectName("table"));
      stmt.from.push_back(std::move(table));
    } while (in_.Consume(","));
    if (stmt.from.size() > 2) {
      return Status::Unimplemented(
          "SELECT supports at most two tables (the RETRIEVE-COMMON join)");
    }
    if (in_.ConsumeKeyword("WHERE")) {
      MLDS_ASSIGN_OR_RETURN(stmt.where, ParseWhere());
    }
    if (in_.ConsumeKeyword("GROUP")) {
      MLDS_RETURN_IF_ERROR(in_.ExpectKeyword("BY"));
      MLDS_ASSIGN_OR_RETURN(ColumnRef ref, ParseColumnRef());
      stmt.group_by = ref.column;
    }
    if (in_.ConsumeKeyword("ORDER")) {
      MLDS_RETURN_IF_ERROR(in_.ExpectKeyword("BY"));
      MLDS_ASSIGN_OR_RETURN(ColumnRef ref, ParseColumnRef());
      stmt.order_by = ref.column;
    }
    return SqlStatement(std::move(stmt));
  }

  Result<WhereClause> ParseWhere() {
    MLDS_ASSIGN_OR_RETURN(BoolExpr expr, ParseOr());
    WhereClause where;
    where.disjuncts = ToDnf(expr);
    return where;
  }

  Result<BoolExpr> ParseOr() {
    MLDS_ASSIGN_OR_RETURN(BoolExpr left, ParseAnd());
    if (!in_.PeekKeyword("OR")) return left;
    BoolExpr node;
    node.kind = BoolExpr::Kind::kOr;
    node.children.push_back(std::move(left));
    while (in_.ConsumeKeyword("OR")) {
      MLDS_ASSIGN_OR_RETURN(BoolExpr next, ParseAnd());
      node.children.push_back(std::move(next));
    }
    return node;
  }

  Result<BoolExpr> ParseAnd() {
    MLDS_ASSIGN_OR_RETURN(BoolExpr left, ParsePrimary());
    if (!in_.PeekKeyword("AND")) return left;
    BoolExpr node;
    node.kind = BoolExpr::Kind::kAnd;
    node.children.push_back(std::move(left));
    while (in_.ConsumeKeyword("AND")) {
      MLDS_ASSIGN_OR_RETURN(BoolExpr next, ParsePrimary());
      node.children.push_back(std::move(next));
    }
    return node;
  }

  Result<BoolExpr> ParsePrimary() {
    if (in_.Consume("(")) {
      MLDS_ASSIGN_OR_RETURN(BoolExpr inner, ParseOr());
      MLDS_RETURN_IF_ERROR(in_.Expect(")"));
      return inner;
    }
    BoolExpr leaf;
    leaf.kind = BoolExpr::Kind::kLeaf;
    MLDS_ASSIGN_OR_RETURN(leaf.leaf.left, ParseColumnRef());
    std::optional<abdm::RelOp> op = in_.ConsumeRelOp();
    if (!op) {
      return in_.Unexpected("comparison operator after '" +
                            leaf.leaf.left.ToString() + "'");
    }
    leaf.leaf.op = *op;
    if (std::optional<abdm::Value> value = ConsumeValue()) {
      leaf.leaf.value = std::move(*value);
    } else if (in_.Peek().kind == abdm::TokenKind::kWord) {
      MLDS_ASSIGN_OR_RETURN(ColumnRef right, ParseColumnRef());
      leaf.leaf.right_column = std::move(right);
    } else {
      return in_.Unexpected("literal or column after operator");
    }
    return leaf;
  }

  Result<SqlStatement> ParseInsert() {
    MLDS_RETURN_IF_ERROR(in_.ExpectKeyword("INTO"));
    InsertStatement stmt;
    MLDS_ASSIGN_OR_RETURN(stmt.table, in_.ExpectName("table"));
    MLDS_RETURN_IF_ERROR(in_.Expect("("));
    do {
      MLDS_ASSIGN_OR_RETURN(std::string column, in_.ExpectName("column"));
      stmt.columns.push_back(std::move(column));
    } while (in_.Consume(","));
    MLDS_RETURN_IF_ERROR(in_.Expect(")"));
    MLDS_RETURN_IF_ERROR(in_.ExpectKeyword("VALUES"));
    // First VALUES row: literals, NULL, or `?` parameter markers.
    MLDS_ASSIGN_OR_RETURN(auto first,
                          ParseValuesRow(/*allow_params=*/true));
    stmt.values = std::move(first.first);
    stmt.param_mask = std::move(first.second);
    if (stmt.columns.size() != stmt.values.size()) {
      return Status::ParseError("INSERT column/value count mismatch");
    }
    // Additional rows: a multi-row INSERT executes as one kernel batch.
    while (in_.Consume(",")) {
      MLDS_ASSIGN_OR_RETURN(auto row, ParseValuesRow(/*allow_params=*/false));
      if (row.first.size() != stmt.columns.size()) {
        return Status::ParseError("INSERT column/value count mismatch");
      }
      stmt.more_rows.push_back(std::move(row.first));
    }
    if (stmt.parameterized() && !stmt.more_rows.empty()) {
      return Status::ParseError(
          "parameter markers require a single VALUES row");
    }
    return SqlStatement(std::move(stmt));
  }

  /// One parenthesized VALUES row. Returns (values, param mask); `?` is
  /// only legal when `allow_params` is set (the first row of a template).
  Result<std::pair<std::vector<abdm::Value>, std::vector<uint8_t>>>
  ParseValuesRow(bool allow_params) {
    MLDS_RETURN_IF_ERROR(in_.Expect("("));
    std::vector<abdm::Value> values;
    std::vector<uint8_t> mask;
    do {
      if (std::optional<abdm::Value> value = ConsumeValue()) {
        values.push_back(std::move(*value));
        mask.push_back(0);
      } else if (in_.Peek().Is("?")) {
        if (!allow_params) {
          return Status::ParseError(
              "parameter markers require a single VALUES row");
        }
        in_.Advance();
        values.push_back(abdm::Value::Null());
        mask.push_back(1);
      } else {
        return in_.Unexpected("literal in VALUES list");
      }
    } while (in_.Consume(","));
    MLDS_RETURN_IF_ERROR(in_.Expect(")"));
    return std::make_pair(std::move(values), std::move(mask));
  }

  Result<SqlStatement> ParseUpdate() {
    UpdateStatement stmt;
    MLDS_ASSIGN_OR_RETURN(stmt.table, in_.ExpectName("table"));
    MLDS_RETURN_IF_ERROR(in_.ExpectKeyword("SET"));
    do {
      MLDS_ASSIGN_OR_RETURN(std::string column, in_.ExpectName("column"));
      MLDS_RETURN_IF_ERROR(in_.Expect("=", "in SET clause"));
      std::optional<abdm::Value> value = ConsumeValue();
      if (!value) return in_.Unexpected("literal in SET clause");
      stmt.assignments.emplace_back(std::move(column), std::move(*value));
    } while (in_.Consume(","));
    if (in_.ConsumeKeyword("WHERE")) {
      MLDS_ASSIGN_OR_RETURN(stmt.where, ParseWhere());
    }
    return SqlStatement(std::move(stmt));
  }

  Result<SqlStatement> ParseDelete() {
    MLDS_RETURN_IF_ERROR(in_.ExpectKeyword("FROM"));
    DeleteStatement stmt;
    MLDS_ASSIGN_OR_RETURN(stmt.table, in_.ExpectName("table"));
    if (in_.ConsumeKeyword("WHERE")) {
      MLDS_ASSIGN_OR_RETURN(stmt.where, ParseWhere());
    }
    return SqlStatement(std::move(stmt));
  }

  abdm::TokenCursor in_;
};

}  // namespace

Result<SqlStatement> ParseSql(std::string_view text) {
  MLDS_ASSIGN_OR_RETURN(abdm::TokenCursor in,
                        abdm::TokenCursor::Open(text, kSql));
  return Parser(std::move(in)).Parse();
}

}  // namespace mlds::sql
