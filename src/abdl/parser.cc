#include "abdl/parser.h"

#include "abdl/prepared.h"

#include <charconv>
#include <memory>
#include <string>
#include <vector>

#include "abdm/lexer.h"
#include "common/strings.h"

namespace mlds::abdl {

namespace {

using abdm::Conjunction;
using abdm::Predicate;
using abdm::Query;
using abdm::TokenCursor;
using abdm::TokenKind;
using abdm::Value;

/// ABDL words may also contain '-' and '.' (RETRIEVE-COMMON, dotted
/// attribute names). Bare '<' and '>' are both keyword delimiters
/// (INSERT lists) and relational operators; the parser resolves them by
/// context.
constexpr abdm::Dialect kAbdl{"ABDL text", "-."};

/// Boolean expression tree over predicates, normalized to DNF after
/// parsing. AND binds tighter than OR.
struct BoolExpr {
  enum class Kind { kPred, kAnd, kOr } kind = Kind::kPred;
  Predicate pred;
  std::vector<BoolExpr> children;
};

/// Distributes the expression tree into DNF: a vector of conjunctions.
std::vector<Conjunction> ToDnf(const BoolExpr& e) {
  switch (e.kind) {
    case BoolExpr::Kind::kPred:
      return {Conjunction{{e.pred}}};
    case BoolExpr::Kind::kOr: {
      std::vector<Conjunction> out;
      for (const auto& child : e.children) {
        auto sub = ToDnf(child);
        out.insert(out.end(), sub.begin(), sub.end());
      }
      return out;
    }
    case BoolExpr::Kind::kAnd: {
      std::vector<Conjunction> acc = {Conjunction{}};
      for (const auto& child : e.children) {
        auto sub = ToDnf(child);
        std::vector<Conjunction> next;
        next.reserve(acc.size() * sub.size());
        for (const auto& a : acc) {
          for (const auto& b : sub) {
            Conjunction merged = a;
            merged.predicates.insert(merged.predicates.end(),
                                     b.predicates.begin(), b.predicates.end());
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
  explicit Parser(TokenCursor in, const KindOf* kind_of = nullptr)
      : in_(std::move(in)), kind_of_(kind_of) {}

  Result<Request> ParseOneRequest() {
    MLDS_ASSIGN_OR_RETURN(Request req, ParseRequestBody());
    if (!in_.AtEnd()) {
      return Status::ParseError("trailing input after ABDL request: " +
                                in_.Peek().Describe());
    }
    return req;
  }

  Result<Transaction> ParseAll() {
    Transaction txn;
    while (!in_.AtEnd()) {
      MLDS_ASSIGN_OR_RETURN(Request req, ParseRequestBody());
      txn.push_back(std::move(req));
      while (in_.Consume(";")) continue;
    }
    if (txn.empty()) return Status::ParseError("empty ABDL transaction");
    return txn;
  }

  Result<Query> ParseBareQuery() {
    MLDS_ASSIGN_OR_RETURN(Query q, ParseQueryExpr());
    if (!in_.AtEnd()) {
      return Status::ParseError("trailing input after query: " +
                                in_.Peek().Describe());
    }
    return q;
  }

  Result<PreparedRequest> ParsePrepared() {
    if (!in_.ConsumeKeyword("INSERT")) {
      return Status::ParseError("prepared templates support INSERT only");
    }
    PreparedRequest prepared;
    MLDS_ASSIGN_OR_RETURN(prepared.constants,
                          ParseInsertGroup(&prepared.parameters));
    if (!in_.AtEnd()) {
      return Status::ParseError(
          "trailing input after prepared INSERT template: " +
          in_.Peek().Describe());
    }
    return prepared;
  }

 private:
  Result<Request> ParseRequestBody() {
    // EXPLAIN prefixes a query-bearing request: the request executes
    // normally and additionally returns its annotated physical plan.
    const bool explain = in_.ConsumeKeyword("EXPLAIN");
    MLDS_ASSIGN_OR_RETURN(
        std::string word,
        in_.ExpectName(explain ? "ABDL operation after EXPLAIN"
                               : "ABDL operation keyword"));
    const std::string op = ToUpper(word);
    if (op == "EXPLAIN") {
      return Status::ParseError("EXPLAIN may appear only once");
    }
    if (op == "INSERT") {
      if (explain) {
        // INSERT chooses no access path; there is no plan to show.
        return Status::ParseError("EXPLAIN does not apply to INSERT");
      }
      return ParseInsert();
    }
    Result<Request> req = [&]() -> Result<Request> {
      if (op == "DELETE") return ParseDelete();
      if (op == "UPDATE") return ParseUpdate();
      if (op == "RETRIEVE") return ParseRetrieve();
      if (op == "RETRIEVE-COMMON") return ParseRetrieveCommon();
      return Status::ParseError("unknown ABDL operation '" + op + "'");
    }();
    if (req.ok() && explain) SetExplain(*req, true);
    return req;
  }

  /// A literal; one written for `attribute` of file_ parses by the
  /// attribute's stored kind when kind_of_ knows it.
  Result<Value> ParseLiteral(std::string_view attribute = {}) {
    const abdm::Token& t = in_.Peek();
    if (t.kind == TokenKind::kNumber && !t.value.is_float() &&
        kind_of_ != nullptr && !file_.empty() && !attribute.empty() &&
        (*kind_of_)(file_, attribute) == abdm::ValueKind::kFloat) {
      double number = 0.0;
      auto [ptr, ec] = std::from_chars(t.text.data(),
                                       t.text.data() + t.text.size(), number);
      if (ec == std::errc() && ptr == t.text.data() + t.text.size()) {
        in_.Advance();
        return Value::Float(number);
      }
    }
    if (t.IsLiteral()) return in_.Advance().value;
    if (t.kind == TokenKind::kWord) {
      in_.Advance();
      if (EqualsIgnoreCase(t.text, "NULL")) return Value::Null();
      // Unquoted identifiers are treated as string literals; the thesis
      // writes values like (FILE = course) without quotes.
      return Value::String(std::string(t.text));
    }
    return in_.Unexpected("literal");
  }

  /// Parses one '(' <attr, value> ... ')' keyword group. When `params`
  /// is non-null, a keyword value may be the '?' parameter marker; the
  /// attribute is then recorded as a parameter slot instead of a
  /// constant.
  Result<abdm::Record> ParseInsertGroup(std::vector<std::string>* params) {
    MLDS_RETURN_IF_ERROR(in_.Expect("(", "after INSERT"));
    abdm::Record record;
    file_.clear();
    do {
      MLDS_RETURN_IF_ERROR(in_.Expect("<", "opening keyword"));
      MLDS_ASSIGN_OR_RETURN(std::string attr,
                            in_.ExpectName("attribute name in keyword"));
      MLDS_RETURN_IF_ERROR(in_.Expect(",", "in keyword"));
      if (in_.Peek().Is("?")) {
        if (params == nullptr) {
          return Status::ParseError(
              "parameter marker '?' is only valid in a prepared INSERT "
              "template");
        }
        in_.Advance();
        params->push_back(attr);
      } else {
        MLDS_ASSIGN_OR_RETURN(Value v, ParseLiteral(attr));
        if (attr == abdm::kFileAttribute && v.is_string()) file_ = v.AsString();
        record.Set(attr, std::move(v));
      }
      MLDS_RETURN_IF_ERROR(in_.Expect(">", "closing keyword"));
    } while (in_.Consume(","));
    MLDS_RETURN_IF_ERROR(in_.Expect(")", "after keyword list"));
    return record;
  }

  Result<Request> ParseInsert() {
    InsertRequest insert;
    do {
      MLDS_ASSIGN_OR_RETURN(abdm::Record record, ParseInsertGroup(nullptr));
      insert.records.push_back(std::move(record));
    } while (in_.Peek().Is("("));
    return Request(std::move(insert));
  }

  Result<Request> ParseDelete() {
    MLDS_ASSIGN_OR_RETURN(Query q, ParseQueryExpr());
    return Request(DeleteRequest{std::move(q)});
  }

  Result<Request> ParseUpdate() {
    MLDS_ASSIGN_OR_RETURN(Query q, ParseQueryExpr());
    MLDS_RETURN_IF_ERROR(in_.Expect("(", "opening modifier"));
    Modifier mod;
    MLDS_ASSIGN_OR_RETURN(mod.attribute,
                          in_.ExpectName("attribute in modifier"));
    MLDS_RETURN_IF_ERROR(in_.Expect("=", "in modifier"));
    // Either "attr = literal" or "attr = attr + literal".
    if (in_.Peek().kind == TokenKind::kWord &&
        in_.Peek().text == mod.attribute && in_.Peek(1).Is("+")) {
      in_.Advance();  // attr
      in_.Advance();  // '+'
      mod.kind = ModifierKind::kAdd;
    } else {
      mod.kind = ModifierKind::kSet;
    }
    file_ = q.SingleFile();
    MLDS_ASSIGN_OR_RETURN(mod.operand, ParseLiteral(mod.attribute));
    MLDS_RETURN_IF_ERROR(in_.Expect(")", "closing modifier"));
    return Request(UpdateRequest{std::move(q), std::move(mod)});
  }

  Result<std::vector<TargetItem>> ParseTargetList(bool* all_attributes) {
    *all_attributes = false;
    std::vector<TargetItem> targets;
    MLDS_RETURN_IF_ERROR(in_.Expect("(", "opening target list"));
    if (in_.ConsumeKeyword("all")) {
      MLDS_RETURN_IF_ERROR(in_.ExpectKeyword("attributes"));
      *all_attributes = true;
      MLDS_RETURN_IF_ERROR(in_.Expect(")", "after target list"));
      return targets;
    }
    do {
      MLDS_ASSIGN_OR_RETURN(std::string name,
                            in_.ExpectName("target attribute"));
      TargetItem item;
      const std::string upper = ToUpper(name);
      if ((upper == "COUNT" || upper == "SUM" || upper == "AVG" ||
           upper == "MIN" || upper == "MAX") &&
          in_.Consume("(")) {
        MLDS_ASSIGN_OR_RETURN(item.attribute,
                              in_.ExpectName("attribute inside aggregate"));
        item.aggregate = upper == "COUNT"  ? AggregateOp::kCount
                         : upper == "SUM" ? AggregateOp::kSum
                         : upper == "AVG" ? AggregateOp::kAvg
                         : upper == "MIN" ? AggregateOp::kMin
                                          : AggregateOp::kMax;
        MLDS_RETURN_IF_ERROR(in_.Expect(")", "after aggregate"));
      } else {
        item.attribute = std::move(name);
      }
      targets.push_back(std::move(item));
    } while (in_.Consume(","));
    MLDS_RETURN_IF_ERROR(in_.Expect(")", "after target list"));
    return targets;
  }

  Result<Request> ParseRetrieve() {
    MLDS_ASSIGN_OR_RETURN(Query q, ParseQueryExpr());
    RetrieveRequest req;
    req.query = std::move(q);
    MLDS_ASSIGN_OR_RETURN(req.targets, ParseTargetList(&req.all_attributes));
    if (in_.ConsumeKeyword("by")) {
      MLDS_ASSIGN_OR_RETURN(req.by_attribute,
                            in_.ExpectName("attribute after BY"));
    }
    return Request(std::move(req));
  }

  /// One RETRIEVE-COMMON half: a query, then '(' join attribute ')'.
  Status ParseCommonHalf(Query* query, std::string* attribute) {
    MLDS_ASSIGN_OR_RETURN(*query, ParseQueryExpr());
    MLDS_RETURN_IF_ERROR(in_.Expect("(", "before join attribute"));
    MLDS_ASSIGN_OR_RETURN(*attribute, in_.ExpectName("join attribute"));
    return in_.Expect(")", "after join attribute");
  }

  Result<Request> ParseRetrieveCommon() {
    RetrieveCommonRequest req;
    MLDS_RETURN_IF_ERROR(ParseCommonHalf(&req.left_query, &req.left_attribute));
    if (!in_.ConsumeKeyword("and")) {
      return in_.Unexpected("AND between RETRIEVE-COMMON halves");
    }
    MLDS_RETURN_IF_ERROR(
        ParseCommonHalf(&req.right_query, &req.right_attribute));
    bool all = false;
    MLDS_ASSIGN_OR_RETURN(req.targets, ParseTargetList(&all));
    if (all) req.targets.clear();
    return Request(std::move(req));
  }

  // --- Query expression parsing (precedence: OR < AND < primary) ---

  Result<Query> ParseQueryExpr() {
    MLDS_ASSIGN_OR_RETURN(BoolExpr e, ParseOr());
    return Query(ToDnf(e));
  }

  Result<BoolExpr> ParseOr() {
    MLDS_ASSIGN_OR_RETURN(BoolExpr left, ParseAnd());
    if (!in_.PeekKeyword("or")) return left;
    BoolExpr node;
    node.kind = BoolExpr::Kind::kOr;
    node.children.push_back(std::move(left));
    while (in_.ConsumeKeyword("or")) {
      MLDS_ASSIGN_OR_RETURN(BoolExpr next, ParseAnd());
      node.children.push_back(std::move(next));
    }
    return node;
  }

  Result<BoolExpr> ParseAnd() {
    MLDS_ASSIGN_OR_RETURN(BoolExpr left, ParsePrimary());
    if (!in_.PeekKeyword("and")) return left;
    BoolExpr node;
    node.kind = BoolExpr::Kind::kAnd;
    node.children.push_back(std::move(left));
    while (in_.ConsumeKeyword("and")) {
      MLDS_ASSIGN_OR_RETURN(BoolExpr next, ParsePrimary());
      node.children.push_back(std::move(next));
    }
    return node;
  }

  /// A primary is either a parenthesized subexpression or a predicate:
  /// '(' expr ')' vs '(' ident relop literal ')'. We detect the predicate
  /// by looking two tokens ahead for a relational operator.
  Result<BoolExpr> ParsePrimary() {
    MLDS_RETURN_IF_ERROR(in_.Expect("(", "in query"));
    if (in_.Peek().kind == TokenKind::kWord && in_.PeekRelOp(1)) {
      BoolExpr e;
      e.kind = BoolExpr::Kind::kPred;
      e.pred.attribute = std::string(in_.Advance().text);
      e.pred.op = *in_.ConsumeRelOp();
      MLDS_ASSIGN_OR_RETURN(e.pred.value, ParseLiteral());
      MLDS_RETURN_IF_ERROR(in_.Expect(")", "closing predicate"));
      return e;
    }
    MLDS_ASSIGN_OR_RETURN(BoolExpr inner, ParseOr());
    MLDS_RETURN_IF_ERROR(in_.Expect(")", "closing subexpression"));
    return inner;
  }

  TokenCursor in_;
  const KindOf* kind_of_;
  /// The file the literal being parsed is stored in, when known.
  std::string file_;
};

Result<Parser> MakeParser(std::string_view text,
                          const KindOf* kind_of = nullptr) {
  MLDS_ASSIGN_OR_RETURN(TokenCursor in, TokenCursor::Open(text, kAbdl));
  return Parser(std::move(in), kind_of);
}

}  // namespace

Result<Request> ParseRequest(std::string_view text) {
  MLDS_ASSIGN_OR_RETURN(Parser parser, MakeParser(text));
  return parser.ParseOneRequest();
}

Result<Request> ParseRequest(std::string_view text, const KindOf& kind_of) {
  MLDS_ASSIGN_OR_RETURN(Parser parser, MakeParser(text, &kind_of));
  return parser.ParseOneRequest();
}

Result<Transaction> ParseTransaction(std::string_view text) {
  MLDS_ASSIGN_OR_RETURN(Parser parser, MakeParser(text));
  return parser.ParseAll();
}

Result<abdm::Query> ParseQuery(std::string_view text) {
  MLDS_ASSIGN_OR_RETURN(Parser parser, MakeParser(text));
  return parser.ParseBareQuery();
}

Result<PreparedRequest> ParsePreparedInsert(std::string_view text) {
  MLDS_ASSIGN_OR_RETURN(Parser parser, MakeParser(text));
  return parser.ParsePrepared();
}

}  // namespace mlds::abdl
