#include "daplex/ddl_parser.h"

#include <algorithm>
#include <string>
#include <vector>

#include "abdm/lexer.h"

namespace mlds::daplex {

namespace {

using abdm::TokenCursor;
using abdm::TokenKind;

constexpr abdm::Dialect kDaplexDdl{"Daplex DDL"};

class Parser {
 public:
  explicit Parser(TokenCursor in) : in_(std::move(in)) {}

  Result<FunctionalSchema> Parse() {
    while (!in_.AtEnd()) {
      MLDS_RETURN_IF_ERROR(ParseDeclaration());
    }
    return std::move(schema_);
  }

 private:
  /// An integer literal (a RANGE bound).
  Result<int64_t> ExpectInteger(std::string_view what) {
    if (in_.Peek().kind != TokenKind::kNumber ||
        !in_.Peek().value.is_integer()) {
      return in_.Unexpected(what);
    }
    return in_.Advance().value.AsInteger();
  }

  /// name [, name]...
  Result<std::vector<std::string>> ParseNameList(std::string_view what) {
    std::vector<std::string> names;
    do {
      MLDS_ASSIGN_OR_RETURN(std::string name, in_.ExpectName(what));
      names.push_back(std::move(name));
    } while (in_.Consume(","));
    return names;
  }

  /// An optional "( length )" after STRING.
  Status ParseStringLength(int* max_length) {
    if (!in_.Consume("(")) return Status::OK();
    MLDS_ASSIGN_OR_RETURN(*max_length, in_.ExpectCount("string length"));
    return in_.Expect(")");
  }

  Status ParseDeclaration() {
    if (in_.ConsumeKeyword("SCHEMA")) {
      MLDS_ASSIGN_OR_RETURN(std::string name, in_.ExpectName("schema name"));
      schema_.set_name(name);
      return in_.Expect(";");
    }
    if (in_.ConsumeKeyword("TYPE")) return ParseType();
    if (in_.ConsumeKeyword("UNIQUE")) return ParseUnique();
    if (in_.ConsumeKeyword("OVERLAP")) return ParseOverlap();
    return in_.Unexpected("TYPE, UNIQUE, OVERLAP, or SCHEMA");
  }

  Status ParseType() {
    MLDS_ASSIGN_OR_RETURN(std::string name, in_.ExpectName("type name"));
    MLDS_RETURN_IF_ERROR(in_.ExpectKeyword("IS"));
    if (in_.ConsumeKeyword("ENTITY")) {
      EntityType entity;
      entity.name = std::move(name);
      MLDS_RETURN_IF_ERROR(ParseFunctionList(&entity.functions));
      MLDS_RETURN_IF_ERROR(in_.ExpectKeyword("END"));
      if (!in_.ConsumeKeyword("ENTITY") && !in_.ConsumeKeyword("SUBTYPE")) {
        return in_.Unexpected("ENTITY after END");
      }
      MLDS_RETURN_IF_ERROR(in_.Expect(";"));
      return schema_.AddEntity(std::move(entity));
    }
    if (in_.ConsumeKeyword("SUBTYPE")) {
      MLDS_RETURN_IF_ERROR(in_.ExpectKeyword("OF"));
      Subtype sub;
      sub.name = std::move(name);
      MLDS_ASSIGN_OR_RETURN(sub.supertypes, ParseNameList("supertype name"));
      MLDS_RETURN_IF_ERROR(ParseFunctionList(&sub.functions));
      MLDS_RETURN_IF_ERROR(in_.ExpectKeyword("END"));
      if (!in_.ConsumeKeyword("SUBTYPE") && !in_.ConsumeKeyword("ENTITY")) {
        return in_.Unexpected("SUBTYPE after END");
      }
      MLDS_RETURN_IF_ERROR(in_.Expect(";"));
      return schema_.AddSubtype(std::move(sub));
    }
    return ParseNonEntity(std::move(name));
  }

  Status ParseNonEntity(std::string name) {
    NonEntityType t;
    t.name = std::move(name);
    if (in_.ConsumeKeyword("CONSTANT")) {
      if (in_.Peek().kind != TokenKind::kNumber ||
          !in_.Peek().value.is_numeric()) {
        return in_.Unexpected("numeric literal after CONSTANT");
      }
      t.is_constant = true;
      t.constant_value = in_.Advance().value.AsFloat();
      t.kind = ScalarKind::kFloat;
    } else if (in_.ConsumeKeyword("INTEGER")) {
      t.kind = ScalarKind::kInteger;
      if (in_.ConsumeKeyword("RANGE")) {
        MLDS_ASSIGN_OR_RETURN(t.range_min, ExpectInteger("range lower bound"));
        MLDS_RETURN_IF_ERROR(in_.Expect(".."));
        MLDS_ASSIGN_OR_RETURN(t.range_max, ExpectInteger("range upper bound"));
        t.has_range = true;
        if (t.range_min > t.range_max) {
          return Status::ParseError("empty RANGE in type '" + t.name + "'");
        }
      }
    } else if (in_.ConsumeKeyword("FLOAT")) {
      t.kind = ScalarKind::kFloat;
    } else if (in_.ConsumeKeyword("BOOLEAN")) {
      t.kind = ScalarKind::kBoolean;
      t.values = {"true", "false"};
    } else if (in_.ConsumeKeyword("STRING")) {
      t.kind = ScalarKind::kString;
      MLDS_RETURN_IF_ERROR(ParseStringLength(&t.max_length));
    } else if (in_.Consume("(")) {
      t.kind = ScalarKind::kEnumeration;
      MLDS_ASSIGN_OR_RETURN(t.values, ParseNameList("enumeration literal"));
      for (const std::string& value : t.values) {
        t.max_length = std::max(t.max_length, static_cast<int>(value.size()));
      }
      MLDS_RETURN_IF_ERROR(in_.Expect(")"));
    } else {
      return Status::ParseError("unknown non-entity type form for '" +
                                t.name + "'");
    }
    MLDS_RETURN_IF_ERROR(in_.Expect(";"));
    return schema_.AddNonEntity(std::move(t));
  }

  Status ParseFunctionList(std::vector<Function>* functions) {
    while (!in_.PeekKeyword("END")) {
      if (in_.AtEnd()) return Status::ParseError("unterminated entity body");
      Function fn;
      MLDS_ASSIGN_OR_RETURN(fn.name, in_.ExpectName("function name"));
      MLDS_RETURN_IF_ERROR(in_.Expect(":"));
      MLDS_RETURN_IF_ERROR(ParseFunctionType(&fn));
      MLDS_RETURN_IF_ERROR(in_.Expect(";"));
      for (const auto& existing : *functions) {
        if (existing.name == fn.name) {
          return Status::ParseError("duplicate function '" + fn.name + "'");
        }
      }
      functions->push_back(std::move(fn));
    }
    return Status::OK();
  }

  Status ParseFunctionType(Function* fn) {
    if (in_.ConsumeKeyword("SET")) {
      MLDS_RETURN_IF_ERROR(in_.ExpectKeyword("OF"));
      fn->set_valued = true;
    }
    if (in_.ConsumeKeyword("INTEGER")) {
      fn->result = FunctionResult::kInteger;
      return Status::OK();
    }
    if (in_.ConsumeKeyword("FLOAT")) {
      fn->result = FunctionResult::kFloat;
      return Status::OK();
    }
    if (in_.ConsumeKeyword("BOOLEAN")) {
      fn->result = FunctionResult::kBoolean;
      return Status::OK();
    }
    if (in_.ConsumeKeyword("STRING")) {
      fn->result = FunctionResult::kString;
      return ParseStringLength(&fn->max_length);
    }
    MLDS_ASSIGN_OR_RETURN(fn->target, in_.ExpectName("function type"));
    // Resolution between entity and non-entity targets is finalized after
    // the full schema is read; mark as entity when already known, else
    // leave as non-entity and let Classify() resolve by lookup.
    fn->result = FunctionResult::kNonEntity;
    return Status::OK();
  }

  Status ParseUnique() {
    UniquenessConstraint uc;
    MLDS_ASSIGN_OR_RETURN(uc.functions, ParseNameList("function name"));
    MLDS_RETURN_IF_ERROR(in_.ExpectKeyword("WITHIN"));
    MLDS_ASSIGN_OR_RETURN(uc.within, in_.ExpectName("type name"));
    MLDS_RETURN_IF_ERROR(in_.Expect(";"));
    return schema_.AddUniqueness(std::move(uc));
  }

  Status ParseOverlap() {
    OverlapConstraint oc;
    MLDS_ASSIGN_OR_RETURN(oc.left, ParseNameList("subtype name"));
    MLDS_RETURN_IF_ERROR(in_.ExpectKeyword("WITH"));
    MLDS_ASSIGN_OR_RETURN(oc.right, ParseNameList("subtype name"));
    MLDS_RETURN_IF_ERROR(in_.Expect(";"));
    return schema_.AddOverlap(std::move(oc));
  }

  TokenCursor in_;
  FunctionalSchema schema_;
};

/// Resolves named function targets to entity vs non-entity results, and
/// folds uniqueness constraints into fn_unique flags. Runs after parsing
/// so forward references work.
Status ResolveSchema(FunctionalSchema* schema) {
  auto resolve_functions = [&](std::vector<Function>* functions) {
    for (auto& fn : *functions) {
      if (fn.result == FunctionResult::kNonEntity &&
          schema->IsEntityOrSubtype(fn.target)) {
        fn.result = FunctionResult::kEntity;
      }
    }
  };
  // Work on mutable copies through const accessors is not possible, so
  // rebuild in place via the schema's own storage. FunctionalSchema does
  // not expose mutable iteration; do it by reconstructing.
  FunctionalSchema resolved(schema->name());
  for (const auto& t : schema->nonentities()) {
    MLDS_RETURN_IF_ERROR(resolved.AddNonEntity(t));
  }
  for (auto entity : schema->entities()) {
    resolve_functions(&entity.functions);
    MLDS_RETURN_IF_ERROR(resolved.AddEntity(std::move(entity)));
  }
  for (auto sub : schema->subtypes()) {
    resolve_functions(&sub.functions);
    MLDS_RETURN_IF_ERROR(resolved.AddSubtype(std::move(sub)));
  }
  for (const auto& oc : schema->overlaps()) {
    MLDS_RETURN_IF_ERROR(resolved.AddOverlap(oc));
  }
  for (const auto& uc : schema->uniqueness()) {
    MLDS_RETURN_IF_ERROR(resolved.AddUniqueness(uc));
  }
  *schema = std::move(resolved);
  return Status::OK();
}

/// Marks fn_unique on every function named by a uniqueness constraint.
Status ApplyUniqueness(FunctionalSchema* schema) {
  FunctionalSchema rebuilt(schema->name());
  auto mark = [&](std::vector<Function>* functions,
                  const std::string& type_name) {
    for (auto& fn : *functions) {
      for (const auto& uc : schema->uniqueness()) {
        if (uc.within != type_name) continue;
        for (const auto& fname : uc.functions) {
          if (fname == fn.name) fn.unique = true;
        }
      }
    }
  };
  for (const auto& t : schema->nonentities()) {
    MLDS_RETURN_IF_ERROR(rebuilt.AddNonEntity(t));
  }
  for (auto entity : schema->entities()) {
    mark(&entity.functions, entity.name);
    MLDS_RETURN_IF_ERROR(rebuilt.AddEntity(std::move(entity)));
  }
  for (auto sub : schema->subtypes()) {
    mark(&sub.functions, sub.name);
    MLDS_RETURN_IF_ERROR(rebuilt.AddSubtype(std::move(sub)));
  }
  for (const auto& oc : schema->overlaps()) {
    MLDS_RETURN_IF_ERROR(rebuilt.AddOverlap(oc));
  }
  for (const auto& uc : schema->uniqueness()) {
    MLDS_RETURN_IF_ERROR(rebuilt.AddUniqueness(uc));
  }
  *schema = std::move(rebuilt);
  return Status::OK();
}

}  // namespace

Result<FunctionalSchema> ParseFunctionalSchema(std::string_view ddl) {
  MLDS_ASSIGN_OR_RETURN(TokenCursor in, TokenCursor::Open(ddl, kDaplexDdl));
  Parser parser(std::move(in));
  MLDS_ASSIGN_OR_RETURN(FunctionalSchema schema, parser.Parse());
  MLDS_RETURN_IF_ERROR(ResolveSchema(&schema));
  MLDS_RETURN_IF_ERROR(ApplyUniqueness(&schema));
  MLDS_RETURN_IF_ERROR(schema.Validate());
  return schema;
}

}  // namespace mlds::daplex
