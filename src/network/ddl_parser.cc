#include "network/ddl_parser.h"

#include <optional>
#include <string>
#include <vector>

#include "abdm/lexer.h"
#include "common/strings.h"

namespace mlds::network {

namespace {

constexpr abdm::Dialect kNetworkDdl{"network DDL"};

/// One ';'-terminated DDL statement's tokens.
struct Statement {
  std::vector<abdm::Token> tokens;

  bool KeywordAt(size_t i, std::string_view word) const {
    return i < tokens.size() && tokens[i].kind == abdm::TokenKind::kWord &&
           EqualsIgnoreCase(tokens[i].text, word);
  }
  /// The name at `i`: a word, where every DDL name must be.
  Result<std::string> NameAt(size_t i) const {
    if (tokens[i].kind != abdm::TokenKind::kWord) {
      return Status::ParseError("expected a name, got " +
                                tokens[i].Describe());
    }
    return std::string(tokens[i].text);
  }
  std::string Text() const {
    std::string out;
    for (const abdm::Token& t : tokens) {
      if (!out.empty()) out.push_back(' ');
      out.append(t.text);
    }
    return out;
  }
};

/// Splits the DDL's token stream into its ';'-terminated statements,
/// whose clauses the builder then matches by position.
Result<std::vector<Statement>> SplitStatements(std::string_view ddl) {
  MLDS_ASSIGN_OR_RETURN(abdm::TokenCursor in,
                        abdm::TokenCursor::Open(ddl, kNetworkDdl));
  std::vector<Statement> statements;
  Statement current;
  while (!in.AtEnd()) {
    if (!in.Consume(";")) {
      current.tokens.push_back(in.Advance());
    } else if (!current.tokens.empty()) {
      statements.push_back(std::move(current));
      current = Statement{};
    }
  }
  if (!current.tokens.empty()) {
    return Status::ParseError("unterminated DDL statement (missing ';'): '" +
                              current.Text() + "'");
  }
  return statements;
}

class SchemaBuilder {
 public:
  Result<Schema> Build(const std::vector<Statement>& statements) {
    for (const auto& stmt : statements) {
      MLDS_RETURN_IF_ERROR(Dispatch(stmt));
    }
    MLDS_RETURN_IF_ERROR(FlushRecord());
    MLDS_RETURN_IF_ERROR(FlushSet());
    MLDS_RETURN_IF_ERROR(schema_.Validate());
    return std::move(schema_);
  }

 private:
  Status Dispatch(const Statement& s) {
    if (s.KeywordAt(0, "SCHEMA") && s.KeywordAt(1, "NAME") &&
        s.KeywordAt(2, "IS")) {
      if (s.tokens.size() != 4) {
        return Status::ParseError("SCHEMA NAME IS expects one name");
      }
      MLDS_ASSIGN_OR_RETURN(std::string name, s.NameAt(3));
      schema_.set_name(name);
      return Status::OK();
    }
    if (s.KeywordAt(0, "RECORD") && s.KeywordAt(1, "NAME") &&
        s.KeywordAt(2, "IS")) {
      MLDS_RETURN_IF_ERROR(FlushRecord());
      MLDS_RETURN_IF_ERROR(FlushSet());
      if (s.tokens.size() != 4) {
        return Status::ParseError("RECORD NAME IS expects one name");
      }
      MLDS_ASSIGN_OR_RETURN(std::string name, s.NameAt(3));
      record_.emplace();
      record_->name = std::move(name);
      return Status::OK();
    }
    if (s.KeywordAt(0, "ITEM")) return ParseItem(s);
    if (s.KeywordAt(0, "DUPLICATES")) return ParseDuplicates(s);
    if (s.KeywordAt(0, "SET") && s.KeywordAt(1, "NAME") &&
        s.KeywordAt(2, "IS")) {
      MLDS_RETURN_IF_ERROR(FlushRecord());
      MLDS_RETURN_IF_ERROR(FlushSet());
      if (s.tokens.size() != 4) {
        return Status::ParseError("SET NAME IS expects one name");
      }
      MLDS_ASSIGN_OR_RETURN(std::string name, s.NameAt(3));
      set_.emplace();
      set_->name = std::move(name);
      return Status::OK();
    }
    if (s.KeywordAt(0, "OWNER") && s.KeywordAt(1, "IS")) {
      if (!set_.has_value()) {
        return Status::ParseError("OWNER IS outside a SET declaration");
      }
      if (s.tokens.size() != 3) {
        return Status::ParseError("OWNER IS expects one name");
      }
      MLDS_ASSIGN_OR_RETURN(set_->owner, s.NameAt(2));
      if (EqualsIgnoreCase(set_->owner, kSystemOwner)) {
        set_->owner = std::string(kSystemOwner);
      }
      return Status::OK();
    }
    if (s.KeywordAt(0, "MEMBER") && s.KeywordAt(1, "IS")) {
      if (!set_.has_value()) {
        return Status::ParseError("MEMBER IS outside a SET declaration");
      }
      if (s.tokens.size() != 3) {
        return Status::ParseError("MEMBER IS expects one name");
      }
      MLDS_ASSIGN_OR_RETURN(std::string member, s.NameAt(2));
      set_->members.push_back(std::move(member));
      return Status::OK();
    }
    if (s.KeywordAt(0, "INSERTION") && s.KeywordAt(1, "IS")) {
      if (!set_.has_value()) {
        return Status::ParseError("INSERTION IS outside a SET declaration");
      }
      if (s.KeywordAt(2, "AUTOMATIC")) {
        set_->insertion = InsertionMode::kAutomatic;
      } else if (s.KeywordAt(2, "MANUAL")) {
        set_->insertion = InsertionMode::kManual;
      } else {
        return Status::ParseError("INSERTION IS expects AUTOMATIC or MANUAL");
      }
      return Status::OK();
    }
    if (s.KeywordAt(0, "RETENTION") && s.KeywordAt(1, "IS")) {
      if (!set_.has_value()) {
        return Status::ParseError("RETENTION IS outside a SET declaration");
      }
      if (s.KeywordAt(2, "FIXED")) {
        set_->retention = RetentionMode::kFixed;
      } else if (s.KeywordAt(2, "MANDATORY")) {
        set_->retention = RetentionMode::kMandatory;
      } else if (s.KeywordAt(2, "OPTIONAL")) {
        set_->retention = RetentionMode::kOptional;
      } else {
        return Status::ParseError(
            "RETENTION IS expects FIXED, MANDATORY, or OPTIONAL");
      }
      return Status::OK();
    }
    if (s.KeywordAt(0, "SET") && s.KeywordAt(1, "SELECTION") &&
        s.KeywordAt(2, "IS")) {
      return ParseSelection(s);
    }
    if (s.KeywordAt(0, "ORDER") && s.KeywordAt(1, "IS")) {
      if (!set_.has_value()) {
        return Status::ParseError("ORDER IS outside a SET declaration");
      }
      // ORDER IS SORTED BY <item>
      if (s.KeywordAt(2, "SORTED") && s.KeywordAt(3, "BY") &&
          s.tokens.size() == 5) {
        set_->order = OrderMode::kSortedBy;
        MLDS_ASSIGN_OR_RETURN(set_->order_item, s.NameAt(4));
        return Status::OK();
      }
      return Status::ParseError("malformed ORDER clause (expected ORDER IS "
                                "SORTED BY <item>)");
    }
    return Status::ParseError("unrecognized DDL statement: '" +
                              s.Text() + "'");
  }

  Status ParseItem(const Statement& s) {
    if (!record_.has_value()) {
      return Status::ParseError("ITEM outside a RECORD declaration");
    }
    // ITEM <name> TYPE IS <type> [len [dec]]
    if (s.tokens.size() < 5 || !s.KeywordAt(2, "TYPE") || !s.KeywordAt(3, "IS")) {
      return Status::ParseError("malformed ITEM clause: '" +
                                s.Text() + "'");
    }
    Attribute attr;
    MLDS_ASSIGN_OR_RETURN(attr.name, s.NameAt(1));
    if (s.KeywordAt(4, "INTEGER")) {
      attr.type = AttrType::kInteger;
    } else if (s.KeywordAt(4, "FLOAT")) {
      attr.type = AttrType::kFloat;
    } else if (s.KeywordAt(4, "CHARACTER") || s.KeywordAt(4, "STRING")) {
      attr.type = AttrType::kString;
    } else {
      return Status::ParseError("unknown item type " +
                                s.tokens[4].Describe());
    }
    if (s.tokens.size() >= 6) {
      MLDS_ASSIGN_OR_RETURN(attr.length,
                            abdm::CountOf(s.tokens[5], "item length"));
    }
    if (s.tokens.size() >= 7) {
      MLDS_ASSIGN_OR_RETURN(attr.decimal,
                            abdm::CountOf(s.tokens[6], "item decimals"));
    }
    if (record_->FindAttribute(attr.name) != nullptr) {
      return Status::ParseError("duplicate item '" + attr.name +
                                "' in record '" + record_->name + "'");
    }
    record_->attributes.push_back(std::move(attr));
    return Status::OK();
  }

  Status ParseDuplicates(const Statement& s) {
    // DUPLICATES ARE NOT ALLOWED FOR a [, b]...
    if (!record_.has_value()) {
      return Status::ParseError("DUPLICATES clause outside a RECORD");
    }
    size_t i = 1;
    if (s.KeywordAt(i, "ARE")) ++i;
    if (!s.KeywordAt(i, "NOT") || !s.KeywordAt(i + 1, "ALLOWED") ||
        !s.KeywordAt(i + 2, "FOR")) {
      return Status::ParseError("malformed DUPLICATES clause");
    }
    i += 3;
    bool any = false;
    for (; i < s.tokens.size(); ++i) {
      if (s.tokens[i].Is(",")) continue;
      Attribute* attr = record_->FindAttribute(std::string(s.tokens[i].text));
      if (attr == nullptr) {
        return Status::ParseError("DUPLICATES clause names unknown item " +
                                  s.tokens[i].Describe());
      }
      attr->duplicates_allowed = false;
      any = true;
    }
    if (!any) {
      return Status::ParseError("DUPLICATES clause names no items");
    }
    return Status::OK();
  }

  Status ParseSelection(const Statement& s) {
    if (!set_.has_value()) {
      return Status::ParseError("SET SELECTION outside a SET declaration");
    }
    // SET SELECTION IS BY APPLICATION
    // SET SELECTION IS BY VALUE OF item IN record
    // SET SELECTION IS BY STRUCTURAL item IN record1 = record2
    // SET SELECTION IS NOT SPECIFIED
    if (s.KeywordAt(3, "NOT") && s.KeywordAt(4, "SPECIFIED")) {
      set_->selection.mode = SelectionMode::kNotSpecified;
      return Status::OK();
    }
    if (!s.KeywordAt(3, "BY")) {
      return Status::ParseError("malformed SET SELECTION clause");
    }
    if (s.KeywordAt(4, "APPLICATION")) {
      set_->selection.mode = SelectionMode::kApplication;
      return Status::OK();
    }
    if (s.KeywordAt(4, "VALUE")) {
      // ... OF item IN record
      if (!s.KeywordAt(5, "OF") || s.tokens.size() < 9 || !s.KeywordAt(7, "IN")) {
        return Status::ParseError("malformed SET SELECTION BY VALUE clause");
      }
      set_->selection.mode = SelectionMode::kValue;
      MLDS_ASSIGN_OR_RETURN(set_->selection.item_name, s.NameAt(6));
      MLDS_ASSIGN_OR_RETURN(set_->selection.record1_name, s.NameAt(8));
      return Status::OK();
    }
    if (s.KeywordAt(4, "STRUCTURAL")) {
      // ... item IN record1 = record2
      if (s.tokens.size() < 10 || !s.KeywordAt(6, "IN") ||
          !s.tokens[8].Is("=")) {
        return Status::ParseError(
            "malformed SET SELECTION BY STRUCTURAL clause");
      }
      set_->selection.mode = SelectionMode::kStructural;
      MLDS_ASSIGN_OR_RETURN(set_->selection.item_name, s.NameAt(5));
      MLDS_ASSIGN_OR_RETURN(set_->selection.record1_name, s.NameAt(7));
      MLDS_ASSIGN_OR_RETURN(set_->selection.record2_name, s.NameAt(9));
      return Status::OK();
    }
    return Status::ParseError("unknown SET SELECTION mode");
  }

  Status FlushRecord() {
    if (!record_.has_value()) return Status::OK();
    Status status = schema_.AddRecord(std::move(*record_));
    record_.reset();
    return status;
  }

  Status FlushSet() {
    if (!set_.has_value()) return Status::OK();
    if (set_->owner.empty()) {
      return Status::ParseError("set '" + set_->name + "' missing OWNER");
    }
    if (set_->members.empty()) {
      return Status::ParseError("set '" + set_->name + "' missing MEMBER");
    }
    Status status = schema_.AddSet(std::move(*set_));
    set_.reset();
    return status;
  }

  Schema schema_;
  std::optional<RecordType> record_;
  std::optional<SetType> set_;
};

}  // namespace

Result<Schema> ParseSchema(std::string_view ddl) {
  MLDS_ASSIGN_OR_RETURN(std::vector<Statement> statements,
                        SplitStatements(ddl));
  SchemaBuilder builder;
  return builder.Build(statements);
}

}  // namespace mlds::network
