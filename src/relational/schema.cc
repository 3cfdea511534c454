#include "relational/schema.h"

#include <optional>

#include "abdm/lexer.h"
#include "common/strings.h"

namespace mlds::relational {

std::string_view ColumnTypeToString(ColumnType type) {
  switch (type) {
    case ColumnType::kInteger:
      return "INTEGER";
    case ColumnType::kFloat:
      return "FLOAT";
    case ColumnType::kChar:
      return "CHAR";
  }
  return "?";
}

Status Schema::AddTable(Table table) {
  if (FindTable(table.name) != nullptr) {
    return Status::AlreadyExists("table '" + table.name +
                                 "' already declared");
  }
  tables_.push_back(std::move(table));
  return Status::OK();
}

const Table* Schema::FindTable(std::string_view name) const {
  for (const auto& t : tables_) {
    if (t.name == name) return &t;
  }
  return nullptr;
}

Status Schema::Validate() const {
  for (const auto& table : tables_) {
    if (table.columns.empty()) {
      return Status::InvalidArgument("table '" + table.name +
                                     "' has no columns");
    }
    for (const auto& column : table.columns) {
      if (column.name == "FILE" || column.name == table.name) {
        return Status::InvalidArgument(
            "column '" + column.name + "' of table '" + table.name +
            "' collides with a kernel-reserved keyword name");
      }
    }
    for (const auto& unique : table.unique_columns) {
      if (table.FindColumn(unique) == nullptr) {
        return Status::InvalidArgument("UNIQUE names unknown column '" +
                                       unique + "' in table '" + table.name +
                                       "'");
      }
    }
  }
  return Status::OK();
}

std::string Schema::ToDdl() const {
  std::string out;
  if (!name_.empty()) out += "SCHEMA " + name_ + ";\n\n";
  for (const auto& table : tables_) {
    out += "CREATE TABLE " + table.name + " (\n";
    for (size_t i = 0; i < table.columns.size(); ++i) {
      const Column& c = table.columns[i];
      out += "  " + c.name + " " + std::string(ColumnTypeToString(c.type));
      if (c.type == ColumnType::kChar && c.length > 0) {
        out += "(" + std::to_string(c.length) + ")";
      }
      if (c.not_null) out += " NOT NULL";
      if (i + 1 < table.columns.size() || !table.unique_columns.empty()) {
        out += ",";
      }
      out += "\n";
    }
    if (!table.unique_columns.empty()) {
      out += "  UNIQUE (" + Join(table.unique_columns, ", ") + ")\n";
    }
    out += ");\n\n";
  }
  return out;
}

namespace {

constexpr abdm::Dialect kRelationalDdl{"relational DDL"};

}  // namespace

Result<Schema> ParseRelationalSchema(std::string_view ddl) {
  MLDS_ASSIGN_OR_RETURN(abdm::TokenCursor in,
                        abdm::TokenCursor::Open(ddl, kRelationalDdl));
  Schema schema;
  while (!in.AtEnd()) {
    if (in.ConsumeKeyword("SCHEMA")) {
      MLDS_ASSIGN_OR_RETURN(std::string name, in.ExpectName("schema name"));
      schema.set_name(name);
      MLDS_RETURN_IF_ERROR(in.Expect(";"));
      continue;
    }
    if (!in.ConsumeKeyword("CREATE") || !in.ConsumeKeyword("TABLE")) {
      return in.Unexpected("CREATE TABLE");
    }
    Table table;
    MLDS_ASSIGN_OR_RETURN(table.name, in.ExpectName("table name"));
    MLDS_RETURN_IF_ERROR(in.Expect("("));
    do {
      if (in.ConsumeKeyword("UNIQUE")) {
        MLDS_RETURN_IF_ERROR(in.Expect("(", "after UNIQUE"));
        do {
          MLDS_ASSIGN_OR_RETURN(std::string column,
                                in.ExpectName("column in UNIQUE list"));
          table.unique_columns.push_back(std::move(column));
        } while (in.Consume(","));
        MLDS_RETURN_IF_ERROR(in.Expect(")", "after UNIQUE"));
        continue;
      }
      Column column;
      MLDS_ASSIGN_OR_RETURN(column.name, in.ExpectName("column name"));
      if (in.ConsumeKeyword("INTEGER") || in.ConsumeKeyword("INT")) {
        column.type = ColumnType::kInteger;
      } else if (in.ConsumeKeyword("FLOAT") || in.ConsumeKeyword("REAL")) {
        column.type = ColumnType::kFloat;
      } else if (in.ConsumeKeyword("CHAR") || in.ConsumeKeyword("VARCHAR")) {
        column.type = ColumnType::kChar;
        if (in.Consume("(")) {
          MLDS_ASSIGN_OR_RETURN(column.length, in.ExpectCount("CHAR length"));
          MLDS_RETURN_IF_ERROR(in.Expect(")"));
        }
      } else {
        return in.Unexpected("column type");
      }
      if (in.ConsumeKeyword("NOT")) {
        MLDS_RETURN_IF_ERROR(in.ExpectKeyword("NULL"));
        column.not_null = true;
      }
      if (table.FindColumn(column.name) != nullptr) {
        return Status::ParseError("duplicate column '" + column.name +
                                  "' in table '" + table.name + "'");
      }
      table.columns.push_back(std::move(column));
    } while (in.Consume(","));
    MLDS_RETURN_IF_ERROR(in.Expect(")", "closing table"));
    MLDS_RETURN_IF_ERROR(in.Expect(";"));
    MLDS_RETURN_IF_ERROR(schema.AddTable(std::move(table)));
  }
  MLDS_RETURN_IF_ERROR(schema.Validate());
  return schema;
}

}  // namespace mlds::relational
