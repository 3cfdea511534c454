#include "hierarchical/schema.h"

#include <set>

#include "abdm/lexer.h"

namespace mlds::hierarchical {

std::string_view FieldTypeToString(FieldType type) {
  switch (type) {
    case FieldType::kInteger:
      return "INTEGER";
    case FieldType::kFloat:
      return "FLOAT";
    case FieldType::kChar:
      return "CHAR";
  }
  return "?";
}

Status Schema::AddSegment(Segment segment) {
  if (FindSegment(segment.name) != nullptr) {
    return Status::AlreadyExists("segment '" + segment.name +
                                 "' already declared");
  }
  segments_.push_back(std::move(segment));
  return Status::OK();
}

const Segment* Schema::FindSegment(std::string_view name) const {
  for (const auto& s : segments_) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::vector<const Segment*> Schema::ChildrenOf(std::string_view segment) const {
  std::vector<const Segment*> out;
  for (const auto& s : segments_) {
    if (s.parent == segment) out.push_back(&s);
  }
  return out;
}

std::vector<const Segment*> Schema::AncestorsOf(
    std::string_view segment) const {
  std::vector<const Segment*> out;
  const Segment* current = FindSegment(segment);
  while (current != nullptr && !current->is_root()) {
    current = FindSegment(current->parent);
    if (current != nullptr) out.push_back(current);
  }
  return out;
}

Status Schema::Validate() const {
  for (const auto& segment : segments_) {
    if (!segment.is_root() && FindSegment(segment.parent) == nullptr) {
      return Status::InvalidArgument("segment '" + segment.name +
                                     "' names unknown parent '" +
                                     segment.parent + "'");
    }
    for (const auto& field : segment.fields) {
      if (field.name == "FILE" || field.name == segment.name ||
          field.name == segment.parent) {
        return Status::InvalidArgument(
            "field '" + field.name + "' of segment '" + segment.name +
            "' collides with a kernel-reserved keyword name");
      }
    }
    // Cycle check: walking to the root must terminate.
    std::set<std::string> seen = {segment.name};
    const Segment* current = &segment;
    while (!current->is_root()) {
      if (!seen.insert(current->parent).second) {
        return Status::InvalidArgument("segment hierarchy cycle through '" +
                                       current->parent + "'");
      }
      current = FindSegment(current->parent);
      if (current == nullptr) break;
    }
  }
  return Status::OK();
}

std::string Schema::ToDdl() const {
  std::string out;
  if (!name_.empty()) out += "SCHEMA " + name_ + ";\n\n";
  for (const auto& segment : segments_) {
    out += "SEGMENT " + segment.name;
    if (!segment.is_root()) out += " PARENT " + segment.parent;
    out += ";\n";
    for (const auto& field : segment.fields) {
      out += "  FIELD " + field.name + " " +
             std::string(FieldTypeToString(field.type));
      if (field.type == FieldType::kChar && field.length > 0) {
        out += "(" + std::to_string(field.length) + ")";
      }
      out += ";\n";
    }
    out += "\n";
  }
  return out;
}

namespace {

constexpr abdm::Dialect kHierarchicalDdl{"hierarchical DDL"};

}  // namespace

Result<Schema> ParseHierarchicalSchema(std::string_view ddl) {
  MLDS_ASSIGN_OR_RETURN(abdm::TokenCursor in,
                        abdm::TokenCursor::Open(ddl, kHierarchicalDdl));
  Schema schema;
  Segment current;
  bool have_segment = false;
  auto flush = [&]() -> Status {
    if (!have_segment) return Status::OK();
    Status added = schema.AddSegment(std::move(current));
    current = Segment{};
    have_segment = false;
    return added;
  };

  while (!in.AtEnd()) {
    if (in.ConsumeKeyword("SCHEMA")) {
      MLDS_ASSIGN_OR_RETURN(std::string name, in.ExpectName("schema name"));
      schema.set_name(name);
    } else if (in.ConsumeKeyword("SEGMENT")) {
      MLDS_RETURN_IF_ERROR(flush());
      MLDS_ASSIGN_OR_RETURN(current.name, in.ExpectName("segment name"));
      if (in.ConsumeKeyword("PARENT")) {
        MLDS_ASSIGN_OR_RETURN(current.parent,
                              in.ExpectName("parent segment name"));
      }
      have_segment = true;
    } else if (in.ConsumeKeyword("FIELD")) {
      if (!have_segment) {
        return Status::ParseError("FIELD outside a SEGMENT");
      }
      Field field;
      MLDS_ASSIGN_OR_RETURN(field.name, in.ExpectName("field name"));
      if (in.ConsumeKeyword("INTEGER") || in.ConsumeKeyword("INT")) {
        field.type = FieldType::kInteger;
      } else if (in.ConsumeKeyword("FLOAT") || in.ConsumeKeyword("REAL")) {
        field.type = FieldType::kFloat;
      } else if (in.ConsumeKeyword("CHAR")) {
        field.type = FieldType::kChar;
        if (in.Consume("(")) {
          MLDS_ASSIGN_OR_RETURN(field.length, in.ExpectCount("CHAR length"));
          MLDS_RETURN_IF_ERROR(in.Expect(")"));
        }
      } else {
        return in.Unexpected("field type");
      }
      if (current.FindField(field.name) != nullptr) {
        return Status::ParseError("duplicate field '" + field.name + "'");
      }
      current.fields.push_back(std::move(field));
    } else {
      return in.Unexpected("SCHEMA, SEGMENT, or FIELD");
    }
    MLDS_RETURN_IF_ERROR(in.Expect(";"));
  }
  MLDS_RETURN_IF_ERROR(flush());
  MLDS_RETURN_IF_ERROR(schema.Validate());
  return schema;
}

}  // namespace mlds::hierarchical
