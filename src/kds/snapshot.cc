#include "kds/snapshot.h"

#include <algorithm>
#include <charconv>
#include <string>
#include <vector>

#include "abdl/parser.h"
#include "common/strings.h"
#include "kds/wal.h"

namespace mlds::kds {

namespace {

constexpr char kHeader[] = "MLDS-SNAPSHOT 1";

}  // namespace

std::optional<abdm::ValueKind> AttributeKind(
    const abdm::FileDescriptor* descriptor, std::string_view attr) {
  const abdm::AttributeDescriptor* found =
      descriptor == nullptr ? nullptr : descriptor->FindAttribute(attr);
  if (found == nullptr) return std::nullopt;
  return found->kind;
}

Status SaveSnapshot(const Engine& engine, std::ostream& out) {
  out << kHeader << "\n";
  for (const auto& name : engine.FileNames()) {
    const abdm::FileDescriptor* desc = engine.FindDescriptor(name);
    out << "FILE " << name << "\n";
    for (const auto& attr : desc->attributes) {
      out << "ATTR " << attr.name << " " << abdm::ValueKindToString(attr.kind)
          << " " << attr.max_length << " " << (attr.directory ? 1 : 0) << " "
          << (attr.indexed ? 1 : 0) << "\n";
    }
    for (const auto& attr : engine.SecondaryIndexes(name)) {
      out << "INDEX " << name << " " << attr << "\n";
    }
  }
  for (const auto& name : engine.FileNames()) {
    Status visit = engine.VisitRecords(name, [&](const abdm::Record& record) {
      out << "INSERT " << record.ToString() << "\n";
    });
    MLDS_RETURN_IF_ERROR(visit);
  }
  if (!out.good()) return Status::Internal("snapshot write failed");
  return Status::OK();
}

Status LoadSnapshot(std::istream& in, Engine* engine) {
  return LoadSnapshotFiltered(in, engine,
                              [](const std::string&) { return true; });
}

Status LoadSnapshotFiltered(
    std::istream& in, Engine* engine,
    const std::function<bool(const std::string&)>& want) {
  std::string line;
  if (!std::getline(in, line) || Trim(line) != kHeader) {
    return Status::ParseError("missing snapshot header '" +
                              std::string(kHeader) + "'");
  }

  // Phase 1 — parse everything before touching the engine. Snapshot
  // inputs are untrusted (truncated files, corrupted bytes), so a
  // malformed line must reject the whole snapshot without leaving the
  // engine partially defined.
  std::vector<abdm::FileDescriptor> files;
  std::vector<std::pair<std::string, std::string>> indexes;
  std::vector<abdl::Request> inserts;
  size_t line_number = 1;
  while (std::getline(in, line)) {
    ++line_number;
    std::string_view text = Trim(line);
    auto parse_error = [&](std::string_view what) {
      return Status::ParseError("snapshot line " + std::to_string(line_number) +
                                ": " + std::string(what));
    };
    if (text.empty()) continue;
    if (text.starts_with("FILE ")) {
      abdm::FileDescriptor descriptor;
      descriptor.name = std::string(Trim(text.substr(5)));
      if (descriptor.name.empty()) return parse_error("FILE without a name");
      files.push_back(std::move(descriptor));
    } else if (text.starts_with("ATTR ")) {
      if (files.empty()) return parse_error("ATTR outside FILE");
      // ATTR <name> <kind> <max_length> <directory> [<indexed>]
      // (snapshots written before secondary indexes carry four fields).
      std::vector<std::string> parts;
      for (std::string_view piece = Trim(text.substr(5)); !piece.empty();) {
        size_t space = piece.find(' ');
        parts.emplace_back(Trim(piece.substr(0, space)));
        if (space == std::string_view::npos) break;
        piece = Trim(piece.substr(space + 1));
      }
      if (parts.size() != 4 && parts.size() != 5) {
        return parse_error("malformed ATTR");
      }
      abdm::AttributeDescriptor attr;
      attr.name = parts[0];
      MLDS_ASSIGN_OR_RETURN(attr.kind, ParseAttributeKind(parts[1]));
      int max_length = 0;
      auto [ptr, ec] = std::from_chars(
          parts[2].data(), parts[2].data() + parts[2].size(), max_length);
      if (ec != std::errc() || ptr != parts[2].data() + parts[2].size() ||
          max_length < 0) {
        return parse_error("malformed ATTR max_length '" + parts[2] + "'");
      }
      attr.max_length = max_length;
      if (parts[3] != "0" && parts[3] != "1") {
        return parse_error("malformed ATTR directory flag '" + parts[3] + "'");
      }
      attr.directory = parts[3] == "1";
      if (parts.size() == 5) {
        if (parts[4] != "0" && parts[4] != "1") {
          return parse_error("malformed ATTR indexed flag '" + parts[4] + "'");
        }
        attr.indexed = parts[4] == "1";
      }
      files.back().attributes.push_back(std::move(attr));
    } else if (text.starts_with("INDEX ")) {
      // INDEX <file> <attr>: a secondary index built on demand after the
      // file was defined.
      std::string_view body = Trim(text.substr(6));
      const size_t space = body.find(' ');
      if (space == std::string_view::npos) {
        return parse_error("malformed INDEX");
      }
      indexes.emplace_back(std::string(Trim(body.substr(0, space))),
                           std::string(Trim(body.substr(space + 1))));
    } else if (text.starts_with("INSERT ")) {
      // The data section follows every FILE definition.
      auto request = abdl::ParseRequest(
          text, [&files](std::string_view file, std::string_view attr) {
            auto it = std::find_if(
                files.begin(), files.end(),
                [&](const abdm::FileDescriptor& f) { return f.name == file; });
            return AttributeKind(it == files.end() ? nullptr : &*it, attr);
          });
      if (!request.ok()) {
        return parse_error("bad INSERT: " + request.status().message());
      }
      // One record per data line, as SaveSnapshot writes them.
      const auto* insert = std::get_if<abdl::InsertRequest>(&*request);
      if (insert == nullptr || insert->records.size() != 1) {
        return parse_error("data section must contain only INSERTs");
      }
      inserts.push_back(std::move(*request));
    } else {
      return parse_error("unrecognized '" + std::string(text) + "'");
    }
  }

  // Cross-checks: every INDEX and INSERT must target a file this
  // snapshot defines, so the apply phase below cannot fail halfway
  // through the data.
  for (const auto& [file, attr] : indexes) {
    const bool known = std::any_of(
        files.begin(), files.end(),
        [&](const abdm::FileDescriptor& f) { return f.name == file; });
    if (!known) {
      return Status::ParseError("snapshot INDEX targets undefined file: " +
                                file);
    }
  }
  for (const auto& request : inserts) {
    const auto& record = std::get<abdl::InsertRequest>(request).records[0];
    abdm::Value file_value = record.GetOrNull(abdm::kFileAttribute);
    const bool known =
        file_value.is_string() &&
        std::any_of(files.begin(), files.end(),
                    [&](const abdm::FileDescriptor& f) {
                      return f.name == file_value.AsString();
                    });
    if (!known) {
      return Status::ParseError("snapshot INSERT targets undefined file: " +
                                record.ToString());
    }
  }

  // Phase 2 — apply (only the wanted files; cross-checks above already
  // ran against the full definition set, so skipping is purely a filter).
  // Any failure (e.g. a file that already exists in the engine) rolls
  // back every file this load defined, so a rejected snapshot never
  // leaves files partially defined.
  std::vector<std::string> defined;
  auto rollback = [&]() {
    for (const std::string& name : defined) (void)engine->RemoveFile(name);
  };
  for (const auto& descriptor : files) {
    if (!want(descriptor.name)) continue;
    Status status = engine->DefineFile(descriptor);
    if (!status.ok()) {
      rollback();
      return status;
    }
    defined.push_back(descriptor.name);
  }
  for (const auto& [file, attr] : indexes) {
    if (!want(file)) continue;
    Status status = engine->CreateIndex(file, attr);
    if (!status.ok()) {
      rollback();
      return status;
    }
  }
  for (const auto& request : inserts) {
    const auto& record = std::get<abdl::InsertRequest>(request).records[0];
    if (!want(record.GetOrNull(abdm::kFileAttribute).AsString())) continue;
    auto response = engine->Execute(request);
    if (!response.ok()) {
      rollback();
      return response.status();
    }
  }
  return Status::OK();
}

}  // namespace mlds::kds
