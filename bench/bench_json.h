#ifndef MLDS_BENCH_BENCH_JSON_H_
#define MLDS_BENCH_BENCH_JSON_H_

// Shared emitter for the BENCH_*.json reports the bench binaries write.
// Each report is one top-level object of scalar fields plus one or more
// named arrays of row objects; fields and arrays render in insertion
// order so reports diff stably run to run.

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mlds::bench {

/// An ordered JSON object: field values are rendered at Set time.
class JsonObject {
 public:
  JsonObject& Set(std::string_view key, std::string_view value) {
    std::string rendered = "\"";
    for (char c : value) {
      if (c == '"' || c == '\\') rendered.push_back('\\');
      rendered.push_back(c);
    }
    rendered.push_back('"');
    fields_.emplace_back(std::string(key), std::move(rendered));
    return *this;
  }
  JsonObject& Set(std::string_view key, const char* value) {
    return Set(key, std::string_view(value));
  }
  JsonObject& Set(std::string_view key, bool value) {
    fields_.emplace_back(std::string(key), value ? "true" : "false");
    return *this;
  }
  JsonObject& Set(std::string_view key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.4f", value);
    fields_.emplace_back(std::string(key), buf);
    return *this;
  }
  JsonObject& Set(std::string_view key, int64_t value) {
    fields_.emplace_back(std::string(key), std::to_string(value));
    return *this;
  }
  JsonObject& Set(std::string_view key, uint64_t value) {
    fields_.emplace_back(std::string(key), std::to_string(value));
    return *this;
  }
  JsonObject& Set(std::string_view key, int value) {
    return Set(key, static_cast<int64_t>(value));
  }

  /// Renders "key": value lines at `indent` spaces, one field per line.
  std::string Render(int indent) const {
    const std::string pad(indent, ' ');
    std::string out;
    for (size_t i = 0; i < fields_.size(); ++i) {
      out += pad + "\"" + fields_[i].first + "\": " + fields_[i].second;
      if (i + 1 < fields_.size()) out += ",";
      out += "\n";
    }
    return out;
  }

  bool empty() const { return fields_.empty(); }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// One BENCH_*.json report: top-level fields, then named arrays of row
/// objects (rendered inline, one row per line).
class BenchReport {
 public:
  explicit BenchReport(std::string_view benchmark_name) {
    root_.Set("benchmark", benchmark_name);
  }

  JsonObject& root() { return root_; }

  /// Appends a row to the named array; arrays render in first-use order
  /// after the top-level fields.
  JsonObject& AddRow(std::string_view array_name) {
    for (auto& [name, rows] : arrays_) {
      if (name == array_name) {
        rows.emplace_back();
        return rows.back();
      }
    }
    arrays_.emplace_back(std::string(array_name), std::vector<JsonObject>{});
    arrays_.back().second.emplace_back();
    return arrays_.back().second.back();
  }

  /// Writes the report; returns false (with a note on stderr) on failure.
  bool Write(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return false;
    }
    std::string body = "{\n" + root_.Render(2);
    for (size_t a = 0; a < arrays_.size(); ++a) {
      // Rewrite the previous line ending to carry a comma.
      body.insert(body.size() - 1, ",");
      const auto& [name, rows] = arrays_[a];
      body += "  \"" + name + "\": [\n";
      for (size_t i = 0; i < rows.size(); ++i) {
        std::string row = rows[i].Render(0);
        // Inline the row: one "{...}" per line.
        for (char& c : row) {
          if (c == '\n') c = ' ';
        }
        if (!row.empty()) row.pop_back();
        body += "    {" + row + "}";
        if (i + 1 < rows.size()) body += ",";
        body += "\n";
      }
      body += "  ]\n";
    }
    body += "}\n";
    std::fputs(body.c_str(), out);
    std::fclose(out);
    return true;
  }

 private:
  JsonObject root_;
  std::vector<std::pair<std::string, std::vector<JsonObject>>> arrays_;
};

}  // namespace mlds::bench

#endif  // MLDS_BENCH_BENCH_JSON_H_
