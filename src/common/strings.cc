#include "common/strings.h"

#include <cctype>

namespace mlds {

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::string ToUpper(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return out;
}

std::string_view Trim(std::string_view s) {
  size_t begin = 0;
  size_t end = s.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(s[begin]))) ++begin;
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) --end;
  return s.substr(begin, end - begin);
}

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(Trim(s.substr(start)));
      break;
    }
    out.emplace_back(Trim(s.substr(start, pos - start)));
    start = pos + 1;
  }
  return out;
}

std::vector<std::string_view> ProgramStatements(std::string_view text) {
  std::vector<std::string_view> out;
  size_t start = 0;
  while (start <= text.size()) {
    size_t end = text.find_first_of(";\n", start);
    if (end == std::string_view::npos) end = text.size();
    std::string_view line = Trim(text.substr(start, end - start));
    if (!line.empty() && !line.starts_with("--")) out.push_back(line);
    start = end + 1;
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

bool StartsWithIgnoreCase(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() &&
         EqualsIgnoreCase(s.substr(0, prefix.size()), prefix);
}

}  // namespace mlds
