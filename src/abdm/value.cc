#include "abdm/value.h"

#include <cctype>
#include <charconv>
#include <cmath>

#include "common/strings.h"

namespace mlds::abdm {

std::string_view ValueKindToString(ValueKind kind) {
  switch (kind) {
    case ValueKind::kNull:
      return "null";
    case ValueKind::kInteger:
      return "integer";
    case ValueKind::kFloat:
      return "float";
    case ValueKind::kString:
      return "string";
  }
  return "unknown";
}

Value Value::Parse(std::string_view text) {
  std::string_view s = Trim(text);
  if (s.empty()) return Value::String("");
  if (s.size() >= 2 && (s.front() == '\'' || s.front() == '"') &&
      s.back() == s.front()) {
    // Collapse doubled quotes of the delimiter kind: the inverse of
    // ToString's escaping, so quoted text round-trips.
    const char quote = s.front();
    std::string_view body = s.substr(1, s.size() - 2);
    std::string text;
    text.reserve(body.size());
    for (size_t i = 0; i < body.size(); ++i) {
      text.push_back(body[i]);
      if (body[i] == quote && i + 1 < body.size() && body[i + 1] == quote) {
        ++i;
      }
    }
    return Value::String(std::move(text));
  }
  if (EqualsIgnoreCase(s, "NULL")) return Value::Null();

  // Try integer.
  {
    int64_t v = 0;
    auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
    if (ec == std::errc() && ptr == s.data() + s.size()) {
      return Value::Integer(v);
    }
  }
  // Try float.
  {
    double v = 0.0;
    auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
    if (ec == std::errc() && ptr == s.data() + s.size()) {
      return Value::Float(v);
    }
  }
  return Value::String(std::string(s));
}

namespace {

int Sign(bool less, bool greater) { return less ? -1 : (greater ? 1 : 0); }

/// NaN sorts after every other number and equals itself, so the order
/// stays a strict weak ordering.
int CompareFloats(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) {
    return int(std::isnan(a)) - int(std::isnan(b));
  }
  return Sign(a < b, a > b);
}

/// Exact: an integer beyond 2^53 differs from the nearest double.
int CompareIntegerFloat(int64_t i, double d) {
  constexpr double kTwo63 = 9223372036854775808.0;
  if (std::isnan(d) || d >= kTwo63) return -1;
  if (d < -kTwo63) return 1;
  // d is in [-2^63, 2^63): its integral part fits, and d minus that part
  // is exact.
  const int64_t whole = static_cast<int64_t>(d);
  if (i != whole) return Sign(i < whole, i > whole);
  const double fraction = d - static_cast<double>(whole);
  return Sign(fraction > 0, fraction < 0);
}

}  // namespace

int Value::CompareMixed(const Value& other) const {
  const size_t a = rep_.index();
  const size_t b = other.rep_.index();
  if (a == 0 || b == 0) return int(a != 0) - int(b != 0);
  // Mixed string/numeric: numeric sorts first.
  if (a == 3 || b == 3) return a == 3 ? 1 : -1;
  if (a == 2 && b == 2) {
    return CompareFloats(std::get<2>(rep_), std::get<2>(other.rep_));
  }
  return a == 1
             ? CompareIntegerFloat(std::get<1>(rep_), std::get<2>(other.rep_))
             : -CompareIntegerFloat(std::get<1>(other.rep_), std::get<2>(rep_));
}

std::string Value::ToString() const {
  std::string out;
  AppendTo(out);
  return out;
}

void Value::AppendTo(std::string& out) const {
  switch (kind()) {
    case ValueKind::kNull:
      out += "NULL";
      return;
    case ValueKind::kInteger: {
      char buf[24];
      auto [ptr, ec] =
          std::to_chars(buf, buf + sizeof(buf), std::get<int64_t>(rep_));
      out.append(buf, ptr);
      return;
    }
    case ValueKind::kFloat: {
      // Six significant digits (the bytes `%g` prints) when they read
      // back as the same double, else the shortest text that does:
      // snapshots, WAL entries and shipped MBDS requests parse this text
      // back, so it must not round.
      const double value = std::get<double>(rep_);
      char buf[64];
      char* end = std::to_chars(buf, buf + sizeof(buf), value,
                                std::chars_format::general, 6)
                      .ptr;
      double parsed = 0.0;
      std::from_chars(buf, end, parsed);
      if (parsed != value) {
        end = std::to_chars(buf, buf + sizeof(buf), value).ptr;
      }
      out.append(buf, end);
      return;
    }
    case ValueKind::kString: {
      // Escape embedded quotes by doubling them (the SQL convention), so
      // printed values parse back losslessly — snapshot and WAL entries
      // are replayed through the parser and must round-trip.
      const std::string& text = std::get<std::string>(rep_);
      out.push_back('\'');
      for (char c : text) {
        if (c == '\'') out.push_back('\'');
        out.push_back(c);
      }
      out.push_back('\'');
      return;
    }
  }
  out += "NULL";
}

std::string Value::ToDisplayString() const {
  if (is_string()) return AsString();
  return ToString();
}

}  // namespace mlds::abdm
