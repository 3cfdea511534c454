#ifndef MLDS_ABDM_VALUE_H_
#define MLDS_ABDM_VALUE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>

#include "common/result.h"

namespace mlds::abdm {

/// The kind of an attribute value in the attribute-based data model.
/// The ABDM domain set covers the scalar types every user data model in
/// MLDS maps onto: integers, floating points, and character strings. A
/// distinguished Null marks attribute-value pairs whose value has been
/// "nulled out" (e.g. by a DISCONNECT translation, Ch. VI.E).
enum class ValueKind {
  kNull = 0,
  kInteger,
  kFloat,
  kString,
};

std::string_view ValueKindToString(ValueKind kind);

/// A Value is one element of an attribute's domain: the right-hand half of
/// an ABDM attribute-value pair (keyword). Values are ordered within a
/// kind; integers and floats compare numerically against each other.
/// Null compares equal only to Null and is less than every non-null value.
class Value {
 public:
  /// Constructs the null value.
  Value() : rep_(std::monostate{}) {}

  static Value Null() { return Value(); }
  static Value Integer(int64_t v) { return Value(Rep(v)); }
  static Value Float(double v) { return Value(Rep(v)); }
  static Value String(std::string v) { return Value(Rep(std::move(v))); }

  /// Parses a literal: quoted text ('...' or "...") becomes a string,
  /// NULL becomes null, digits with '.' or exponent become a float, plain
  /// digits an integer; anything else is taken as an unquoted string.
  static Value Parse(std::string_view text);

  ValueKind kind() const {
    switch (rep_.index()) {
      case 0:
        return ValueKind::kNull;
      case 1:
        return ValueKind::kInteger;
      case 2:
        return ValueKind::kFloat;
      default:
        return ValueKind::kString;
    }
  }

  bool is_null() const { return kind() == ValueKind::kNull; }
  bool is_integer() const { return kind() == ValueKind::kInteger; }
  bool is_float() const { return kind() == ValueKind::kFloat; }
  bool is_string() const { return kind() == ValueKind::kString; }
  bool is_numeric() const { return is_integer() || is_float(); }

  int64_t AsInteger() const { return std::get<int64_t>(rep_); }
  double AsFloat() const {
    return is_integer() ? static_cast<double>(std::get<int64_t>(rep_))
                        : std::get<double>(rep_);
  }
  const std::string& AsString() const { return std::get<std::string>(rep_); }

  /// Three-way comparison: negative if *this < other, 0 if equal, positive
  /// if greater. Numeric kinds compare by exact numeric value (3 equals
  /// 3.0, 2^53 + 1 differs from 2^53; NaN sorts after every number);
  /// mixed string/numeric comparisons order by kind (numeric < string).
  int Compare(const Value& other) const {
    // Same-kind strings and integers — nearly every directory key
    // comparison — stay inline; the rest take CompareMixed.
    const size_t a = rep_.index();
    if (a == other.rep_.index()) {
      if (a == 3) {
        const int c = std::get<3>(rep_).compare(std::get<3>(other.rep_));
        return (c > 0) - (c < 0);
      }
      if (a == 1) {
        const int64_t x = std::get<1>(rep_);
        const int64_t y = std::get<1>(other.rep_);
        return (x > y) - (x < y);
      }
    }
    return CompareMixed(other);
  }

  /// Renders the value in ABDL literal form (strings quoted).
  std::string ToString() const;

  /// ToString appended in place — the bulk-logging path renders whole
  /// batch entries into one buffer without a temporary per value.
  void AppendTo(std::string& out) const;

  /// Renders the bare value (strings unquoted) for display output.
  std::string ToDisplayString() const;

  friend bool operator==(const Value& a, const Value& b) {
    return a.Compare(b) == 0;
  }
  friend bool operator!=(const Value& a, const Value& b) {
    return a.Compare(b) != 0;
  }
  friend bool operator<(const Value& a, const Value& b) {
    return a.Compare(b) < 0;
  }

 private:
  using Rep = std::variant<std::monostate, int64_t, double, std::string>;
  explicit Value(Rep rep) : rep_(std::move(rep)) {}

  /// Compare for nulls, floats and pairs of different kinds.
  int CompareMixed(const Value& other) const;

  Rep rep_;
};

}  // namespace mlds::abdm

#endif  // MLDS_ABDM_VALUE_H_
