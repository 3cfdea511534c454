#include "abdm/query.h"

namespace mlds::abdm {

std::string_view RelOpToString(RelOp op) {
  switch (op) {
    case RelOp::kEq:
      return "=";
    case RelOp::kNe:
      return "!=";
    case RelOp::kLt:
      return "<";
    case RelOp::kLe:
      return "<=";
    case RelOp::kGt:
      return ">";
    case RelOp::kGe:
      return ">=";
  }
  return "?";
}

bool Predicate::Matches(const Record& record) const {
  const Value* recorded = record.Find(attribute);
  if (recorded == nullptr) return false;

  // Null handling: only (in)equality is meaningful against NULL.
  if (value.is_null() || recorded->is_null()) {
    const bool both_null = value.is_null() && recorded->is_null();
    if (op == RelOp::kEq) return both_null;
    if (op == RelOp::kNe) return !both_null;
    return false;
  }

  const int cmp = recorded->Compare(value);
  switch (op) {
    case RelOp::kEq:
      return cmp == 0;
    case RelOp::kNe:
      return cmp != 0;
    case RelOp::kLt:
      return cmp < 0;
    case RelOp::kLe:
      return cmp <= 0;
    case RelOp::kGt:
      return cmp > 0;
    case RelOp::kGe:
      return cmp >= 0;
  }
  return false;
}

std::string Predicate::ToString() const {
  std::string out = "(";
  out += attribute;
  out += " ";
  out += RelOpToString(op);
  out += " ";
  out += value.ToString();
  out += ")";
  return out;
}

std::optional<KeyInterval> KeyInterval::Of(const Predicate& pred) {
  if (pred.value.is_null()) return std::nullopt;
  switch (pred.op) {
    case RelOp::kNe:
      return std::nullopt;
    case RelOp::kEq:
      return KeyInterval{&pred, &pred};
    case RelOp::kGt:
    case RelOp::kGe:
      return KeyInterval{&pred, nullptr};
    case RelOp::kLt:
    case RelOp::kLe:
      return KeyInterval{nullptr, &pred};
  }
  return std::nullopt;
}

KeyInterval KeyInterval::Fold(const std::vector<Predicate>& bounds) {
  KeyInterval interval;
  for (const Predicate& bound : bounds) {
    if (auto one = Of(bound); one.has_value()) interval.Intersect(*one);
  }
  return interval;
}

void KeyInterval::Intersect(const KeyInterval& other) {
  // `sign` orients the comparison: a lower end tightens upwards, an upper
  // end downwards; at equal values the exclusive end is tighter.
  auto narrow = [](const Predicate*& mine, const Predicate* theirs,
                   int sign) {
    if (theirs == nullptr) return;
    if (mine == nullptr) {
      mine = theirs;
      return;
    }
    const int cmp = theirs->value.Compare(mine->value) * sign;
    if (cmp > 0 || (cmp == 0 && Includes(*mine) && !Includes(*theirs))) {
      mine = theirs;
    }
  };
  narrow(lower, other.lower, 1);
  narrow(upper, other.upper, -1);
}

bool KeyInterval::IsPoint() const {
  if (lower == nullptr || upper == nullptr) return false;
  return lower == upper || (Includes(*lower) && Includes(*upper) &&
                            lower->value == upper->value);
}

bool KeyInterval::IsEmpty() const {
  if (lower == nullptr || upper == nullptr || lower == upper) return false;
  const int cmp = lower->value.Compare(upper->value);
  return cmp > 0 || (cmp == 0 && !(Includes(*lower) && Includes(*upper)));
}

bool Conjunction::Matches(const Record& record) const {
  for (const auto& pred : predicates) {
    if (!pred.Matches(record)) return false;
  }
  return true;
}

std::string Conjunction::ToString() const {
  if (predicates.empty()) return "(TRUE)";
  std::string out = "(";
  for (size_t i = 0; i < predicates.size(); ++i) {
    if (i > 0) out += " and ";
    out += predicates[i].ToString();
  }
  out += ")";
  return out;
}

Predicate EqStr(std::string attribute, std::string_view value) {
  return Predicate{std::move(attribute), RelOp::kEq,
                   Value::String(std::string(value))};
}

Predicate FilePred(std::string_view file) {
  return EqStr(std::string(kFileAttribute), file);
}

Query Query::ForFile(std::string_view file, std::vector<Predicate> more) {
  std::vector<Predicate> preds;
  preds.reserve(more.size() + 1);
  preds.push_back(FilePred(file));
  for (auto& p : more) preds.push_back(std::move(p));
  return Query::And(std::move(preds));
}

Conjunction Query::KeyDisjunct(std::string_view file,
                               std::string_view attribute,
                               std::string_view key,
                               const std::vector<Predicate>& shared) {
  Conjunction conj{{FilePred(file), EqStr(std::string(attribute), key)}};
  conj.predicates.insert(conj.predicates.end(), shared.begin(), shared.end());
  return conj;
}

bool Query::Matches(const Record& record) const {
  for (const auto& conj : disjuncts_) {
    if (conj.Matches(record)) return true;
  }
  return false;
}

std::string Query::SingleFile() const {
  std::string file;
  for (const auto& conj : disjuncts_) {
    bool found = false;
    for (const auto& pred : conj.predicates) {
      if (pred.attribute == kFileAttribute && pred.op == RelOp::kEq &&
          pred.value.is_string()) {
        if (file.empty()) {
          file = pred.value.AsString();
        } else if (file != pred.value.AsString()) {
          return "";
        }
        found = true;
        break;
      }
    }
    if (!found) return "";
  }
  return file;
}

std::string Query::ToString() const {
  if (disjuncts_.empty()) return "(FALSE)";
  if (disjuncts_.size() == 1) return disjuncts_[0].ToString();
  std::string out = "(";
  for (size_t i = 0; i < disjuncts_.size(); ++i) {
    if (i > 0) out += " or ";
    out += disjuncts_[i].ToString();
  }
  out += ")";
  return out;
}

}  // namespace mlds::abdm
