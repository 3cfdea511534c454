#include "kds/keys.h"

#include <algorithm>

namespace mlds::kds {

void KeyCounter::Note(std::string_view file, const abdm::Record& record) {
  const std::optional<uint64_t> ordinal =
      abdm::DbKeyOrdinal(file, record.GetOrNull(file));
  next_ = std::max(next_, ordinal.value_or(0)) + 1;
}

std::string KeyCounter::Next(std::string_view file,
                             std::string_view key_attribute,
                             const abdm::Record& record) {
  if (key_attribute.empty() || !record.GetOrNull(key_attribute).is_null()) {
    Note(file, record);
    return {};
  }
  return abdm::MakeDbKey(file, next_++);
}

bool Combination::checked() const {
  return std::any_of(values.begin(), values.end(),
                     [](const abdm::Value* v) { return v != nullptr; });
}

Combination GuardCombination(const abdl::InsertGuard& guard,
                             std::string_view file,
                             const abdm::Record& record) {
  Combination combination{file, {}};
  combination.values.reserve(guard.unique.size());
  for (const std::string& attribute : guard.unique) {
    const abdm::Value* value = record.Find(attribute);
    if (value != nullptr && value->is_null()) value = nullptr;
    if (value == nullptr && guard.nulls == abdl::NullRule::kSkipRecord) {
      return Combination{file, {}};
    }
    combination.values.push_back(value);
  }
  return combination;
}

std::vector<abdm::Predicate> Equalities(const abdl::InsertGuard& guard,
                                        const Combination& combination) {
  std::vector<abdm::Predicate> equalities;
  for (size_t i = 0; i < combination.values.size(); ++i) {
    if (combination.values[i] == nullptr) continue;
    equalities.push_back(abdm::Predicate{guard.unique[i], abdm::RelOp::kEq,
                                         *combination.values[i]});
  }
  return equalities;
}

bool RepeatCheck::Less::operator()(const Entry& a, const Entry& b) const {
  if (a.file != b.file) return a.file < b.file;
  if (a.mask != b.mask) return a.mask < b.mask;
  for (size_t i = 0; i < a.values.size(); ++i) {
    const int cmp = a.values[i]->Compare(*b.values[i]);
    if (cmp != 0) return cmp < 0;
  }
  return false;
}

bool RepeatCheck::Repeats(const Combination& combination) {
  // The row's own mask: bit i for each value the null rule left.
  std::vector<size_t> present;
  for (size_t i = 0; i < combination.values.size(); ++i) {
    if (combination.values[i] != nullptr) present.push_back(i);
  }
  auto entry = [&](size_t subset) {
    Entry e{combination.file, 0, {}};
    for (size_t b = 0; b < present.size(); ++b) {
      if ((subset & (size_t{1} << b)) == 0) continue;
      e.mask |= size_t{1} << present[b];
      e.values.push_back(combination.values[present[b]]);
    }
    return e;
  };
  const size_t all = (size_t{1} << present.size()) - 1;
  if (!seen_.insert(entry(all)).second) return true;
  for (size_t subset = 1; subset < all; ++subset) seen_.insert(entry(subset));
  return false;
}

Status UniqueViolation(std::string_view file,
                       const abdl::InsertGuard& guard) {
  std::string attributes;
  for (const std::string& attribute : guard.unique) {
    if (!attributes.empty()) attributes += ", ";
    attributes += attribute;
  }
  return Status::ConstraintViolation("INSERT into '" + std::string(file) +
                                     "' repeats a unique (" + attributes +
                                     ") combination");
}

}  // namespace mlds::kds
