#include "kms/insert_path.h"

#include <algorithm>
#include <utility>

#include "transform/abdm_mapping.h"

namespace mlds::kms {

namespace {

using abdm::Conjunction;
using abdm::FilePred;
using abdm::Predicate;
using abdm::Query;
using abdm::Record;
using abdm::RelOp;
using abdm::Value;
using transform::KeyAttribute;
using transform::MakeDbKey;

Predicate KeyPred(std::string_view file, RelOp op, uint64_t ordinal) {
  return Predicate{KeyAttribute(file), op,
                   Value::String(MakeDbKey(file, ordinal))};
}

/// The one RETRIEVE that checks candidate ordinals [first, end) of
/// `file`. A string interval between two keys also holds every shorter
/// key between their prefixes ("course_2" lies between "course_15" and
/// "course_31"), whose records the probe would fetch for nothing. Ordinals
/// that differ only in their last digit share every shorter prefix, so
/// each such run (at most a decade, never crossing a digit count) is one
/// key interval that holds no shorter key; a lone candidate is an
/// equality.
abdl::RetrieveRequest KeyProbe(std::string_view file, uint64_t first,
                               uint64_t end) {
  std::vector<Conjunction> runs;
  for (uint64_t lo = first; lo < end;) {
    const uint64_t hi = std::min(end, lo - lo % 10 + 10) - 1;
    std::vector<Predicate> preds = {FilePred(file)};
    if (lo == hi) {
      preds.push_back(KeyPred(file, RelOp::kEq, lo));
    } else {
      preds.push_back(KeyPred(file, RelOp::kGe, lo));
      preds.push_back(KeyPred(file, RelOp::kLe, hi));
    }
    runs.push_back(Conjunction{std::move(preds)});
    lo = hi + 1;
  }
  return abdl::RetrieveAttribute(Query(std::move(runs)), KeyAttribute(file));
}

/// The seen-set entry for the predicates of `combo` selected by `mask`.
std::string ComboKey(const std::vector<Predicate>& combo, size_t mask) {
  std::string key;
  for (size_t i = 0; i < combo.size(); ++i) {
    if ((mask & (size_t{1} << i)) == 0) continue;
    key += combo[i].attribute;
    key += '\x1e';
    key += combo[i].value.ToString();
    key += '\x1f';
  }
  return key;
}

/// Allocates `count` free keys of `file` from `*cursor` onward.
Result<std::vector<std::string>> AllocateKeys(const InsertPath::IssueFn& issue,
                                              std::string_view file,
                                              uint64_t* cursor, size_t count) {
  std::vector<std::string> keys;
  keys.reserve(count);
  while (keys.size() < count) {
    const uint64_t first = *cursor;
    *cursor += count - keys.size();
    MLDS_ASSIGN_OR_RETURN(kds::Response taken,
                          issue(KeyProbe(file, first, *cursor)));
    std::set<std::string> live;
    for (const Record& record : taken.records) {
      const Value& key = record.GetOrNull(KeyAttribute(file));
      if (key.is_string()) live.insert(key.AsString());
    }
    for (uint64_t n = first; n < *cursor; ++n) {
      std::string key = MakeDbKey(file, n);
      if (live.count(key) == 0) keys.push_back(std::move(key));
    }
  }
  return keys;
}

}  // namespace

InsertPath::InsertPath(kc::KernelExecutor* executor, IssueFn issue)
    : executor_(executor), issue_(std::move(issue)) {}

Result<Record> InsertPath::InsertRows(
    std::string_view file, const std::vector<std::vector<Value>>& rows,
    size_t begin, size_t end, const BuildFn& build, bool batch) {
  auto it = next_key_.find(file);
  if (it == next_key_.end()) {
    it = next_key_.emplace(std::string(file), executor_->FileSize(file) + 1)
             .first;
  }
  uint64_t& cursor = it->second;
  const uint64_t mark = cursor;
  auto run = [&]() -> Result<Record> {
    MLDS_ASSIGN_OR_RETURN(std::vector<std::string> keys,
                          AllocateKeys(issue_, file, &cursor, end - begin));
    std::vector<Record> records;
    records.reserve(end - begin);
    for (size_t i = begin; i < end; ++i) {
      MLDS_ASSIGN_OR_RETURN(Record record, build(rows[i], keys[i - begin]));
      records.push_back(std::move(record));
    }
    Record last = records.back();
    if (batch) {
      MLDS_RETURN_IF_ERROR(
          issue_(abdl::BatchInsertRequest{std::move(records)}).status());
    } else {
      MLDS_RETURN_IF_ERROR(issue_(abdl::InsertRequest{last}).status());
    }
    return last;
  };
  Result<Record> last = run();
  if (!last.ok()) cursor = mark;
  return last;
}

Result<size_t> InsertPath::Insert(
    std::string_view verb, std::string_view file, size_t params_per_row,
    const std::vector<std::vector<Value>>& rows,
    const std::optional<abdl::BatchLimits>& limits, const BuildFn& build,
    const ChunkFn& after_chunk) {
  if (rows.empty()) {
    return Status::InvalidArgument(std::string(verb) +
                                   " batch carries no rows");
  }
  for (size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].size() != params_per_row) {
      return Status::InvalidArgument(
          std::string(verb) + " batch row " + std::to_string(i) +
          " carries " + std::to_string(rows[i].size()) +
          " value(s); the template has " + std::to_string(params_per_row) +
          " parameter(s)");
    }
  }
  const size_t chunk = limits.has_value()
                           ? abdl::EffectiveBatchSize(*limits, params_per_row)
                           : rows.size();
  const bool batch = limits.has_value() || rows.size() > 1;
  std::set<std::string> seen;
  batch_seen_ = &seen;
  auto run = [&]() -> Result<size_t> {
    for (size_t begin = 0; begin < rows.size(); begin += chunk) {
      const size_t end = std::min(begin + chunk, rows.size());
      MLDS_ASSIGN_OR_RETURN(Record last,
                            InsertRows(file, rows, begin, end, build, batch));
      if (after_chunk) after_chunk(last);
    }
    return rows.size();
  };
  Result<size_t> inserted = run();
  batch_seen_ = nullptr;
  return inserted;
}

Result<bool> InsertPath::UniqueTaken(std::string_view file,
                                     std::vector<Predicate> combo) {
  if (combo.empty()) return false;
  if (batch_seen_ != nullptr) {
    // A row that leaves some unique items null matches an earlier row on
    // the items it does carry, as its kernel probe would: each row looks
    // up its whole combination and registers every subset of it (2^k - 1
    // entries for k non-null unique items).
    const size_t all = (size_t{1} << combo.size()) - 1;
    if (!batch_seen_->insert(ComboKey(combo, all)).second) return true;
    for (size_t mask = 1; mask < all; ++mask) {
      batch_seen_->insert(ComboKey(combo, mask));
    }
  }
  combo.insert(combo.begin(), FilePred(file));
  MLDS_ASSIGN_OR_RETURN(kds::Response resp,
                        issue_(abdl::RetrieveAttribute(
                            Query::And(std::move(combo)), KeyAttribute(file))));
  return !resp.records.empty();
}

Status InsertPath::CheckOverlap(std::string_view verb,
                                std::string_view subtype,
                                std::string_view isa_set,
                                const std::string& owner_key,
                                const transform::FunNetMapping& mapping) {
  const network::SetType* isa = mapping.schema.FindSet(isa_set);
  if (isa == nullptr) return Status::OK();
  auto contains = [](const std::vector<std::string>& list,
                     std::string_view name) {
    return std::find(list.begin(), list.end(), name) != list.end();
  };
  // Sibling subtypes: members of the other ISA sets the supertype owns.
  for (const network::SetType* sibling_set :
       mapping.schema.SetsWithOwner(isa->owner)) {
    const transform::SetInfo* info = mapping.FindSetInfo(sibling_set->name);
    if (info == nullptr || info->origin != transform::SetOrigin::kIsa) {
      continue;
    }
    const std::string& sibling = sibling_set->members[0];
    if (sibling == subtype) continue;
    MLDS_ASSIGN_OR_RETURN(
        kds::Response resp,
        issue_(abdl::RetrieveAttribute(
            Query::KeySet(sibling, transform::SetAttribute(sibling_set->name),
                          {owner_key}),
            KeyAttribute(sibling))));
    if (resp.records.empty()) continue;
    const bool declared = std::any_of(
        mapping.overlap_table.begin(), mapping.overlap_table.end(),
        [&](const daplex::OverlapConstraint& oc) {
          return (contains(oc.left, subtype) && contains(oc.right, sibling)) ||
                 (contains(oc.left, sibling) && contains(oc.right, subtype));
        });
    if (!declared) {
      return Status::ConstraintViolation(
          std::string(verb) + " " + std::string(subtype) + ": entity '" +
          owner_key + "' already belongs to subtype '" + sibling +
          "' and no OVERLAP constraint permits sharing");
    }
  }
  return Status::OK();
}

std::vector<Predicate> NetworkUniqueCombo(const network::RecordType& rt,
                                          const Record& record) {
  std::vector<Predicate> combo;
  for (const auto& attr : rt.attributes) {
    if (attr.duplicates_allowed) continue;
    Value v = record.GetOrNull(attr.name);
    if (v.is_null()) continue;
    combo.push_back(Predicate{attr.name, RelOp::kEq, std::move(v)});
  }
  return combo;
}

}  // namespace mlds::kms
