#include "kms/insert_path.h"

#include <algorithm>
#include <utility>

#include "transform/abdm_mapping.h"

namespace mlds::kms {

using abdm::Query;
using abdm::Record;
using abdm::Value;
using transform::KeyAttribute;

InsertPath::InsertPath(IssueFn issue) : issue_(std::move(issue)) {}

Result<size_t> InsertPath::Insert(
    std::string_view verb, std::string_view file, size_t params_per_row,
    const std::vector<std::vector<Value>>& rows,
    const std::optional<abdl::BatchLimits>& limits, const BuildFn& build,
    const Unique& unique, const ChunkFn& after_chunk) {
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
  abdl::InsertGuard guard{KeyAttribute(file), unique.attributes,
                          unique.nulls};
  for (size_t begin = 0; begin < rows.size(); begin += chunk) {
    const size_t end = std::min(begin + chunk, rows.size());
    std::vector<Record> records;
    records.reserve(end - begin);
    for (size_t i = begin; i < end; ++i) {
      MLDS_ASSIGN_OR_RETURN(Record record, build(rows[i]));
      records.push_back(std::move(record));
    }
    Record last = records.back();
    Result<kds::Response> inserted =
        issue_(abdl::InsertRequest{std::move(records), guard});
    if (!inserted.ok()) {
      // The kernel checked the guard; the language words the violation.
      if (inserted.status().IsConstraintViolation() &&
          !unique.attributes.empty()) {
        return Status::ConstraintViolation(unique.violation);
      }
      return inserted.status();
    }
    if (!inserted->keys.empty()) {
      last.Set(KeyAttribute(file), Value::String(inserted->keys.back()));
    }
    if (after_chunk) after_chunk(inserted->keys, last);
  }
  return rows.size();
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

InsertPath::Unique NetworkUnique(const network::RecordType& rt,
                                 std::string violation) {
  InsertPath::Unique unique{{}, abdl::NullRule::kDropAttribute,
                            std::move(violation)};
  for (const auto& attr : rt.attributes) {
    if (!attr.duplicates_allowed) unique.attributes.push_back(attr.name);
  }
  return unique;
}

}  // namespace mlds::kms
