#include "transform/abdm_mapping.h"

#include "abdm/record.h"

namespace mlds::transform {

namespace {

abdm::ValueKind MapAttrType(network::AttrType type) {
  switch (type) {
    case network::AttrType::kInteger:
      return abdm::ValueKind::kInteger;
    case network::AttrType::kFloat:
      return abdm::ValueKind::kFloat;
    case network::AttrType::kString:
      return abdm::ValueKind::kString;
  }
  return abdm::ValueKind::kString;
}

}  // namespace

Result<abdm::DatabaseDescriptor> MapNetworkToAbdm(
    const network::Schema& schema, const FunNetMapping* mapping) {
  MLDS_RETURN_IF_ERROR(schema.Validate());

  abdm::DatabaseDescriptor db;
  db.name = schema.name();
  for (const auto& record : schema.records()) {
    abdm::FileDescriptor file;
    file.name = record.name;

    // <FILE, name> and the database-key keyword.
    file.attributes.push_back(abdm::AttributeDescriptor{
        std::string(abdm::kFileAttribute), abdm::ValueKind::kString, 0, true});
    file.attributes.push_back(abdm::AttributeDescriptor{
        KeyAttribute(record.name), abdm::ValueKind::kString, 0, true});

    // One keyword per data-item, carried by a secondary index: the FILE
    // keyword, database key, and set keywords below keep the primary
    // directory clustering, while data-item predicates take the
    // secondary-index path.
    for (const auto& attr : record.attributes) {
      file.attributes.push_back(abdm::AttributeDescriptor{
          attr.name, MapAttrType(attr.type), attr.length,
          /*directory=*/false, /*indexed=*/true});
    }

    // Member-side set keywords (owner's dbkey), skipping SYSTEM sets.
    // Sets representing owner-side one-to-many Daplex functions are
    // represented on the owner side instead (duplicated owner records),
    // so their members carry no keyword.
    for (const auto* set : schema.SetsWithMember(record.name)) {
      if (set->IsSystemOwned()) continue;
      if (mapping != nullptr) {
        const SetInfo* info = mapping->FindSetInfo(set->name);
        if (info != nullptr && info->origin == SetOrigin::kOneToManyFunction) {
          continue;
        }
      }
      file.attributes.push_back(abdm::AttributeDescriptor{
          SetAttribute(set->name), abdm::ValueKind::kString, 0, true});
    }

    // Owner-side keywords for sets representing owner-side Daplex
    // functions (duplicated-record representation).
    if (mapping != nullptr) {
      for (const auto* set : schema.SetsWithOwner(record.name)) {
        const SetInfo* info = mapping->FindSetInfo(set->name);
        if (info != nullptr && info->function_on_owner_side &&
            info->origin == SetOrigin::kOneToManyFunction) {
          file.attributes.push_back(abdm::AttributeDescriptor{
              SetAttribute(set->name), abdm::ValueKind::kString, 0, true});
        }
      }
    }

    db.files.push_back(std::move(file));
  }
  return db;
}

}  // namespace mlds::transform
