#ifndef MLDS_TRANSFORM_ABDM_MAPPING_H_
#define MLDS_TRANSFORM_ABDM_MAPPING_H_

#include <string>
#include <string_view>

#include "abdm/record.h"
#include "abdm/schema.h"
#include "common/result.h"
#include "network/schema.h"
#include "transform/fun_to_net.h"

namespace mlds::transform {

/// AB record layout conventions shared by the network-to-ABDM mapping and
/// the CODASYL-DML-to-ABDL translation (Ch. III, VI):
///
///  - every kernel record's first keyword is <FILE, record-type-name>;
///  - the second keyword is the record's database key: its attribute is
///    the record type's name and its value is an artificial unique key
///    ("course_7");
///  - each data-item of the record type contributes one keyword;
///  - for every non-system set in which the record type participates as a
///    *member*, the record carries a keyword named after the set whose
///    value is the owning record's database key (NULL when unattached);
///  - for sets representing owner-side Daplex functions (one-to-many and
///    many-to-many), the *owner* record additionally carries a keyword
///    named after the set whose value is a member's database key — with
///    the owner record repeated per member, the thesis's duplicated
///    AB(functional) record representation (Ch. VI.D.2.a).
///
/// SYSTEM-owned sets contribute no keyword: membership in them is implied
/// by the FILE keyword itself.

/// The attribute carrying a record's database key.
inline std::string KeyAttribute(std::string_view record_type) {
  return std::string(record_type);
}

/// The attribute representing membership in `set` (value: owner's dbkey on
/// member records; member's dbkey on duplicated owner-side records).
inline std::string SetAttribute(std::string_view set_name) {
  return std::string(set_name);
}

/// Builds an artificial database key ("course_7").
using abdm::MakeDbKey;

/// Maps a network schema to its attribute-based database definition
/// (AB(network)), one kernel file per record type. When `mapping` is
/// non-null the schema is a transformed functional schema and the
/// descriptors also carry the owner-side function-set attributes
/// (AB(functional), Figure 3.3).
Result<abdm::DatabaseDescriptor> MapNetworkToAbdm(
    const network::Schema& schema, const FunNetMapping* mapping = nullptr);

}  // namespace mlds::transform

#endif  // MLDS_TRANSFORM_ABDM_MAPPING_H_
