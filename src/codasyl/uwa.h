#ifndef MLDS_CODASYL_UWA_H_
#define MLDS_CODASYL_UWA_H_

#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "abdm/record.h"
#include "abdm/value.h"

namespace mlds::codasyl {

/// The User Work Area: one template per record type holding the item
/// values the host program has MOVEd in (and the values GET delivers
/// back). FIND ANY reads its search values here; STORE builds its new
/// record occurrence from here (Ch. VI.B.1, VI.G).
class UserWorkArea {
 public:
  /// MOVE value TO item IN record.
  void Move(std::string_view record, std::string_view item,
            abdm::Value value) {
    templates_[std::string(record)].Set(item, std::move(value));
  }

  /// The value of `item` in `record`'s template, if MOVEd or delivered.
  std::optional<abdm::Value> Get(std::string_view record,
                                 std::string_view item) const {
    auto it = templates_.find(std::string(record));
    if (it == templates_.end()) return std::nullopt;
    return it->second.Get(item);
  }

  /// The whole template for `record` (empty record if none).
  const abdm::Record* Template(std::string_view record) const {
    auto it = templates_.find(std::string(record));
    return it == templates_.end() ? nullptr : &it->second;
  }

  /// Delivers a retrieved record into the template (GET).
  void Deliver(std::string_view record, const abdm::Record& data) {
    abdm::Record& tmpl = templates_[std::string(record)];
    for (size_t i = 0; i < data.size(); ++i) {
      tmpl.Set(data.attribute(i), data.value(i));
    }
  }

  /// Clears the template for `record`.
  void Clear(std::string_view record) { templates_.erase(std::string(record)); }

 private:
  std::map<std::string, abdm::Record> templates_;
};

}  // namespace mlds::codasyl

#endif  // MLDS_CODASYL_UWA_H_
