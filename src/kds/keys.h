#ifndef MLDS_KDS_KEYS_H_
#define MLDS_KDS_KEYS_H_

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "abdl/request.h"
#include "abdm/query.h"
#include "abdm/record.h"
#include "common/status.h"

namespace mlds::kds {

/// A file's database-key counter: the ordinal its next kernel-assigned
/// key takes (abdl::InsertGuard::key_attribute). Every record the file
/// gains moves it one past the larger of itself and the record's own key
/// ordinal, read from the keyword named after the file. So a file without
/// deletions gives its Nth new record ordinal size + N, an assigned key
/// never repeats a key the file has held since the counter was built, and
/// replaying the same records rebuilds the same counter.
class KeyCounter {
 public:
  uint64_t next() const { return next_; }

  /// Accounts for `record` joining `file`.
  void Note(std::string_view file, const abdm::Record& record);

  /// The key `record` of `file` takes when `key_attribute` is non-empty
  /// and the record's value there is absent or NULL, else an empty
  /// string; accounts for the record as joining the file with that key.
  std::string Next(std::string_view file, std::string_view key_attribute,
                   const abdm::Record& record);

  /// Raises the counter to at least `next`.
  void Raise(uint64_t next) { next_ = std::max(next_, next); }

 private:
  uint64_t next_ = 1;
};

/// The combination a record must not share with a live record of its
/// file under a guard: per attribute of `guard.unique`, the record's value,
/// or nullptr where the null rule drops it. It points into the record,
/// which must outlive it unchanged.
struct Combination {
  std::string_view file;
  std::vector<const abdm::Value*> values;

  /// Whether the record is checked: some value is left.
  bool checked() const;
};

/// The combination of `record` (of `file`) under `guard`; unchecked when
/// the null rule exempts the record.
Combination GuardCombination(const abdl::InsertGuard& guard,
                             std::string_view file,
                             const abdm::Record& record);

/// `combination` as equalities on `guard.unique`'s attributes: the query
/// form of a combination.
std::vector<abdm::Predicate> Equalities(const abdl::InsertGuard& guard,
                                        const Combination& combination);

/// The rows of one request that repeat an earlier row's combination, as
/// a directory check would find them had the earlier rows been written
/// first: a row with fewer non-null unique attributes matches an earlier
/// row on the ones it carries. Each row registers every subset of its
/// combination (2^k - 1 entries for k attributes).
class RepeatCheck {
 public:
  /// True when checked `combination` repeats an earlier row's; registers
  /// it either way.
  bool Repeats(const Combination& combination);

 private:
  /// One subset: the attributes of `mask`, their values in order.
  struct Entry {
    std::string_view file;
    size_t mask = 0;
    std::vector<const abdm::Value*> values;
  };
  struct Less {
    bool operator()(const Entry& a, const Entry& b) const;
  };
  std::set<Entry, Less> seen_;
};

/// The error a failed guard returns; the front ends replace its text with
/// their own language's.
Status UniqueViolation(std::string_view file,
                       const abdl::InsertGuard& guard);

}  // namespace mlds::kds

#endif  // MLDS_KDS_KEYS_H_
