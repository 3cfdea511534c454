#ifndef MLDS_ABDM_RECORD_H_
#define MLDS_ABDM_RECORD_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "abdm/value.h"
#include "common/result.h"

namespace mlds::abdm {

/// An attribute-value pair — the ABDM "keyword" (Ch. II.C.1). The
/// attribute names the domain; the value is drawn from that domain.
struct Keyword {
  std::string attribute;
  Value value;

  friend bool operator==(const Keyword& a, const Keyword& b) {
    return a.attribute == b.attribute && a.value == b.value;
  }
};

/// The ordered attribute names of a record: slot i names the record's
/// i-th keyword. Records decoded from one file share one immutable layout
/// (see LayoutTable); a record built key by key owns its layout and grows
/// it in place.
class RecordLayout {
 public:
  static constexpr size_t kNoSlot = static_cast<size_t>(-1);

  RecordLayout() = default;
  explicit RecordLayout(std::vector<std::string> names)
      : names_(std::move(names)) {}

  size_t size() const { return names_.size(); }
  const std::string& name(size_t slot) const { return names_[slot]; }
  const std::vector<std::string>& names() const { return names_; }

  /// The slot named `name`, or kNoSlot.
  size_t Slot(std::string_view name) const;

 private:
  friend class Record;
  std::vector<std::string> names_;
};

/// An ABDM record: a group of keywords (at most one per attribute) plus an
/// optional textual portion carrying a free-form description of the
/// concept the record represents (Figure 2.3).
///
/// By MLDS convention the first keyword of every record is
/// <FILE, file-name> and the second is the record's database-key keyword
/// (<entity-type, unique-key> for AB(functional) files, Ch. III.C.1).
///
/// The keywords are stored as a layout (the attribute names, possibly
/// shared with other records) plus one value per slot. Set and Erase copy
/// the layout first when another record shares it.
class Record {
 public:
  Record() = default;

  /// Builds a record from keywords; later duplicates of an attribute are
  /// dropped so the at-most-one-keyword-per-attribute invariant holds.
  explicit Record(std::vector<Keyword> keywords, std::string text = "");

  /// Binds `values` slot by slot to `layout`, which must hold exactly
  /// values.size() names (a null layout only for no values).
  Record(std::shared_ptr<const RecordLayout> layout, std::vector<Value> values,
         std::string text = "");

  /// Appends (or overwrites) the keyword for `attribute`.
  void Set(std::string_view attribute, Value value);

  /// Returns the value bound to `attribute`, or nullopt if the record has
  /// no keyword for it.
  std::optional<Value> Get(std::string_view attribute) const;

  /// Returns the value bound to `attribute`, or Null if absent.
  Value GetOrNull(std::string_view attribute) const;

  /// The value bound to `attribute` without a copy, or nullptr if absent.
  const Value* Find(std::string_view attribute) const;

  bool Has(std::string_view attribute) const;

  /// Removes the keyword for `attribute`; returns true if one existed.
  bool Erase(std::string_view attribute);

  /// Keyword `slot` (0 <= slot < size(), in keyword order).
  const std::string& attribute(size_t slot) const {
    return layout_->name(slot);
  }
  const Value& value(size_t slot) const { return values_[slot]; }

  /// The slot of `attribute`, or RecordLayout::kNoSlot.
  size_t Slot(std::string_view attribute) const;

  /// The record's layout; nullptr when it has no keywords. Records that
  /// share a layout return the same pointer, which stays valid and
  /// unchanged while the record is neither mutated nor destroyed.
  const RecordLayout* layout() const { return layout_.get(); }

  const std::string& text() const { return text_; }
  void set_text(std::string text) { text_ = std::move(text); }

  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  /// Renders the record in ABDL keyword-list form:
  /// (<FILE, course>, <title, 'Database'>, ...).
  std::string ToString() const;

  /// ToString appended in place; batch WAL entries render thousands of
  /// records into one buffer, so no temporary string per record.
  void AppendTo(std::string& out) const;

  friend bool operator==(const Record& a, const Record& b);

 private:
  friend class LayoutTable;

  /// The layout, made private to this record first if it is shared.
  RecordLayout& MutableLayout();

  /// Every layout is allocated non-const; MutableLayout writes through
  /// this pointer only while no other record or table holds it.
  std::shared_ptr<const RecordLayout> layout_;
  std::vector<Value> values_;
  std::string text_;
};

/// Reads one attribute across a run of records, resolving its slot once
/// per layout instead of once per record. It remembers the last layout by
/// address, so the records it reads must stay alive and unmodified while
/// it is in use.
class AttributeReader {
 public:
  explicit AttributeReader(std::string attribute)
      : attribute_(std::move(attribute)) {}

  /// The value `record` binds to the attribute, or nullptr if absent.
  const Value* Find(const Record& record) {
    if (record.layout() != layout_) {
      layout_ = record.layout();
      slot_ = record.Slot(attribute_);
    }
    return slot_ == RecordLayout::kNoSlot ? nullptr : &record.value(slot_);
  }

 private:
  std::string attribute_;
  const RecordLayout* layout_ = nullptr;
  size_t slot_ = RecordLayout::kNoSlot;
};

/// The distinct layouts of one file's records, so records decoded from
/// the file share them. The owner serializes Intern against readers:
/// FileStore interns under its exclusive lock and decodes under its
/// shared lock, so lookups take no lock of their own.
class LayoutTable {
 public:
  /// A file with more distinct layouts decodes the rest with a layout per
  /// record, which bounds the table's memory and its linear lookup.
  static constexpr size_t kMaxLayouts = 64;

  /// Registers `record`'s layout if no interned layout has its names.
  void Intern(const Record& record);

  /// The interned layout whose names are exactly `names`, or nullptr.
  const std::shared_ptr<const RecordLayout>* Match(
      const std::vector<std::string_view>& names) const;

  void Clear() { layouts_.clear(); }
  size_t size() const { return layouts_.size(); }

 private:
  std::vector<std::shared_ptr<const RecordLayout>> layouts_;
};

/// Convenience: the distinguished attribute naming the file a record
/// belongs to. Every kernel record's first keyword is <FILE, name>.
inline constexpr std::string_view kFileAttribute = "FILE";

/// The artificial database key the front ends' records carry under the
/// keyword named after their file: "<file>_<ordinal>" ("course_7").
std::string MakeDbKey(std::string_view file, uint64_t ordinal);

/// The ordinal of `key` when it is a database key of `file`, else nullopt.
std::optional<uint64_t> DbKeyOrdinal(std::string_view file, const Value& key);

/// Appends a compact binary encoding of `record` to `out`. The format is
/// self-delimiting and preserves keyword order and the textual portion,
/// so Deserialize(Serialize(r)) == r. Layout (all integers little-endian):
///   u32 keyword_count
///   per keyword: u32 attr_len, attr bytes, u8 value_kind, payload
///     (integer/float: 8 bytes; string: u32 len + bytes; null: none)
///   u32 text_len, text bytes
void SerializeRecord(const Record& record, std::string& out);

/// Decodes serialized records. A payload whose names equal the previous
/// record's shares its layout (checked with string_view compares), else
/// one interned in `table`; only a payload matching neither gets a layout
/// of its own. Every decode applies DeserializeRecord's framing checks.
/// One decoder serves one scan on one thread.
class RecordDecoder {
 public:
  explicit RecordDecoder(const LayoutTable* table = nullptr)
      : table_(table) {}

  std::optional<Record> Decode(std::string_view bytes);

 private:
  const LayoutTable* table_;
  std::shared_ptr<const RecordLayout> last_;
  std::vector<std::string_view> names_;
};

/// Decodes one record from `bytes`; nullopt on any framing violation
/// (truncation, bad kind tag, trailing garbage) or a repeated attribute
/// name.
std::optional<Record> DeserializeRecord(std::string_view bytes);

}  // namespace mlds::abdm

#endif  // MLDS_ABDM_RECORD_H_
