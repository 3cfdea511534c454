#include "abdm/record.h"

#include <cassert>
#include <charconv>
#include <cstdint>
#include <cstring>

namespace mlds::abdm {

size_t RecordLayout::Slot(std::string_view name) const {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return i;
  }
  return kNoSlot;
}

Record::Record(std::vector<Keyword> keywords, std::string text)
    : text_(std::move(text)) {
  values_.reserve(keywords.size());
  for (auto& kw : keywords) {
    if (Has(kw.attribute)) continue;
    MutableLayout().names_.push_back(std::move(kw.attribute));
    values_.push_back(std::move(kw.value));
  }
}

Record::Record(std::shared_ptr<const RecordLayout> layout,
               std::vector<Value> values, std::string text)
    : layout_(std::move(layout)),
      values_(std::move(values)),
      text_(std::move(text)) {
  assert(values_.size() == (layout_ ? layout_->size() : 0));
}

RecordLayout& Record::MutableLayout() {
  if (layout_ == nullptr) {
    auto fresh = std::make_shared<RecordLayout>();
    // Records built key by key grow past one or two keywords; one
    // reservation spares the first few reallocations.
    fresh->names_.reserve(8);
    layout_ = std::move(fresh);
  } else if (layout_.use_count() != 1) {
    layout_ = std::make_shared<RecordLayout>(*layout_);
  }
  return const_cast<RecordLayout&>(*layout_);
}

size_t Record::Slot(std::string_view attribute) const {
  return layout_ == nullptr ? RecordLayout::kNoSlot : layout_->Slot(attribute);
}

void Record::Set(std::string_view attribute, Value value) {
  const size_t slot = Slot(attribute);
  if (slot != RecordLayout::kNoSlot) {
    values_[slot] = std::move(value);
    return;
  }
  if (values_.empty()) values_.reserve(8);
  MutableLayout().names_.emplace_back(attribute);
  values_.push_back(std::move(value));
}

const Value* Record::Find(std::string_view attribute) const {
  const size_t slot = Slot(attribute);
  return slot == RecordLayout::kNoSlot ? nullptr : &values_[slot];
}

std::optional<Value> Record::Get(std::string_view attribute) const {
  const Value* v = Find(attribute);
  if (v == nullptr) return std::nullopt;
  return *v;
}

Value Record::GetOrNull(std::string_view attribute) const {
  const Value* v = Find(attribute);
  return v != nullptr ? *v : Value::Null();
}

bool Record::Has(std::string_view attribute) const {
  return Slot(attribute) != RecordLayout::kNoSlot;
}

bool Record::Erase(std::string_view attribute) {
  const size_t slot = Slot(attribute);
  if (slot == RecordLayout::kNoSlot) return false;
  std::vector<std::string>& names = MutableLayout().names_;
  names.erase(names.begin() + std::ptrdiff_t(slot));
  values_.erase(values_.begin() + std::ptrdiff_t(slot));
  return true;
}

bool operator==(const Record& a, const Record& b) {
  if (a.size() != b.size() || a.text_ != b.text_) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a.layout_ != b.layout_ && a.attribute(i) != b.attribute(i)) {
      return false;
    }
    if (a.values_[i] != b.values_[i]) return false;
  }
  return true;
}

std::string Record::ToString() const {
  std::string out;
  AppendTo(out);
  return out;
}

void Record::AppendTo(std::string& out) const {
  out.push_back('(');
  for (size_t i = 0; i < size(); ++i) {
    if (i > 0) out += ", ";
    out.push_back('<');
    out += attribute(i);
    out += ", ";
    values_[i].AppendTo(out);
    out.push_back('>');
  }
  out.push_back(')');
  if (!text_.empty()) {
    out += " {";
    out += text_;
    out.push_back('}');
  }
}

namespace {

void PutU32(std::string& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(char((v >> (8 * i)) & 0xff));
}

void PutU64(std::string& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(char((v >> (8 * i)) & 0xff));
}

bool TakeU32(std::string_view& in, uint32_t* v) {
  if (in.size() < 4) return false;
  *v = 0;
  for (int i = 0; i < 4; ++i) *v |= uint32_t(uint8_t(in[i])) << (8 * i);
  in.remove_prefix(4);
  return true;
}

bool TakeU64(std::string_view& in, uint64_t* v) {
  if (in.size() < 8) return false;
  *v = 0;
  for (int i = 0; i < 8; ++i) *v |= uint64_t(uint8_t(in[i])) << (8 * i);
  in.remove_prefix(8);
  return true;
}

bool TakeBytes(std::string_view& in, std::string_view* s) {
  uint32_t len = 0;
  if (!TakeU32(in, &len) || in.size() < len) return false;
  *s = in.substr(0, len);
  in.remove_prefix(len);
  return true;
}

bool SameNames(const std::vector<std::string>& a,
               const std::vector<std::string_view>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

}  // namespace

void SerializeRecord(const Record& record, std::string& out) {
  PutU32(out, uint32_t(record.size()));
  for (size_t i = 0; i < record.size(); ++i) {
    const std::string& attribute = record.attribute(i);
    const Value& value = record.value(i);
    PutU32(out, uint32_t(attribute.size()));
    out += attribute;
    out.push_back(char(static_cast<int>(value.kind())));
    switch (value.kind()) {
      case ValueKind::kNull:
        break;
      case ValueKind::kInteger: {
        uint64_t bits = 0;
        int64_t n = value.AsInteger();
        std::memcpy(&bits, &n, sizeof(bits));
        PutU64(out, bits);
        break;
      }
      case ValueKind::kFloat: {
        uint64_t bits = 0;
        double d = value.AsFloat();
        std::memcpy(&bits, &d, sizeof(bits));
        PutU64(out, bits);
        break;
      }
      case ValueKind::kString: {
        const std::string& s = value.AsString();
        PutU32(out, uint32_t(s.size()));
        out += s;
        break;
      }
    }
  }
  PutU32(out, uint32_t(record.text().size()));
  out += record.text();
}

void LayoutTable::Intern(const Record& record) {
  if (record.layout_ == nullptr || layouts_.size() >= kMaxLayouts) return;
  for (const auto& layout : layouts_) {
    if (layout->names() == record.layout_->names()) return;
  }
  // Adopting the record's layout makes it shared, so the record (if it
  // lives on) copies before its next Set or Erase.
  layouts_.push_back(record.layout_);
}

const std::shared_ptr<const RecordLayout>* LayoutTable::Match(
    const std::vector<std::string_view>& names) const {
  for (const auto& layout : layouts_) {
    if (SameNames(layout->names(), names)) return &layout;
  }
  return nullptr;
}

std::optional<Record> RecordDecoder::Decode(std::string_view bytes) {
  uint32_t count = 0;
  if (!TakeU32(bytes, &count)) return std::nullopt;
  // Each keyword takes at least a name length and a kind tag, so a count
  // beyond that is corrupt; checking first keeps the reserve bounded.
  if (count > bytes.size() / 5) return std::nullopt;
  bool same_as_last = last_ != nullptr && last_->size() == count;
  names_.clear();
  std::vector<Value> values;
  values.reserve(count);
  for (uint32_t k = 0; k < count; ++k) {
    std::string_view name;
    if (!TakeBytes(bytes, &name)) return std::nullopt;
    if (same_as_last && last_->name(k) != name) same_as_last = false;
    names_.push_back(name);
    if (bytes.empty()) return std::nullopt;
    int tag = uint8_t(bytes.front());
    bytes.remove_prefix(1);
    switch (tag) {
      case static_cast<int>(ValueKind::kNull):
        values.emplace_back();
        break;
      case static_cast<int>(ValueKind::kInteger): {
        uint64_t bits = 0;
        if (!TakeU64(bytes, &bits)) return std::nullopt;
        int64_t i = 0;
        std::memcpy(&i, &bits, sizeof(i));
        values.push_back(Value::Integer(i));
        break;
      }
      case static_cast<int>(ValueKind::kFloat): {
        uint64_t bits = 0;
        if (!TakeU64(bytes, &bits)) return std::nullopt;
        double d = 0;
        std::memcpy(&d, &bits, sizeof(d));
        values.push_back(Value::Float(d));
        break;
      }
      case static_cast<int>(ValueKind::kString): {
        std::string_view s;
        if (!TakeBytes(bytes, &s)) return std::nullopt;
        values.push_back(Value::String(std::string(s)));
        break;
      }
      default:
        return std::nullopt;
    }
  }
  std::string_view text;
  if (!TakeBytes(bytes, &text)) return std::nullopt;
  if (!bytes.empty()) return std::nullopt;
  if (count == 0) return Record(nullptr, {}, std::string(text));
  if (!same_as_last) {
    const std::shared_ptr<const RecordLayout>* interned =
        table_ != nullptr ? table_->Match(names_) : nullptr;
    if (interned != nullptr) {
      last_ = *interned;
    } else {
      // An interned or previous layout came from a valid record; a new
      // one must hold each name once, or the payload is malformed.
      for (size_t i = 1; i < names_.size(); ++i) {
        for (size_t j = 0; j < i; ++j) {
          if (names_[i] == names_[j]) return std::nullopt;
        }
      }
      last_ = std::make_shared<RecordLayout>(
          std::vector<std::string>(names_.begin(), names_.end()));
    }
  }
  return Record(last_, std::move(values), std::string(text));
}

std::optional<Record> DeserializeRecord(std::string_view bytes) {
  return RecordDecoder().Decode(bytes);
}

std::string MakeDbKey(std::string_view file, uint64_t ordinal) {
  return std::string(file) + "_" + std::to_string(ordinal);
}

std::optional<uint64_t> DbKeyOrdinal(std::string_view file, const Value& key) {
  if (!key.is_string()) return std::nullopt;
  std::string_view text = key.AsString();
  if (text.size() <= file.size() + 1 || !text.starts_with(file) ||
      text[file.size()] != '_') {
    return std::nullopt;
  }
  text.remove_prefix(file.size() + 1);
  uint64_t ordinal = 0;
  auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(),
                                   ordinal);
  if (ec != std::errc() || ptr != text.data() + text.size()) {
    return std::nullopt;
  }
  return ordinal;
}

}  // namespace mlds::abdm
