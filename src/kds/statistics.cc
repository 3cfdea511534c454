#include "kds/statistics.h"

#include <algorithm>
#include <sstream>

namespace mlds::kds {

namespace {

constexpr size_t kNpos = size_t(-1);

std::string HexEncode(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 0xf]);
  }
  return out;
}

Result<std::string> HexDecode(std::string_view hex) {
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    return -1;
  };
  if (hex.size() % 2 != 0) {
    return Status::ParseError("histogram: odd-length hex literal");
  }
  std::string out;
  out.reserve(hex.size() / 2);
  for (size_t i = 0; i < hex.size(); i += 2) {
    int hi = nibble(hex[i]);
    int lo = nibble(hex[i + 1]);
    if (hi < 0 || lo < 0) {
      return Status::ParseError("histogram: bad hex literal");
    }
    out.push_back(char((hi << 4) | lo));
  }
  return out;
}

}  // namespace

size_t AttributeHistogram::BucketFor(const abdm::Value& v) const {
  if (buckets_.empty()) return kNpos;
  if (v < lower_) return kNpos;
  auto it = std::lower_bound(
      buckets_.begin(), buckets_.end(), v,
      [](const Bucket& b, const abdm::Value& value) { return b.upper < value; });
  if (it == buckets_.end()) return kNpos;
  return size_t(it - buckets_.begin());
}

void AttributeHistogram::Add(const abdm::Value& v) {
  ++drift_;
  ++total_;
  if (buckets_.empty()) {
    lower_ = v;
    buckets_.push_back(Bucket{v, 1, 1});
    depth_ = std::max<uint64_t>(depth_, 1);
    distinct_ = std::max<uint64_t>(distinct_, 1);
    return;
  }
  if (v < lower_) {
    lower_ = v;
    ++buckets_.front().rows;
    return;
  }
  size_t idx = BucketFor(v);
  if (idx == kNpos) {
    // Beyond the last boundary: stretch the last bucket to cover it.
    buckets_.back().upper = v;
    ++buckets_.back().rows;
    return;
  }
  ++buckets_[idx].rows;
}

void AttributeHistogram::Remove(const abdm::Value& v) {
  ++drift_;
  if (total_ > 0) --total_;
  size_t idx = BucketFor(v);
  if (idx != kNpos && buckets_[idx].rows > 0) --buckets_[idx].rows;
}

uint64_t AttributeHistogram::Below(const abdm::Value& v) const {
  // Whole buckets under the boundary plus half of the bucket containing
  // it (intra-bucket distribution unknown).
  if (v < lower_) return 0;
  const size_t idx = BucketFor(v);
  if (idx == kNpos) return total_;
  uint64_t below = 0;
  for (size_t k = 0; k < idx; ++k) below += buckets_[k].rows;
  const uint64_t boundary = buckets_[idx].rows;
  return below + std::max<uint64_t>(boundary / 2, boundary > 0 ? 1 : 0);
}

uint64_t AttributeHistogram::Estimate(
    const abdm::KeyInterval& interval) const {
  if (buckets_.empty() || total_ == 0) return 0;
  if (interval.IsPoint()) {
    const size_t idx = BucketFor(interval.lower->value);
    if (idx == kNpos) return 0;
    const Bucket& b = buckets_[idx];
    if (b.rows == 0) return 0;
    return std::max<uint64_t>(1, b.rows / std::max<uint64_t>(1, b.distinct));
  }
  const uint64_t hi =
      interval.upper != nullptr ? Below(interval.upper->value) : total_;
  const uint64_t lo =
      interval.lower != nullptr ? Below(interval.lower->value) : 0;
  return hi > lo ? hi - lo : 0;
}

bool AttributeHistogram::WithinOneBucket(
    const abdm::KeyInterval& interval) const {
  if (interval.lower == nullptr || interval.upper == nullptr) return false;
  // 0: below the lowest value; k + 1: inside bucket k; size + 1: beyond
  // the last boundary.
  auto position = [this](const abdm::Value& v) -> size_t {
    if (v < lower_) return 0;
    const size_t idx = BucketFor(v);
    return idx == kNpos ? buckets_.size() + 1 : idx + 1;
  };
  return position(interval.lower->value) == position(interval.upper->value);
}

std::string AttributeHistogram::Encode() const {
  std::string out;
  out += std::to_string(total_);
  out += ' ';
  out += std::to_string(distinct_);
  out += ' ';
  out += std::to_string(built_rows_);
  out += ' ';
  out += std::to_string(depth_);
  out += ' ';
  out += std::to_string(drift_);
  out += ' ';
  out += HexEncode(lower_.ToString());
  out += ' ';
  out += std::to_string(buckets_.size());
  for (const Bucket& b : buckets_) {
    out += ' ';
    out += HexEncode(b.upper.ToString());
    out += ' ';
    out += std::to_string(b.rows);
    out += ' ';
    out += std::to_string(b.distinct);
  }
  return out;
}

Result<AttributeHistogram> AttributeHistogram::Decode(std::string_view text) {
  std::istringstream in{std::string(text)};
  AttributeHistogram h;
  size_t buckets = 0;
  std::string lower_hex;
  if (!(in >> h.total_ >> h.distinct_ >> h.built_rows_ >> h.depth_ >>
        h.drift_ >> lower_hex >> buckets)) {
    return Status::ParseError("histogram: truncated header");
  }
  MLDS_ASSIGN_OR_RETURN(std::string lower_text, HexDecode(lower_hex));
  h.lower_ = abdm::Value::Parse(lower_text);
  h.buckets_.reserve(buckets);
  for (size_t i = 0; i < buckets; ++i) {
    std::string upper_hex;
    Bucket b;
    if (!(in >> upper_hex >> b.rows >> b.distinct)) {
      return Status::ParseError("histogram: truncated bucket list");
    }
    MLDS_ASSIGN_OR_RETURN(std::string upper_text, HexDecode(upper_hex));
    b.upper = abdm::Value::Parse(upper_text);
    h.buckets_.push_back(std::move(b));
  }
  return h;
}

}  // namespace mlds::kds
