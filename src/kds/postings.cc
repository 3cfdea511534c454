#include "kds/postings.h"

#include <algorithm>
#include <cassert>

namespace mlds::kds {

std::vector<RecordId>::iterator Postings::Seek(RecordId id) {
  return std::lower_bound(
      run_.begin(), run_.end(), id,
      [](RecordId entry, RecordId v) { return (entry & ~kRemoved) < v; });
}

Postings::Edits& Postings::edits() {
  if (edits_ == nullptr) edits_ = std::make_unique<Edits>();
  return *edits_;
}

void Postings::Add(RecordId id) {
  assert((id & kRemoved) == 0);
  if (run_.empty() || id > (run_.back() & ~kRemoved)) {
    run_.push_back(id);
    return;
  }
  // An id removed from this bucket and added back reclaims its entry.
  auto it = Seek(id);
  if (it != run_.end() && (*it & ~kRemoved) == id) {
    assert((*it & kRemoved) != 0);
    *it = id;
    --edits().removed;
    return;
  }
  edits().pending.push_back(id);
}

void Postings::Remove(RecordId id) {
  auto it = Seek(id);
  if (it != run_.end() && *it == id) {
    *it |= kRemoved;
    ++edits().removed;
    return;
  }
  std::vector<RecordId>& pending = edits().pending;
  auto p = std::find(pending.begin(), pending.end(), id);
  assert(p != pending.end());
  if (p != pending.end()) pending.erase(p);
}

void Postings::Settle() {
  if (edits_ == nullptr) return;
  std::vector<RecordId>& pending = edits_->pending;
  if (edits_->removed * 2 > run_.size() ||
      pending.size() * pending.size() > 4 * run_.size()) {
    Merge();
    return;
  }
  if (edits_->removed == 0 && pending.empty()) {
    edits_.reset();
    return;
  }
  // The ids added since the last Settle follow the sorted ones.
  const auto added = std::is_sorted_until(pending.begin(), pending.end());
  if (added != pending.end()) {
    std::sort(added, pending.end());
    std::inplace_merge(pending.begin(), added, pending.end());
  }
}

void Postings::Merge() {
  std::vector<RecordId>& pending = edits_->pending;
  std::sort(pending.begin(), pending.end());
  std::vector<RecordId> merged;
  merged.reserve(size());
  auto p = pending.begin();
  for (RecordId entry : run_) {
    if ((entry & kRemoved) != 0) continue;
    while (p != pending.end() && *p < entry) merged.push_back(*p++);
    merged.push_back(entry);
  }
  merged.insert(merged.end(), p, pending.end());
  run_ = std::move(merged);
  edits_.reset();
}

void Postings::AppendTo(std::vector<RecordId>* out) const {
  if (edits_ == nullptr) {
    out->insert(out->end(), run_.begin(), run_.end());
    return;
  }
  const std::vector<RecordId>& pending = edits_->pending;
  assert(std::is_sorted(pending.begin(), pending.end()));
  out->reserve(out->size() + size());
  const auto first = static_cast<std::ptrdiff_t>(out->size());
  for (RecordId entry : run_) {
    if ((entry & kRemoved) == 0) out->push_back(entry);
  }
  const auto middle = static_cast<std::ptrdiff_t>(out->size());
  out->insert(out->end(), pending.begin(), pending.end());
  std::inplace_merge(out->begin() + first, out->begin() + middle, out->end());
}

std::vector<RecordId> Postings::ids() const {
  std::vector<RecordId> out;
  AppendTo(&out);
  return out;
}

bool Postings::Contains(RecordId id) const {
  const auto it = std::lower_bound(
      run_.begin(), run_.end(), id,
      [](RecordId entry, RecordId v) { return (entry & ~kRemoved) < v; });
  if (it != run_.end() && *it == id) return true;
  return edits_ != nullptr && std::binary_search(edits_->pending.begin(),
                                                 edits_->pending.end(), id);
}

}  // namespace mlds::kds
