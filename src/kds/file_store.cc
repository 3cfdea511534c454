#include "kds/file_store.h"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <cstring>
#include <iterator>
#include <limits>
#include <sstream>
#include <utility>

#include "common/strings.h"
#include "kds/planner.h"
#include "kds/wal.h"

namespace mlds::kds {

namespace {

/// Continuation pages of an overflow chain are not slotted; they carry
/// this impossible slot count as their first header field.
constexpr uint16_t kContinuationMarker = 0xffff;

/// Set on the stored rid of an overflow head entry.
constexpr uint64_t kOverflowRidBit = 1ull << 63;

void PutU32(char* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out[i] = char((v >> (8 * i)) & 0xff);
}

uint32_t GetU32(const char* in) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= uint32_t(uint8_t(in[i])) << (8 * i);
  return v;
}

void AppendU32(std::string& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(char((v >> (8 * i)) & 0xff));
}

bool IsContinuationPage(const char* page) {
  return uint8_t(page[0]) == 0xff && uint8_t(page[1]) == 0xff;
}

}  // namespace

FileStore::FileStore(abdm::FileDescriptor descriptor, int block_capacity,
                     BufferPool* pool, std::unique_ptr<PageFile> file)
    : descriptor_(std::move(descriptor)),
      block_capacity_(block_capacity > 0 ? block_capacity : 1) {
  if (pool != nullptr) {
    pool_ = pool;
  } else {
    owned_pool_ = std::make_unique<BufferPool>(
        0, file != nullptr ? file->page_bytes() : kDefaultPageBytes);
    pool_ = owned_pool_.get();
  }
  file_ = file != nullptr ? std::move(file)
                          : std::make_unique<PageFile>(pool_->page_bytes());
  pages_ = file_->page_count();
  for (const auto& attr : descriptor_.attributes) {
    if (!attr.directory && attr.indexed) secondary_.insert(attr.name);
  }
  if (file_->on_disk() && file_->meta().empty()) {
    (void)file_->SetMeta(EncodeMeta());
  }
}

FileStore::~FileStore() {
  if (fill_frame_ != nullptr) {
    pool_->Unpin(fill_frame_, nullptr);
    fill_frame_ = nullptr;
  }
  (void)pool_->Flush(file_.get(), nullptr);
  pool_->Drop(file_.get());
}

bool FileStore::IsDirectoryAttribute(std::string_view attr) const {
  const abdm::AttributeDescriptor* d = descriptor_.FindAttribute(attr);
  // Attributes not declared in the descriptor (e.g. set-membership
  // attributes added by a transformation that chose not to list them) are
  // still indexed: the kernel directory clusters by every keyword it sees.
  if (d == nullptr) return true;
  return d->directory;
}

bool FileStore::IsIndexedAttribute(std::string_view attr) const {
  return IsDirectoryAttribute(attr) || secondary_.count(attr) > 0;
}

bool FileStore::IsSecondaryIndex(std::string_view attr) const {
  return !IsDirectoryAttribute(attr) && secondary_.count(attr) > 0;
}

double FileStore::cached_fraction() const {
  if (pages_ == 0) return 0.0;
  double f = double(pool_->ResidentCached(file_.get())) / double(pages_);
  return f > 1.0 ? 1.0 : f;
}

void FileStore::IndexInsert(RecordId id, const abdm::Record& record) {
  for (size_t i = 0; i < record.size(); ++i) {
    const std::string& attr = record.attribute(i);
    if (!IsIndexedAttribute(attr)) continue;
    index_[attr][record.value(i)].Add(id);
    MaintainHistogram(attr, record.value(i), /*insert=*/true);
  }
}

void FileStore::StageIndexEdits(RecordId id, const abdm::Record& record,
                                bool insert, DirectoryEdits* edits) {
  for (size_t i = 0; i < record.size(); ++i) {
    const std::string& attr = record.attribute(i);
    ValueBuckets* values = nullptr;
    ValueBuckets::iterator bucket;
    if (insert) {
      if (!IsIndexedAttribute(attr)) continue;
      values = &index_[attr];
      // An empty bucket made here is filled when the edits are applied.
      bucket = values->try_emplace(record.value(i)).first;
    } else {
      auto attr_it = index_.find(attr);
      if (attr_it == index_.end()) continue;
      values = &attr_it->second;
      bucket = values->find(record.value(i));
      if (bucket == values->end()) continue;
    }
    edits->edits.push_back({values, bucket, insert, id});
    MaintainHistogram(attr, record.value(i), insert, &edits->rebuild);
  }
}

void FileStore::ApplyIndexEdits(DirectoryEdits* edits) {
  std::vector<DirectoryEdits::Edit>& all = edits->edits;
  // Removals first, so a removal that has to scan a bucket's pending ids
  // scans only the few the last Settle left, not this statement's adds.
  for (const DirectoryEdits::Edit& e : all) {
    if (!e.insert) e.bucket->second.Remove(e.id);
  }
  for (const DirectoryEdits::Edit& e : all) {
    if (e.insert) e.bucket->second.Add(e.id);
  }
  std::sort(all.begin(), all.end(),
            [](const DirectoryEdits::Edit& a, const DirectoryEdits::Edit& b) {
              return std::less<const Postings*>()(&a.bucket->second,
                                                  &b.bucket->second);
            });
  for (size_t first = 0; first < all.size();) {
    const ValueBuckets::iterator bucket = all[first].bucket;
    size_t last = first;
    while (last < all.size() && all[last].bucket == bucket) ++last;
    if (bucket->second.empty()) {
      all[first].values->erase(bucket);
    } else {
      bucket->second.Settle();
    }
    first = last;
  }
  all.clear();
  for (const std::string& attr : edits->rebuild) RebuildHistogram(attr);
  edits->rebuild.clear();
}

void FileStore::MaintainHistogram(const std::string& attr,
                                  const abdm::Value& value, bool insert,
                                  std::vector<std::string>* deferred) {
  if (loading_) return;
  AttributeHistogram* h = stats_.Find(attr);
  if (h != nullptr && !h->Stale()) {
    if (insert) {
      h->Add(value);
    } else {
      h->Remove(value);
    }
    return;
  }
  if (deferred == nullptr) {
    RebuildHistogram(attr);
  } else if (std::find(deferred->begin(), deferred->end(), attr) ==
             deferred->end()) {
    deferred->push_back(attr);
  }
}

void FileStore::RebuildHistogram(std::string_view attr) {
  auto it = index_.find(attr);
  if (it == index_.end()) return;
  stats_.Install(std::string(attr),
                 AttributeHistogram::BuildRun(
                     it->second, [](const ValueBuckets::value_type& bucket) {
                       return uint64_t(bucket.second.size());
                     }));
}

void FileStore::RebuildAllHistograms() {
  for (const auto& [attr, buckets] : index_) {
    (void)buckets;
    RebuildHistogram(attr);
  }
}

Status FileStore::CommitFrame(BufferPool::Frame* frame, IoStats* io) {
  if (pool_->capacity() == 0) {
    // Write-through: the page reaches the file immediately, so every
    // mutation costs exactly one block write — the same accounting the
    // pre-paged store charged.
    return pool_->WriteThrough(frame, io);
  }
  pool_->MarkDirty(frame);
  return Status::OK();
}

void FileStore::SealFillPage(IoStats* io) {
  if (fill_frame_ == nullptr) return;
  pool_->Unpin(fill_frame_, io);
  fill_frame_ = nullptr;
  fill_count_ = 0;
}

void FileStore::EnsureFillPage(size_t payload_size, IoStats* io) {
  const size_t pb = file_->page_bytes();
  if (fill_frame_ != nullptr) {
    PageView view(fill_frame_->data.data(), pb);
    if (fill_count_ >= block_capacity_ || !view.Fits(payload_size)) {
      SealFillPage(io);
    }
  }
  if (fill_frame_ == nullptr) {
    fill_page_ = uint32_t(pages_);
    fill_frame_ = pool_->Create(file_.get(), pages_);
    PageView(fill_frame_->data.data(), pb).Init();
    ++pages_;
    fill_count_ = 0;
  }
}

Result<FileStore::Addr> FileStore::AppendOverflow(RecordId id,
                                                  const std::string& payload,
                                                  IoStats* io) {
  const size_t pb = file_->page_bytes();
  const size_t head_cap = PageView::MaxPayload(pb) - 8;
  const size_t cont_cap = pb - 8;
  SealFillPage(io);

  const uint32_t head_page = uint32_t(pages_);
  const uint32_t cont_first = head_page + 1;
  BufferPool::Frame* head = pool_->Create(file_.get(), head_page);
  PageView view(head->data.data(), pb);
  view.Init();
  std::string head_payload;
  head_payload.reserve(8 + head_cap);
  AppendU32(head_payload, uint32_t(payload.size()));
  AppendU32(head_payload, cont_first);
  head_payload.append(payload, 0, head_cap);
  view.Append(id | kOverflowRidBit, head_payload);
  ++pages_;
  Status committed = CommitFrame(head, io);
  pool_->Unpin(head, io);
  MLDS_RETURN_IF_ERROR(committed);

  size_t off = head_cap;
  uint32_t page = cont_first;
  while (off < payload.size()) {
    BufferPool::Frame* cont = pool_->Create(file_.get(), page);
    char* d = cont->data.data();
    d[0] = char(0xff);
    d[1] = char(0xff);
    d[2] = 0;
    d[3] = 0;
    const size_t n = std::min(cont_cap, payload.size() - off);
    PutU32(d + 4, uint32_t(n));
    std::memcpy(d + 8, payload.data() + off, n);
    ++pages_;
    committed = CommitFrame(cont, io);
    pool_->Unpin(cont, io);
    MLDS_RETURN_IF_ERROR(committed);
    off += n;
    ++page;
  }
  return Addr{head_page, 0};
}

Result<FileStore::Addr> FileStore::AppendPayload(RecordId id,
                                                 const std::string& payload,
                                                 IoStats* io) {
  if (payload.size() > PageView::MaxPayload(file_->page_bytes())) {
    return AppendOverflow(id, payload, io);
  }
  EnsureFillPage(payload.size(), io);
  PageView view(fill_frame_->data.data(), file_->page_bytes());
  int slot = view.Append(id, payload);
  assert(slot >= 0);
  ++fill_count_;
  MLDS_RETURN_IF_ERROR(CommitFrame(fill_frame_, io));
  return Addr{fill_page_, uint16_t(slot)};
}

Result<RecordId> FileStore::Insert(abdm::Record record, IoStats* io) {
  const RecordId id = dir_.size();
  std::string payload;
  abdm::SerializeRecord(record, payload);
  // Append first: on a failed page write the directory and index stay
  // untouched, and the partial pages are dead space until compaction.
  MLDS_ASSIGN_OR_RETURN(const Addr addr, AppendPayload(id, payload, io));
  IndexInsert(id, record);
  layouts_.Intern(record);
  keys_.Note(name(), record);
  dir_.push_back(addr);
  ++live_count_;
  if (io != nullptr) io->index_probes += 1;
  return id;
}

Result<bool> FileStore::Holds(const std::vector<std::string>& attributes,
                              const Combination& combination,
                              IoStats* io) const {
  // One directory bucket per value; the smallest drives, and each of its
  // ids must sit in every other bucket. Bucket order is value order, so a
  // bucket holds exactly the records its equality matches.
  std::vector<const Postings*> buckets;
  buckets.reserve(attributes.size());
  for (size_t i = 0; i < attributes.size(); ++i) {
    const abdm::Value* value = combination.values[i];
    if (value == nullptr) continue;
    auto attr_it = index_.find(attributes[i]);
    if (attr_it == index_.end()) {
      if (IsIndexedAttribute(attributes[i])) return false;  // no keyword yet
      // An unindexed attribute: the planner's path decides.
      std::vector<abdm::Predicate> preds = {abdm::FilePred(name())};
      for (size_t k = 0; k < attributes.size(); ++k) {
        if (combination.values[k] == nullptr) continue;
        preds.push_back(abdm::Predicate{attributes[k], abdm::RelOp::kEq,
                                        *combination.values[k]});
      }
      MLDS_ASSIGN_OR_RETURN(std::vector<RecordId> ids,
                            Select(abdm::Query::And(std::move(preds)), io));
      return !ids.empty();
    }
    if (io != nullptr) io->index_probes += 1;
    auto bucket = attr_it->second.find(*value);
    if (bucket == attr_it->second.end() || bucket->second.empty()) {
      return false;
    }
    buckets.push_back(&bucket->second);
  }
  if (buckets.empty()) return false;
  std::sort(buckets.begin(), buckets.end(),
            [](const Postings* a, const Postings* b) {
              return a->size() < b->size();
            });
  for (RecordId id : buckets.front()->ids()) {
    if (std::all_of(buckets.begin() + 1, buckets.end(),
                    [id](const Postings* p) { return p->Contains(id); })) {
      return true;
    }
  }
  return false;
}

Result<abdm::Record> FileStore::DecodeEntry(const PageView::Entry& entry,
                                            abdm::RecordDecoder& decoder,
                                            IoStats* io,
                                            uint64_t* chain_pages) const {
  auto corrupt = [this](const char* what) {
    return Status::Corruption(std::string("file_store: ") + what + " in '" +
                              name() + "'");
  };
  if ((entry.rid & kOverflowRidBit) == 0) {
    auto rec = decoder.Decode(entry.payload);
    if (!rec.has_value()) return corrupt("undecodable record");
    return std::move(*rec);
  }
  if (entry.payload.size() < 8) return corrupt("truncated overflow head");
  const size_t pb = file_->page_bytes();
  const uint32_t total = GetU32(entry.payload.data());
  uint32_t cont = GetU32(entry.payload.data() + 4);
  std::string data(entry.payload.substr(8));
  data.reserve(total);
  while (data.size() < total) {
    auto frame = pool_->Fetch(file_.get(), cont, io);
    if (!frame.ok()) return frame.status();
    const char* d = (*frame)->data.data();
    size_t n = 0;
    if (IsContinuationPage(d)) {
      n = GetU32(d + 4);
      if (n > pb - 8) n = 0;
      data.append(d + 8, n);
    }
    pool_->Unpin(*frame, io);
    if (chain_pages != nullptr) ++*chain_pages;
    if (n == 0) return corrupt("broken overflow chain");
    ++cont;
  }
  if (data.size() != total) return corrupt("overlong overflow chain");
  auto rec = decoder.Decode(data);
  if (!rec.has_value()) return corrupt("undecodable overflow record");
  return std::move(*rec);
}

std::pair<FileStore::ValueBuckets::const_iterator,
          FileStore::ValueBuckets::const_iterator>
FileStore::BucketRun(const ValueBuckets& buckets,
                     const abdm::KeyInterval& interval) {
  if (interval.IsPoint()) {
    auto it = buckets.find(interval.lower->value);
    return {it, it == buckets.end() ? it : std::next(it)};
  }
  if (interval.IsEmpty()) return {buckets.end(), buckets.end()};
  // The directory is an ordered map, so an interval is one lower-bound
  // seek plus iteration up to the upper bound — buckets outside it are
  // never visited. Null keywords sort first and match no ordering
  // predicate, so an interval open below starts past them.
  const abdm::Predicate* lower = interval.lower;
  const abdm::Predicate* upper = interval.upper;
  ValueBuckets::const_iterator first, last = buckets.end();
  if (lower == nullptr) {
    first = buckets.upper_bound(abdm::Value::Null());
  } else if (abdm::KeyInterval::Includes(*lower)) {
    first = buckets.lower_bound(lower->value);
  } else {
    first = buckets.upper_bound(lower->value);
  }
  if (upper != nullptr) {
    last = abdm::KeyInterval::Includes(*upper)
               ? buckets.upper_bound(upper->value)
               : buckets.lower_bound(upper->value);
  }
  return {first, last};
}

std::vector<RecordId> FileStore::IndexLookup(const abdm::KeyInterval& interval,
                                             IoStats* io) const {
  if (io != nullptr) io->index_probes += 1;
  auto attr_it = index_.find(interval.attribute());
  // Attribute never seen: the directory alone proves nothing matches.
  if (attr_it == index_.end()) return {};
  const auto [first, last] = BucketRun(attr_it->second, interval);
  std::vector<RecordId> out;
  for (auto it = first; it != last; ++it) it->second.AppendTo(&out);
  // One bucket is already in id order; a run of several interleaves.
  if (first != last && std::next(first) != last) {
    std::sort(out.begin(), out.end());
  }
  return out;
}

std::vector<RecordId> FileStore::LeafLookup(const PlanNode& leaf,
                                            const KeyFold* fold,
                                            IoStats* io) const {
  if (leaf.kind != PlanNodeKind::kIndexKeys) {
    return IndexLookup(abdm::KeyInterval::Fold(leaf.predicates), io);
  }
  std::vector<RecordId> out;
  auto attr_it = index_.find(fold->keys.front()->attribute);
  for (const abdm::Predicate* key : fold->keys) {
    if (io != nullptr) io->index_probes += 1;
    if (attr_it == index_.end()) continue;
    const auto [first, last] = BucketRun(attr_it->second, {key, key});
    for (auto it = first; it != last; ++it) it->second.AppendTo(&out);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::optional<size_t> FileStore::EstimateMatches(
    const abdm::KeyInterval& interval) const {
  if (!IsIndexedAttribute(interval.attribute())) return std::nullopt;
  auto attr_it = index_.find(interval.attribute());
  if (attr_it == index_.end()) return 0;
  const auto [first, last] = BucketRun(attr_it->second, interval);
  size_t total = 0;
  for (auto it = first; it != last; ++it) total += it->second.size();
  return total;
}

std::optional<abdm::CardinalityEstimate> FileStore::EstimateWithSource(
    const abdm::KeyInterval& interval) const {
  if (!IsIndexedAttribute(interval.attribute())) return std::nullopt;
  // A fresh histogram answers a range in O(log buckets) instead of
  // walking every matching value bucket. Points, contradictory intervals
  // and intervals inside one histogram bucket count the directory
  // exactly; the last walk covers at most one bucket's values. Stale
  // histograms are skipped — the next mutation rebuilds them.
  if (!interval.IsPoint() && !interval.IsEmpty()) {
    const AttributeHistogram* h = stats_.Find(interval.attribute());
    if (h != nullptr && !h->Stale() && !h->WithinOneBucket(interval)) {
      return abdm::CardinalityEstimate{size_t(h->Estimate(interval)),
                                       abdm::EstimateSource::kHistogram};
    }
  }
  return abdm::CardinalityEstimate{*EstimateMatches(interval),
                                   abdm::EstimateSource::kDirectory};
}

std::optional<size_t> FileStore::DistinctValues(std::string_view attr) const {
  auto it = index_.find(attr);
  if (it != index_.end()) return it->second.size();
  const AttributeHistogram* h = stats_.Find(attr);
  if (h != nullptr && h->distinct_values() > 0) return h->distinct_values();
  return std::nullopt;
}

Status FileStore::ExecuteConjunction(const abdm::Conjunction& conj,
                                     const KeyFold* fold, PlanNode* node,
                                     std::vector<Row>* out,
                                     IoStats* io) const {
  // Materialize the candidate set the plan prescribes; nullopt means the
  // plan is a full scan. Access-path choice happened at plan time (see
  // PlanConjunction): the cheapest directory estimate drives the fetch,
  // so a tight range beats a broad equality like FILE = f, and further
  // candidate sets are intersected cheapest-bucket-first while they stay
  // small relative to the survivors.
  node->executed = true;
  std::optional<std::vector<RecordId>> best;
  switch (node->kind) {
    case PlanNodeKind::kFullScan:
      break;
    case PlanNodeKind::kIntersect: {
      PlanNode& driver = node->children.front();
      best = LeafLookup(driver, fold, io);
      driver.executed = true;
      driver.actual_rows = best->size();
      const double f = cached_fraction();
      for (size_t k = 1; k < node->children.size() && !best->empty(); ++k) {
        PlanNode& child = node->children[k];
        // The planner kept this child against the driver's estimate; the
        // survivor set may have shrunk below that since, so re-apply the
        // rule dynamically. The first skipped child ends the intersection
        // (children are cost-ordered — later ones are no cheaper).
        if (!WorthIntersecting(child.est_rows, best->size(), f)) break;
        const std::vector<RecordId> next = LeafLookup(child, fold, io);
        child.executed = true;
        child.actual_rows = next.size();
        std::vector<RecordId> intersection;
        intersection.reserve(std::min(best->size(), next.size()));
        std::set_intersection(best->begin(), best->end(), next.begin(),
                              next.end(), std::back_inserter(intersection));
        *best = std::move(intersection);
      }
      break;
    }
    default:
      // A lone index node — including one whose zero estimate proved the
      // conjunction empty: probing it costs the same single directory
      // lookup the planner's estimate did.
      best = LeafLookup(*node, fold, io);
      break;
  }

  const size_t pb = file_->page_bytes();
  abdm::RecordDecoder decoder(&layouts_);
  // Logical pages touched: each candidate group's page once, plus the
  // overflow continuation pages its records chain to (a full scan counts
  // every allocated page instead).
  uint64_t blocks_touched = 0;
  uint64_t* chain_pages = best.has_value() ? &blocks_touched : nullptr;
  uint64_t matched = 0;
  auto examine = [&](RecordId id, const PageView::Entry& e) -> Status {
    if (io != nullptr) io->records_examined += 1;
    MLDS_ASSIGN_OR_RETURN(abdm::Record rec,
                          DecodeEntry(e, decoder, io, chain_pages));
    if (fold != nullptr ? fold->Matches(conj, rec) : conj.Matches(rec)) {
      out->emplace_back(id, std::move(rec));
      ++matched;
    }
    return Status::OK();
  };

  if (best.has_value()) {
    // Fetch each distinct page once: candidates are grouped by page so a
    // write-through pool charges exactly the logical block count. The ids
    // arrive sorted, so ordering by (page, id) keeps id order per page.
    struct Candidate {
      uint32_t page;
      uint16_t slot;
      RecordId id;
    };
    std::vector<Candidate> candidates;
    candidates.reserve(best->size());
    for (RecordId id : *best) {
      if (id >= dir_.size() || !dir_[id].has_value()) continue;
      candidates.push_back({dir_[id]->page, dir_[id]->slot, id});
    }
    auto page_order = [](const Candidate& a, const Candidate& b) {
      return a.page != b.page ? a.page < b.page : a.id < b.id;
    };
    if (!std::is_sorted(candidates.begin(), candidates.end(), page_order)) {
      std::sort(candidates.begin(), candidates.end(), page_order);
    }
    out->reserve(out->size() + candidates.size());
    for (size_t next = 0; next < candidates.size();) {
      const uint32_t page = candidates[next].page;
      auto frame = pool_->Fetch(file_.get(), page, io);
      if (!frame.ok()) return frame.status();
      ++blocks_touched;
      PageView view((*frame)->data.data(), pb);
      Status examined;
      for (; next < candidates.size() && candidates[next].page == page;
           ++next) {
        auto entry = view.Read(candidates[next].slot);
        if (entry.has_value()) examined = examine(candidates[next].id, *entry);
        if (!examined.ok()) break;
      }
      pool_->Unpin(*frame, io);
      MLDS_RETURN_IF_ERROR(examined);
    }
  } else {
    for (uint64_t page = 0; page < pages_; ++page) {
      auto frame = pool_->Fetch(file_.get(), page, io);
      if (!frame.ok()) return frame.status();
      PageView view((*frame)->data.data(), pb);
      Status examined;
      if (!IsContinuationPage((*frame)->data.data())) {
        for (uint16_t s = 0; s < view.slot_count(); ++s) {
          auto entry = view.Read(s);
          if (!entry.has_value()) continue;
          examined = examine(entry->rid & ~kOverflowRidBit, *entry);
          if (!examined.ok()) break;
        }
      }
      pool_->Unpin(*frame, io);
      MLDS_RETURN_IF_ERROR(examined);
    }
    // A full scan touches every allocated block even if records are dead.
    blocks_touched = pages_;
  }
  node->actual_rows = matched;
  node->actual_blocks = blocks_touched;
  return Status::OK();
}

PlanNode FileStore::Plan(const abdm::Query& query) const {
  return PlanQuery(query, *this, name());
}

Result<std::vector<std::pair<RecordId, abdm::Record>>> FileStore::Execute(
    const abdm::Query& query, PlanNode* plan, IoStats* io) const {
  std::vector<Row> matched;
  const auto& disjuncts = query.disjuncts();
  // A lone child under several disjuncts is a folded key set (PlanQuery).
  std::optional<KeyFold> fold;
  if (disjuncts.size() > 1 && plan->children.size() == 1) {
    fold = FoldKeys(query, *this);
    if (!fold.has_value()) {
      return Status::Internal("file_store: plan of '" + name() +
                              "' does not match its query");
    }
  }
  const size_t n =
      fold.has_value() ? 1 : std::min(disjuncts.size(), plan->children.size());
  for (size_t i = 0; i < n; ++i) {
    MLDS_RETURN_IF_ERROR(ExecuteConjunction(
        disjuncts[i], fold.has_value() ? &*fold : nullptr, &plan->children[i],
        &matched, io));
  }
  // Candidates arrive in page order and a record several disjuncts match
  // arrives once per disjunct; the result is each id once, in id order.
  auto by_id = [](const Row& a, const Row& b) { return a.first < b.first; };
  if (!std::is_sorted(matched.begin(), matched.end(), by_id)) {
    std::sort(matched.begin(), matched.end(), by_id);
  }
  if (n > 1) {
    matched.erase(std::unique(matched.begin(), matched.end(),
                              [](const Row& a, const Row& b) {
                                return a.first == b.first;
                              }),
                  matched.end());
  }
  plan->executed = true;
  plan->actual_rows = matched.size();
  plan->actual_blocks = plan->SumChildren(&PlanNode::actual_blocks);
  return matched;
}

Result<std::vector<RecordId>> FileStore::Select(const abdm::Query& query,
                                                IoStats* io,
                                                PlanNode* plan_out) const {
  MLDS_ASSIGN_OR_RETURN(auto records, SelectRecords(query, io, plan_out));
  std::vector<RecordId> ids;
  ids.reserve(records.size());
  for (auto& [id, rec] : records) ids.push_back(id);
  return ids;
}

Result<std::vector<std::pair<RecordId, abdm::Record>>> FileStore::SelectRecords(
    const abdm::Query& query, IoStats* io, PlanNode* plan_out) const {
  PlanNode local;
  PlanNode* plan = plan_out != nullptr ? plan_out : &local;
  *plan = Plan(query);
  return Execute(query, plan, io);
}

Result<size_t> FileStore::Delete(const abdm::Query& query, IoStats* io,
                                 PlanNode* plan_out) {
  PlanNode local;
  PlanNode* plan = plan_out != nullptr ? plan_out : &local;
  *plan = Plan(query);
  MLDS_ASSIGN_OR_RETURN(auto victims, Execute(query, plan, io));
  std::map<uint32_t, std::vector<uint16_t>> by_page;
  DirectoryEdits edits;
  for (auto& [id, rec] : victims) {
    StageIndexEdits(id, rec, /*insert=*/false, &edits);
    by_page[dir_[id]->page].push_back(dir_[id]->slot);
    dir_[id].reset();
    --live_count_;
  }
  ApplyIndexEdits(&edits);
  for (auto& [page, slots] : by_page) {
    // The selection above just read these pages; the re-fetch is
    // bookkeeping, so only the write-back is charged (one per block, as
    // the slot-store charged before paging). A failure here leaves the
    // on-page slots behind the in-memory directory — the error reaches
    // the caller, and WAL replay restores consistency after a restart.
    auto frame = pool_->Fetch(file_.get(), page, nullptr);
    if (!frame.ok()) return frame.status();
    PageView view((*frame)->data.data(), file_->page_bytes());
    for (uint16_t slot : slots) view.Erase(slot);
    Status committed = CommitFrame(*frame, io);
    pool_->Unpin(*frame, nullptr);
    MLDS_RETURN_IF_ERROR(committed);
  }
  return victims.size();
}

Status FileStore::CollectAll(std::map<RecordId, abdm::Record>* out) const {
  const size_t pb = file_->page_bytes();
  abdm::RecordDecoder decoder(&layouts_);
  for (uint64_t page = 0; page < pages_; ++page) {
    auto frame = pool_->Fetch(file_.get(), page, nullptr);
    if (!frame.ok()) return frame.status();
    Status decoded;
    if (!IsContinuationPage((*frame)->data.data())) {
      PageView view((*frame)->data.data(), pb);
      for (uint16_t s = 0; s < view.slot_count(); ++s) {
        auto entry = view.Read(s);
        if (!entry.has_value()) continue;
        auto rec = DecodeEntry(*entry, decoder, nullptr, nullptr);
        if (!rec.ok()) {
          decoded = rec.status();
          break;
        }
        out->emplace(entry->rid & ~kOverflowRidBit, std::move(*rec));
      }
    }
    pool_->Unpin(*frame, nullptr);
    MLDS_RETURN_IF_ERROR(decoded);
  }
  return Status::OK();
}

Status FileStore::ForEach(
    const std::function<void(RecordId, const abdm::Record&)>& fn,
    IoStats* io) const {
  if (io != nullptr) {
    io->blocks_read += block_count();
    io->records_examined += live_count_;
  }
  std::map<RecordId, abdm::Record> all;
  MLDS_RETURN_IF_ERROR(CollectAll(&all));
  for (const auto& [id, rec] : all) fn(id, rec);
  return Status::OK();
}

Result<uint64_t> FileStore::Compact(IoStats* io) {
  const uint64_t before = block_count();
  std::map<RecordId, abdm::Record> all;
  // A read failure aborts before the truncate below, so a corrupt page
  // can never turn compaction into data loss.
  MLDS_RETURN_IF_ERROR(CollectAll(&all));
  SealFillPage(nullptr);
  pool_->Drop(file_.get());
  MLDS_RETURN_IF_ERROR(file_->Truncate());
  pages_ = 0;
  dir_.clear();
  index_.clear();
  layouts_.Clear();
  // The rewrite invalidates record ids wholesale: advance the schema
  // epoch so stale persisted histograms cannot outlive it; the re-insert
  // loop below rebuilds fresh ones incrementally.
  stats_.BumpEpoch();
  live_count_ = 0;
  for (auto& [id, rec] : all) {
    MLDS_RETURN_IF_ERROR(Insert(std::move(rec), nullptr).status());
  }
  if (io != nullptr) {
    // The rewrite reads every allocated block and writes back the
    // surviving ones.
    io->blocks_read += before;
    io->blocks_written += block_count();
  }
  return before - block_count();
}

std::optional<abdm::Record> FileStore::Get(RecordId id) const {
  if (id >= dir_.size() || !dir_[id].has_value()) return std::nullopt;
  const Addr addr = *dir_[id];
  auto frame = pool_->Fetch(file_.get(), addr.page, nullptr);
  if (!frame.ok()) return std::nullopt;
  PageView view((*frame)->data.data(), file_->page_bytes());
  auto entry = view.Read(addr.slot);
  std::optional<abdm::Record> rec;
  if (entry.has_value()) {
    abdm::RecordDecoder decoder(&layouts_);
    auto decoded = DecodeEntry(*entry, decoder, nullptr, nullptr);
    if (decoded.ok()) rec = std::move(*decoded);
  }
  pool_->Unpin(*frame, nullptr);
  return rec;
}

Result<size_t> FileStore::Update(
    const abdm::Query& query,
    const std::function<void(abdm::Record&)>& modify, IoStats* io,
    PlanNode* plan_out) {
  PlanNode local;
  PlanNode* plan = plan_out != nullptr ? plan_out : &local;
  *plan = Plan(query);
  MLDS_ASSIGN_OR_RETURN(auto rows, Execute(query, plan, io));
  DirectoryEdits edits;
  Status rewritten;
  for (const auto& [id, old] : rows) {
    abdm::Record updated = old;
    modify(updated);
    rewritten = Rewrite(id, old, std::move(updated), io, &edits);
    if (!rewritten.ok()) break;
  }
  // The records rewritten before a failure keep their new keywords.
  ApplyIndexEdits(&edits);
  MLDS_RETURN_IF_ERROR(rewritten);
  return rows.size();
}

Status FileStore::Rewrite(RecordId id, const abdm::Record& old,
                          abdm::Record record, IoStats* io,
                          DirectoryEdits* edits) {
  if (id >= dir_.size() || !dir_[id].has_value()) {
    return Status::NotFound("file_store: no live record " +
                            std::to_string(id) + " in '" + name() + "'");
  }
  const Addr addr = *dir_[id];
  auto frame = pool_->Fetch(file_.get(), addr.page, nullptr);
  if (!frame.ok()) return frame.status();
  PageView view((*frame)->data.data(), file_->page_bytes());
  auto entry = view.Read(addr.slot);
  if (!entry.has_value()) {
    pool_->Unpin(*frame, nullptr);
    return Status::Corruption("file_store: directory points at dead slot in '" +
                              name() + "'");
  }
  // Re-index only the changed keywords: an unchanged one (e.g. FILE)
  // keeps its bucket entry and its histogram count.
  abdm::Record changed_old, changed_new;
  for (size_t i = 0; i < old.size(); ++i) {
    const abdm::Value* updated = record.Find(old.attribute(i));
    if (updated == nullptr || *updated != old.value(i)) {
      changed_old.Set(old.attribute(i), old.value(i));
    }
  }
  for (size_t i = 0; i < record.size(); ++i) {
    const abdm::Value* previous = old.Find(record.attribute(i));
    if (previous == nullptr || *previous != record.value(i)) {
      changed_new.Set(record.attribute(i), record.value(i));
    }
  }
  StageIndexEdits(id, changed_old, /*insert=*/false, edits);
  StageIndexEdits(id, changed_new, /*insert=*/true, edits);
  layouts_.Intern(record);

  std::string payload;
  abdm::SerializeRecord(record, payload);
  const bool was_overflow = (entry->rid & kOverflowRidBit) != 0;
  view.Erase(addr.slot);
  if (!was_overflow &&
      payload.size() <= PageView::MaxPayload(file_->page_bytes()) &&
      view.Fits(payload.size())) {
    int slot = view.Append(id, payload);
    dir_[id] = Addr{addr.page, uint16_t(slot)};
    Status committed = CommitFrame(*frame, io);
    pool_->Unpin(*frame, nullptr);
    MLDS_RETURN_IF_ERROR(committed);
  } else {
    // No room in place (or the old entry headed an overflow chain, whose
    // continuation pages become dead until compaction): persist the slot
    // erase and append at the fill page under the same id.
    Status committed = CommitFrame(*frame, io);
    pool_->Unpin(*frame, nullptr);
    MLDS_RETURN_IF_ERROR(committed);
    MLDS_ASSIGN_OR_RETURN(const Addr moved, AppendPayload(id, payload, io));
    dir_[id] = moved;
  }
  if (io != nullptr) io->index_probes += 1;
  return Status::OK();
}

std::vector<RecordId> FileStore::Bucket(std::string_view attr,
                                        const abdm::Value& value) const {
  auto attr_it = index_.find(attr);
  if (attr_it == index_.end()) return {};
  auto it = attr_it->second.find(value);
  return it == attr_it->second.end() ? std::vector<RecordId>{}
                                     : it->second.ids();
}

Status FileStore::BuildSecondaryIndex(std::string_view attr, IoStats* io) {
  if (IsIndexedAttribute(attr)) return Status::OK();  // idempotent
  std::string name(attr);
  secondary_.insert(name);
  // One charged full scan populates the new value buckets.
  MLDS_RETURN_IF_ERROR(ForEach(
      [&](RecordId id, const abdm::Record& rec) {
        auto v = rec.Get(name);
        // ForEach visits ids ascending, so each bucket is appended to.
        if (v.has_value()) index_[name][*v].Add(id);
      },
      io));
  // A new access path changes what the statistics cover: advance the
  // epoch (dropping every histogram) and rebuild fresh ones so read-only
  // workloads after CreateIndex get histogram estimates immediately.
  stats_.BumpEpoch();
  RebuildAllHistograms();
  if (file_->on_disk()) MLDS_RETURN_IF_ERROR(file_->SetMeta(EncodeMeta()));
  return Status::OK();
}

std::vector<std::string> FileStore::secondary_indexes() const {
  return std::vector<std::string>(secondary_.begin(), secondary_.end());
}

Status FileStore::LoadFromPages() {
  dir_.clear();
  index_.clear();
  stats_.Clear();
  // Suppress per-record histogram maintenance for the bulk rebuild;
  // RestoreStatistics installs the persisted histograms afterwards.
  loading_ = true;
  live_count_ = 0;
  keys_ = KeyCounter();
  fill_frame_ = nullptr;
  fill_count_ = 0;
  pages_ = file_->page_count();
  const size_t pb = file_->page_bytes();
  std::vector<char> buf(pb);
  layouts_.Clear();
  abdm::RecordDecoder decoder(&layouts_);
  for (uint64_t page = 0; page < pages_; ++page) {
    MLDS_RETURN_IF_ERROR(file_->ReadPage(page, buf.data()));
    if (IsContinuationPage(buf.data())) continue;
    PageView view(buf.data(), pb);
    for (uint16_t s = 0; s < view.slot_count(); ++s) {
      auto entry = view.Read(s);
      if (!entry.has_value()) continue;
      const RecordId id = entry->rid & ~kOverflowRidBit;
      auto rec = DecodeEntry(*entry, decoder, nullptr, nullptr);
      if (!rec.ok()) return rec.status();
      if (id >= dir_.size()) dir_.resize(id + 1);
      dir_[id] = Addr{uint32_t(page), s};
      ++live_count_;
      IndexInsert(id, *rec);
      layouts_.Intern(*rec);
      keys_.Note(name(), *rec);
    }
  }
  // A record an UPDATE moved to a later page reached its buckets after
  // larger ids, as a pending add: settle every bucket before any read.
  for (auto& [attr, values] : index_) {
    for (auto& [value, ids] : values) ids.Settle();
  }
  // The next insert opens a fresh fill page; a partially filled tail
  // page keeps its records but accepts no more appends.
  loading_ = false;
  return Status::OK();
}

void FileStore::RestoreStatistics(const Meta& meta) {
  loading_ = false;  // a failed load leaves suppression on
  stats_.RestoreEpoch(meta.stats_epoch);
  for (const Meta::Histogram& h : meta.histograms) {
    if (h.epoch != meta.stats_epoch) continue;  // built under an old epoch
    if (!IsIndexedAttribute(h.attr)) continue;
    auto decoded = AttributeHistogram::Decode(h.encoded);
    if (!decoded.ok()) continue;  // damaged line: rebuilt on next mutation
    stats_.Restore(h.attr, std::move(*decoded));
  }
}

Status FileStore::Flush(IoStats* io) {
  MLDS_RETURN_IF_ERROR(pool_->Flush(file_.get(), io));
  if (file_->on_disk()) {
    MLDS_RETURN_IF_ERROR(file_->SetMeta(EncodeMeta()));
  }
  return file_->Sync();
}

std::string FileStore::EncodeMeta() const {
  std::string out = "MLDS-FILEMETA 1\n";
  out += "CAP " + std::to_string(block_capacity_) + "\n";
  out += EncodeDefineFile(descriptor_);
  out += "\n";
  for (const auto& attr : secondary_) {
    out += "SECONDARY " + attr + "\n";
  }
  out += "STATSEPOCH " + std::to_string(stats_.epoch()) + "\n";
  // Histogram persistence is best-effort: the metadata blob must fit the
  // header page, so on small pages histogram lines that would overflow it
  // are dropped (they rebuild lazily after restart).
  const size_t budget = file_->on_disk()
                            ? file_->meta_capacity()
                            : std::numeric_limits<size_t>::max();
  for (const auto& [attr, histogram] : stats_.histograms()) {
    std::string line = "HISTOGRAM " + std::to_string(stats_.epoch()) + " " +
                       attr + " " + histogram.Encode() + "\n";
    if (out.size() + line.size() <= budget) out += line;
  }
  return out;
}

Result<FileStore::Meta> FileStore::DecodeMeta(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != "MLDS-FILEMETA 1") {
    return Status::ParseError("file_store: bad metadata header");
  }
  Meta meta;
  bool have_define = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line.rfind("CAP ", 0) == 0) {
      int cap = 0;
      auto [ptr, ec] = std::from_chars(line.data() + 4,
                                       line.data() + line.size(), cap);
      if (ec != std::errc() || cap <= 0) {
        return Status::ParseError("file_store: bad CAP in metadata");
      }
      meta.block_capacity = cap;
    } else if (line.rfind("DEFINE ", 0) == 0) {
      MLDS_ASSIGN_OR_RETURN(meta.descriptor,
                            DecodeDefineFile(line.substr(7)));
      have_define = true;
    } else if (line.rfind("SECONDARY ", 0) == 0) {
      meta.secondary.push_back(line.substr(10));
    } else if (line.rfind("STATSEPOCH ", 0) == 0) {
      uint64_t epoch = 0;
      auto [ptr, ec] = std::from_chars(line.data() + 11,
                                       line.data() + line.size(), epoch);
      if (ec != std::errc()) {
        return Status::ParseError("file_store: bad STATSEPOCH in metadata");
      }
      meta.stats_epoch = epoch;
    } else if (line.rfind("HISTOGRAM ", 0) == 0) {
      // HISTOGRAM <epoch> <attr> <encoded...>
      std::string_view rest(line);
      rest.remove_prefix(10);
      const size_t epoch_end = rest.find(' ');
      if (epoch_end == std::string_view::npos) {
        return Status::ParseError("file_store: bad HISTOGRAM in metadata");
      }
      uint64_t epoch = 0;
      auto [ptr, ec] =
          std::from_chars(rest.data(), rest.data() + epoch_end, epoch);
      if (ec != std::errc()) {
        return Status::ParseError("file_store: bad HISTOGRAM epoch");
      }
      rest.remove_prefix(epoch_end + 1);
      const size_t attr_end = rest.find(' ');
      if (attr_end == std::string_view::npos || attr_end == 0) {
        return Status::ParseError("file_store: bad HISTOGRAM attribute");
      }
      Meta::Histogram h;
      h.epoch = epoch;
      h.attr = std::string(rest.substr(0, attr_end));
      h.encoded = std::string(rest.substr(attr_end + 1));
      meta.histograms.push_back(std::move(h));
    } else {
      return Status::ParseError("file_store: unrecognized metadata line '" +
                                line + "'");
    }
  }
  if (!have_define || meta.block_capacity <= 0) {
    return Status::ParseError("file_store: incomplete metadata");
  }
  return meta;
}

}  // namespace mlds::kds
