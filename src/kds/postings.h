#ifndef MLDS_KDS_POSTINGS_H_
#define MLDS_KDS_POSTINGS_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace mlds::kds {

/// Identifies a record within one file. Ids are stable across restarts:
/// each record carries its id inside its page entry, and reopening a
/// page file restores the original numbering.
using RecordId = uint64_t;

/// One keyword-directory bucket: the ids of the records holding a
/// keyword. The ids live in one ascending vector (the run), so a bucket
/// copies out contiguously, and the insert path — whose new id is always
/// the largest — appends.
///
/// Nothing costs O(bucket size) per id; one-record DELETEs and UPDATEs
/// touch buckets that list a whole file (FILE's):
///  - Remove marks the id's run entry removed (a binary search); readers
///    skip marked entries, and Settle compacts the run once they are
///    half of it.
///  - An Add below the largest id (an UPDATE moving the record to this
///    keyword, or a load that meets records out of order) joins a short
///    pending list, which Settle merges into the run once it outgrows
///    twice the square root of the run's length — O(sqrt(size)) per
///    such Add — and keeps sorted otherwise, so readers merge it in one
///    pass.
/// A statement adds and removes, then settles each bucket it touched
/// once; readers see only settled buckets.
class Postings {
 public:
  /// Live ids.
  size_t size() const {
    return edits_ == nullptr
               ? run_.size()
               : run_.size() - edits_->removed + edits_->pending.size();
  }
  bool empty() const { return size() == 0; }

  /// Adds `id`, which the bucket must not hold.
  void Add(RecordId id);

  /// Removes `id`, which the bucket must hold.
  void Remove(RecordId id);

  /// Ends a statement's edits: merges the pending ids into the run once
  /// there are enough of them (sorting them otherwise) and compacts a
  /// run more than half of whose entries are removed.
  void Settle();

  /// Appends the live ids, ascending, to `out`. The bucket is settled.
  void AppendTo(std::vector<RecordId>* out) const;

  /// The live ids, ascending.
  std::vector<RecordId> ids() const;

  /// True when `id` is live in the bucket. The bucket is settled.
  bool Contains(RecordId id) const;

 private:
  /// Set on a run entry whose id was removed. Record ids never reach it.
  static constexpr RecordId kRemoved = 1ull << 63;

  /// What removals and out-of-order adds leave behind. Allocated by the
  /// first of them and freed by the Settle that merges or empties it, so
  /// a bucket that only ever appended (most buckets: every unique key's)
  /// is one vector and a null pointer.
  struct Edits {
    std::vector<RecordId> pending;  // added below the run's end; not in run_
    size_t removed = 0;             // run entries carrying kRemoved
  };

  /// The first run entry whose id is not below `id`.
  std::vector<RecordId>::iterator Seek(RecordId id);

  Edits& edits();

  /// Rebuilds the run from its live entries and the pending ids.
  void Merge();

  std::vector<RecordId> run_;  // ascending by id & ~kRemoved
  std::unique_ptr<Edits> edits_;
};

}  // namespace mlds::kds

#endif  // MLDS_KDS_POSTINGS_H_
