#ifndef MLDS_KDS_FILE_STORE_H_
#define MLDS_KDS_FILE_STORE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

#include "abdm/query.h"
#include "abdm/record.h"
#include "abdm/schema.h"
#include "abdm/stats.h"
#include "common/result.h"
#include "kds/buffer_pool.h"
#include "kds/io_stats.h"
#include "kds/keys.h"
#include "kds/page.h"
#include "kds/page_file.h"
#include "kds/plan.h"
#include "kds/postings.h"
#include "kds/statistics.h"

namespace mlds::kds {

struct KeyFold;

/// Page-structured storage for one kernel file, with a keyword directory
/// (per-attribute index) over the file's directory attributes and
/// optional secondary indexes over declared non-directory attributes.
///
/// Records are serialized into fixed-size slotted pages (see page.h)
/// fetched through a shared BufferPool; one page is one accounting
/// "block", and `block_capacity` caps the records placed per page (a
/// cap no page reaches, kPageLimitedCapacity, fills pages by bytes).
/// The newest page — the *fill page* — stays pinned in the pool while
/// it accepts appends and is sealed once full. Pages live in a PageFile,
/// either in memory or on disk, so a store built over a disk-backed file
/// persists without snapshot calls. Oversized records spill into
/// overflow page chains (a head entry whose rid carries the overflow
/// bit, followed by raw continuation pages).
///
/// Query evaluation is split planner/executor: `Plan()` builds an
/// explicit physical plan from the directory statistics (the store is
/// its own abdm::DirectoryStats), and `Execute()` runs the plan,
/// writing actual per-node row/block counts next to the planner's
/// estimates. Plan actual_blocks counts *logical* distinct pages
/// touched; IoStats counts *physical* pool traffic — under the default
/// write-through pool (capacity 0) the two coincide, and with a real
/// pool cache hits make the physical count smaller.
class FileStore : public abdm::DirectoryStats {
 public:
  /// `pool` is the shared buffer pool (nullptr: the store owns a
  /// private write-through pool); `file` is the backing page array
  /// (nullptr: a fresh in-memory PageFile).
  FileStore(abdm::FileDescriptor descriptor, int block_capacity,
            BufferPool* pool = nullptr,
            std::unique_ptr<PageFile> file = nullptr);
  ~FileStore() override;

  FileStore(const FileStore&) = delete;
  FileStore& operator=(const FileStore&) = delete;
  FileStore(FileStore&&) = delete;
  FileStore& operator=(FileStore&&) = delete;

  const abdm::FileDescriptor& descriptor() const { return descriptor_; }
  const std::string& name() const { return descriptor_.name; }

  /// The file's lock — the second level of the engine's two-level locking
  /// scheme. The store itself performs no locking: the engine acquires
  /// this shared for RETRIEVE / RETRIEVE-COMMON and exclusive for INSERT /
  /// DELETE / UPDATE / Compact, always after the engine's files-map lock
  /// and always in file-name order when a request spans several files.
  std::shared_mutex& mutex() const { return mutex_; }

  /// Number of live records.
  size_t size() const { return live_count_; }

  /// Number of pages currently allocated (including partially dead ones).
  uint64_t block_count() const { return pages_; }

  /// abdm::DirectoryStats — the planner's view of this store's directory.
  std::optional<size_t> EstimateMatches(
      const abdm::KeyInterval& interval) const override;
  size_t live_records() const override { return live_count_; }
  uint64_t allocated_blocks() const override { return block_count(); }
  bool IsSecondaryIndex(std::string_view attr) const override;
  double cached_fraction() const override;
  /// Estimate with provenance: fresh equi-depth histograms answer ranges
  /// in O(log buckets) (`[histogram]`); points, contradictory intervals,
  /// intervals inside one histogram bucket and histogram misses take the
  /// exact directory bucket walk (`[directory]`).
  std::optional<abdm::CardinalityEstimate> EstimateWithSource(
      const abdm::KeyInterval& interval) const override;
  /// Exact distinct-value count off the directory for indexed
  /// attributes; histogram estimate otherwise unavailable (nullopt).
  std::optional<size_t> DistinctValues(std::string_view attr) const override;

  /// Appends a record. The record is stored as given; the caller (engine)
  /// is responsible for ensuring the FILE keyword is present. A failed
  /// page write (write-through pool) fails the insert; the partially
  /// appended pages become dead space until compaction.
  Result<RecordId> Insert(abdm::Record record, IoStats* io);

  /// The file's database-key counter, rebuilt from the records at open
  /// and advanced by every insert.
  const KeyCounter& keys() const { return keys_; }

  /// True when a live record holds every value of checked `combination`
  /// under the parallel `attributes`: an INSERT guard's check. Over
  /// indexed attributes it reads only the directory, costing the smallest
  /// bucket; an unindexed attribute takes the planner's path.
  Result<bool> Holds(const std::vector<std::string>& attributes,
                     const Combination& combination, IoStats* io) const;

  /// Builds the physical plan for `query` against this store's directory
  /// statistics (estimates filled, actuals zero).
  PlanNode Plan(const abdm::Query& query) const;

  /// Executes `plan` — which must have been built by `Plan(query)` under
  /// the same lock — returning the live records satisfying `query` with
  /// their ids, in id order, charging `io`, and filling the plan's actual
  /// counters. The records were deserialized during evaluation anyway,
  /// and the paged store has no stable in-memory record addresses to
  /// hand out. A page fetch failure (I/O error or checksum mismatch)
  /// fails the whole evaluation — corrupt data is never silently skipped.
  Result<std::vector<std::pair<RecordId, abdm::Record>>> Execute(
      const abdm::Query& query, PlanNode* plan, IoStats* io) const;

  /// Returns ids of live records satisfying `query`, in id order. When
  /// `plan_out` is non-null the annotated plan is stored there.
  Result<std::vector<RecordId>> Select(const abdm::Query& query, IoStats* io,
                                       PlanNode* plan_out = nullptr) const;

  /// Plan plus Execute: like Select, but also returns each matching
  /// record.
  Result<std::vector<std::pair<RecordId, abdm::Record>>> SelectRecords(
      const abdm::Query& query, IoStats* io,
      PlanNode* plan_out = nullptr) const;

  /// Deletes all records satisfying `query`; returns how many. When
  /// `plan_out` is non-null the annotated retrieval plan is stored there.
  Result<size_t> Delete(const abdm::Query& query, IoStats* io,
                        PlanNode* plan_out = nullptr);

  /// Rewrites every record satisfying `query` as `modify` leaves it,
  /// keeping its id; returns how many. A record rewrites in place, or
  /// moves to the fill page when it no longer fits its page. When
  /// `plan_out` is non-null the annotated retrieval plan is stored there.
  Result<size_t> Update(const abdm::Query& query,
                        const std::function<void(abdm::Record&)>& modify,
                        IoStats* io, PlanNode* plan_out = nullptr);

  /// Returns the live record at `id`, or nullopt. Uncharged (directory
  /// maintenance path); retrieval goes through SelectRecords.
  std::optional<abdm::Record> Get(RecordId id) const;

  /// The ids holding keyword <attr, value>, ascending: one directory
  /// bucket (empty when the keyword is absent or `attr` unindexed). A
  /// test hook: the directory oracle compares every bucket through it.
  std::vector<RecordId> Bucket(std::string_view attr,
                               const abdm::Value& value) const;

  /// Rebuilds the store without dead slots, renumbering records and
  /// rebuilding the directory. Returns how many blocks were reclaimed.
  /// Record ids are invalidated; callers must not hold RecordIds across a
  /// compaction. A read failure aborts before any page is dropped, so the
  /// store is untouched on error. When `io` is non-null the rewrite is
  /// charged: every allocated block is read and every surviving block
  /// written.
  Result<uint64_t> Compact(IoStats* io = nullptr);

  /// Calls `fn` for every live record in id order. Iterating the file
  /// reads every allocated page; when `io` is non-null that full scan
  /// is charged (`blocks_read += block_count()`, one `records_examined`
  /// per live record). Callers passing nullptr must document why their
  /// traversal is exempt from I/O accounting.
  Status ForEach(const std::function<void(RecordId, const abdm::Record&)>& fn,
                 IoStats* io = nullptr) const;

  /// Secondary indexes ----------------------------------------------------

  /// Builds (or re-affirms) a secondary index over `attr`, scanning the
  /// file once (charged to `io`). No-op when the attribute is already
  /// indexed — directory attributes always are.
  Status BuildSecondaryIndex(std::string_view attr, IoStats* io);

  /// Names of attributes carrying a secondary index, sorted.
  std::vector<std::string> secondary_indexes() const;

  /// Persistence ----------------------------------------------------------

  /// Rebuilds the in-memory directory, record ids, and live count from
  /// the backing page file (called once after attaching to an existing
  /// file). Cold-start reads are not charged to any IoStats.
  Status LoadFromPages();

  /// Writes back dirty pool pages, persists store metadata, and syncs
  /// the backing file.
  Status Flush(IoStats* io);

  PageFile* page_file() { return file_.get(); }
  const PageFile* page_file() const { return file_.get(); }
  BufferPool* pool() { return pool_; }

  /// Store metadata blob kept in the page file header: descriptor,
  /// block capacity, secondary-index set, statistics epoch, and the
  /// per-attribute histograms built under that epoch.
  std::string EncodeMeta() const;
  struct Meta {
    abdm::FileDescriptor descriptor;
    int block_capacity = 0;
    std::vector<std::string> secondary;
    /// Statistics schema epoch the histograms below were built under.
    uint64_t stats_epoch = 0;
    struct Histogram {
      uint64_t epoch = 0;
      std::string attr;
      std::string encoded;
    };
    std::vector<Histogram> histograms;
  };
  static Result<Meta> DecodeMeta(const std::string& text);

  /// Adopts persisted statistics after LoadFromPages: the epoch is
  /// restored and every histogram whose epoch matches it (and whose
  /// attribute is still indexed) is installed without a rebuild.
  /// Histograms from an older epoch are discarded — the schema-epoch
  /// invalidation protocol, mirroring the translation cache.
  void RestoreStatistics(const Meta& meta);

  /// The per-file statistics set (histograms + epoch + build count).
  const FileStatistics& statistics() const { return stats_; }

 private:
  /// Location of one live record: its page and slot.
  struct Addr {
    uint32_t page = 0;
    uint16_t slot = 0;
  };

  using Row = std::pair<RecordId, abdm::Record>;

  /// Executes one conjunction's plan node, appending matching live records
  /// to `out` in page order, charging `io` for index probes / pool misses,
  /// and filling the node's actual counters (logical pages touched). With
  /// a `fold`, `conj` is the folded query's first disjunct and the node
  /// stands for every disjunct (KeyFold::Matches checks each candidate).
  /// A page fetch or decode failure aborts the evaluation with its status.
  Status ExecuteConjunction(const abdm::Conjunction& conj,
                            const KeyFold* fold, PlanNode* node,
                            std::vector<Row>* out, IoStats* io) const;

  /// Materializes every live record in id order (uncharged page scan;
  /// callers charge logical full-scan costs themselves).
  Status CollectAll(std::map<RecordId, abdm::Record>* out) const;

  /// Directory for one attribute: value -> ids holding that keyword.
  using ValueBuckets = std::map<abdm::Value, Postings>;

  /// The directory edits of one DELETE or UPDATE, staged while its
  /// records are visited and applied together, so each touched bucket
  /// settles once (Postings::Settle) and a bucket left empty is dropped.
  struct DirectoryEdits {
    struct Edit {
      ValueBuckets* values;
      ValueBuckets::iterator bucket;
      bool insert;
      RecordId id;
    };
    std::vector<Edit> edits;
    /// Attributes whose histogram was missing or stale when an edit
    /// reached it: rebuilt from the directory once the edits are applied.
    std::vector<std::string> rebuild;
  };

  /// The value buckets `interval` admits: [first, last) of one ordered
  /// lower-bound...upper-bound walk; empty for a contradictory interval.
  /// The one bound computation behind IndexLookup and EstimateMatches.
  static std::pair<ValueBuckets::const_iterator,
                   ValueBuckets::const_iterator>
  BucketRun(const ValueBuckets& buckets, const abdm::KeyInterval& interval);

  /// Candidate ids, in id order, of the directory buckets `interval`
  /// admits. The planner only builds index nodes over indexed
  /// attributes; an attribute with no keyword yet yields no candidates.
  std::vector<RecordId> IndexLookup(const abdm::KeyInterval& interval,
                                    IoStats* io) const;

  /// Candidate ids, in id order, of an index leaf: its interval's buckets,
  /// or for an INDEX KEYS leaf one point lookup per key of `fold` and one
  /// sort of the union (distinct keys name disjoint buckets).
  std::vector<RecordId> LeafLookup(const PlanNode& leaf, const KeyFold* fold,
                                   IoStats* io) const;

  bool IsDirectoryAttribute(std::string_view attr) const;
  bool IsIndexedAttribute(std::string_view attr) const;

  /// Adds `id` to the buckets of the record's indexed keywords. Ids
  /// arrive ascending (the next id is always the largest), so each add
  /// appends, except while LoadFromPages reads records that moved to
  /// later pages; it settles every bucket afterwards.
  void IndexInsert(RecordId id, const abdm::Record& record);

  /// Stages erasing (or inserting) `id` from (into) the buckets of the
  /// record's indexed keywords, and the matching histogram deltas.
  void StageIndexEdits(RecordId id, const abdm::Record& record, bool insert,
                       DirectoryEdits* edits);

  /// Applies staged edits — removals, then additions, then one Settle
  /// per touched bucket, dropping buckets left empty — then rebuilds the
  /// histograms the staging deferred.
  void ApplyIndexEdits(DirectoryEdits* edits);

  /// Rewrites live record `id` from `old` (its current content) to
  /// `record`, in place or at the fill page, staging its changed keywords
  /// into `edits`.
  Status Rewrite(RecordId id, const abdm::Record& old, abdm::Record record,
                 IoStats* io, DirectoryEdits* edits);

  /// Incremental histogram maintenance for one keyword. Applies the delta
  /// in O(log buckets) while the attribute's histogram is fresh. A missing
  /// or stale one is rebuilt from the directory (amortized O(log n)
  /// rebuilds over n inserts) — right away after a directory change
  /// already applied, or, with `deferred`, by ApplyIndexEdits once the
  /// staged edits are in. Requires the exclusive file lock (all callers
  /// are mutation paths).
  void MaintainHistogram(const std::string& attr, const abdm::Value& value,
                         bool insert,
                         std::vector<std::string>* deferred = nullptr);

  /// Rebuilds one attribute's histogram straight from its directory value
  /// buckets (no value copied but the boundaries); counts a build.
  void RebuildHistogram(std::string_view attr);

  /// Rebuilds every indexed attribute's histogram (post-epoch-bump
  /// refresh in BuildSecondaryIndex).
  void RebuildAllHistograms();

  /// Appends a serialized record, returning its location. Routes through
  /// the pinned fill page, or an overflow chain for oversized payloads.
  Result<Addr> AppendPayload(RecordId id, const std::string& payload,
                             IoStats* io);
  void SealFillPage(IoStats* io);
  /// Ensures a pinned fill page with room for `payload_size` more bytes
  /// and fewer than block_capacity records.
  void EnsureFillPage(size_t payload_size, IoStats* io);

  /// Reads the record stored behind `entry` with `decoder`, following the
  /// overflow chain if needed; pages fetched along the chain are charged
  /// to `io` and counted in `chain_pages` when non-null. A broken chain or
  /// undecodable payload returns Status::Corruption.
  Result<abdm::Record> DecodeEntry(const PageView::Entry& entry,
                                   abdm::RecordDecoder& decoder, IoStats* io,
                                   uint64_t* chain_pages) const;

  /// Writes an oversized payload as an overflow chain; returns the head
  /// entry's location.
  Result<Addr> AppendOverflow(RecordId id, const std::string& payload,
                              IoStats* io);

  /// Persists (write-through pool) or stages (cached pool) a mutated
  /// pinned frame. A write-through failure is returned (and sticky in
  /// the pool).
  Status CommitFrame(BufferPool::Frame* frame, IoStats* io);

  mutable std::shared_mutex mutex_;
  abdm::FileDescriptor descriptor_;
  int block_capacity_;
  std::unique_ptr<BufferPool> owned_pool_;
  BufferPool* pool_;
  std::unique_ptr<PageFile> file_;

  /// id -> page location of the live record; nullopt = deleted.
  std::vector<std::optional<Addr>> dir_;
  size_t live_count_ = 0;
  KeyCounter keys_;
  /// Pages allocated, including ones not yet written to the file by a
  /// cached pool.
  uint64_t pages_ = 0;

  /// The append target: pinned in the pool until sealed.
  BufferPool::Frame* fill_frame_ = nullptr;
  uint32_t fill_page_ = 0;
  int fill_count_ = 0;

  /// Non-directory attributes carrying a secondary index.
  std::set<std::string, std::less<>> secondary_;

  /// Per-attribute equi-depth histograms + schema epoch. Mutated only
  /// under the exclusive file lock (same discipline as index_).
  FileStatistics stats_;
  /// True while LoadFromPages bulk-rebuilds the directory: persisted
  /// histograms are restored afterwards instead of being re-derived
  /// record by record, and ids may reach a bucket out of order.
  bool loading_ = false;

  /// Directory: attribute -> value -> ids holding that keyword. Buckets
  /// are ascending id vectors (Postings): an insert appends, and a
  /// removal or out-of-order add costs O(log) or O(sqrt) of the bucket,
  /// never its size (the FILE keyword's bucket lists every record).
  /// Memory resident; rebuilt from pages on open.
  std::map<std::string, ValueBuckets, std::less<>> index_;

  /// The distinct layouts of the file's records, interned at insert,
  /// update and open (exclusive lock) so decoded records share them;
  /// decoding reads the table under the shared lock.
  abdm::LayoutTable layouts_;
};

}  // namespace mlds::kds

#endif  // MLDS_KDS_FILE_STORE_H_
