#ifndef MLDS_KDS_ENGINE_H_
#define MLDS_KDS_ENGINE_H_

#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <shared_mutex>
#include <string>
#include <vector>

#include "abdl/request.h"
#include "abdm/schema.h"
#include "common/result.h"
#include "kds/disk_model.h"
#include "kds/file_io.h"
#include "kds/file_store.h"
#include "kds/io_stats.h"

namespace mlds::kds {

class WalWriter;

/// A structured partial-result warning: a degraded multi-backend kernel
/// answered without one of its backends, and this names which backend and
/// why. Produced by the MBDS controller, carried on the Response so every
/// language interface sees the degraded-mode status of its results.
struct PartialResultWarning {
  int backend_id = -1;
  /// Health state of the backend ("quarantined", "timeout", ...).
  std::string state;
  /// Human-readable cause ("injected crash on request 7", ...).
  std::string detail;

  friend bool operator==(const PartialResultWarning&,
                         const PartialResultWarning&) = default;
};

/// Result of executing one ABDL request against the kernel engine.
struct Response {
  /// Records returned by RETRIEVE / RETRIEVE-COMMON. For target-list
  /// retrievals, records are projected to the requested attributes;
  /// aggregates produce one record per group with the aggregate keyword.
  std::vector<abdm::Record> records;
  /// Records inserted / deleted / updated by the write operations.
  size_t affected = 0;
  /// Physical work performed by this request.
  IoStats io;
  /// The annotated physical plan, present when the request carried the
  /// explain flag (abdl::IsExplain): the request executed normally and
  /// the tree holds estimated next to actual per-node counters. Shared
  /// so the MBDS controller can graft per-backend plans into one merged
  /// tree without copying.
  std::shared_ptr<const PlanNode> plan;
  /// Degraded-mode warnings (empty for a healthy kernel): one entry per
  /// backend whose share of this result is missing or delayed.
  std::vector<PartialResultWarning> warnings;
  /// The database keys the kernel assigned to an INSERT's records
  /// (abdl::InsertGuard::key_attribute), in record order.
  std::vector<std::string> keys;
};

/// Every counter the kernel keeps, in one snapshot: buffer-pool traffic,
/// storage integrity, and the statistics & join subsystem. An engine
/// reports its own; the MBDS controller sums its backends' and adds its
/// distributed joins. A new group is one more member here and one more
/// line in operator+=.
struct KernelCounters {
  PoolCounters pool;
  IntegrityCounters integrity;
  StatisticsCounters statistics;

  friend bool operator==(const KernelCounters&,
                         const KernelCounters&) = default;

  KernelCounters& operator+=(const KernelCounters& o) {
    pool += o.pool;
    integrity += o.integrity;
    statistics += o.statistics;
    return *this;
  }
};

/// Applies the projection / BY-ordering / aggregation phase of a RETRIEVE
/// to a set of fully matched records. The engine uses this after its local
/// selection; the MBDS controller uses it to finalize records merged from
/// many backends (partial per-backend aggregates would be wrong for AVG).
std::vector<abdm::Record> PostProcessRetrieve(
    const abdl::RetrieveRequest& request, std::vector<abdm::Record> matched);

/// Grafts the projection / BY / aggregation phase of a RETRIEVE onto its
/// selection plan — the plan-tree mirror of PostProcessRetrieve, used by
/// whichever layer ran the post-processing (engine or MBDS controller).
/// Returns `base` unchanged when the request has no such phase.
PlanNode WrapRetrievePlan(const abdl::RetrieveRequest& request, PlanNode base,
                          size_t output_rows);

/// A `block_capacity` no page reaches: the slot count is a u16, so a
/// page holds at most 65,535 entries, and every entry takes at least 12
/// bytes (an 8 KiB page fits 682). An engine built with it seals a page
/// only when the next record does not fit, so pages fill by bytes. The
/// product server (`mlds_server`) builds every engine with it.
inline constexpr int kPageLimitedCapacity = 65535;

/// Options controlling the kernel engine's storage geometry.
struct EngineOptions {
  /// Records per storage block, the most a page file places in one page;
  /// block counts feed the MBDS cost model. The default 16 is the
  /// thesis's cost-model block, which the plan goldens, the simulated
  /// MBDS speedups and the committed benches model. kPageLimitedCapacity
  /// fills pages by bytes instead. It applies to files this engine
  /// creates; a page file restored from `data_dir` keeps the cap it was
  /// written with (its `CAP` metadata line).
  int block_capacity = 16;
  /// Directory holding one page file per kernel file ("<name>.mpf") plus
  /// the clean-shutdown marker. Empty (the default) keeps every file in
  /// memory. With a data dir, a cleanly closed engine restores all of its
  /// files on the next construction — persistence without snapshot
  /// calls; after a crash (no marker) the page files are discarded and
  /// the WAL + checkpoint recovery path is authoritative.
  std::string data_dir;
  /// Buffer-pool capacity in pages shared by every file of this engine.
  /// 0 (the default) is write-through mode: no caching, physical block
  /// counts equal the logical pages touched. > 0 enables LRU caching of
  /// that many unpinned pages.
  size_t pool_pages = 0;
  /// Page size for new page files (existing files keep theirs).
  size_t page_bytes = kDefaultPageBytes;
  /// The backend's dedicated disk: the MBDS controller charges
  /// `disk.CostMs(io)` of every request to simulated time, and the engine
  /// really waits `disk.CostMs(io) * scale` once a latency scale is set
  /// (Engine::set_latency_scale).
  DiskModel disk;
  /// File-I/O seam for every page file, the checkpoint snapshot, and the
  /// clean-shutdown marker (not owned; nullptr uses the real POSIX
  /// implementation). Fault tests install a FaultyFileIo here.
  FileIo* file_io = nullptr;
};

/// Per-file verdicts from Engine::VerifyIntegrity — the on-demand
/// scrubber that walks every on-disk page through the checksum verify.
struct IntegrityReport {
  struct FileVerdict {
    std::string file;        ///< Kernel file name.
    uint64_t pages = 0;      ///< On-disk pages walked.
    uint64_t bad_pages = 0;  ///< Pages failing the verify.
    Status status;           ///< First failure (OK when clean).
  };
  std::vector<FileVerdict> files;
  bool clean = true;

  /// Human-readable multi-line report (one line per file plus a verdict
  /// header), served verbatim to the shell's `.verify`.
  std::string ToText() const;
};

/// The kernel database system (KDS) execution engine for one backend: it
/// owns the kernel files of the loaded databases and executes ABDL
/// requests against them (Ch. I.B.1). MBDS instantiates one Engine per
/// backend over that backend's partition of the records.
///
/// Thread safety — two-level locking (the thesis's single-user interfaces
/// "eventually modified to multi-user systems", Ch. IV.A):
///
///  1. A `std::shared_mutex` over the files map, held shared by every
///     request (the map's shape cannot change mid-request) and exclusive
///     only by DDL (DefineDatabase / DefineFile).
///  2. A `std::shared_mutex` per FileStore, held shared by RETRIEVE /
///     RETRIEVE-COMMON and exclusive by INSERT / DELETE / UPDATE /
///     Compact. Concurrent readers of the same file truly overlap;
///     writers of *different* files also overlap.
///
/// Lock ordering: the map lock is always acquired before any file lock,
/// and a request spanning several files acquires their locks in file-name
/// order — so the hierarchy is acyclic and deadlock-free. Each ABDL
/// request is atomic; ExecuteTransaction locks the union of its
/// statements' files for the whole transaction, so a transaction is
/// atomic with respect to concurrent requests. Cumulative I/O counters
/// are lock-free atomics (AtomicIoStats).
class Engine {
 public:
  /// With EngineOptions::data_dir set, the constructor restores every
  /// page file a cleanly shut-down predecessor left behind (or wipes
  /// stale ones after a crash — see data_dir). Restore problems are
  /// reported through restore_status(), not thrown.
  explicit Engine(EngineOptions options = {});

  /// Flushes every store and, with a data dir, writes the clean-shutdown
  /// marker that lets the next engine trust the page files.
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Creates the files of `db`. Existing files with the same names are
  /// rejected.
  Status DefineDatabase(const abdm::DatabaseDescriptor& db);

  /// Creates one file. Rejects duplicates.
  Status DefineFile(const abdm::FileDescriptor& descriptor);

  /// Removes one file and its records (including its on-disk page file).
  /// Used to roll back a partially applied snapshot load and to rebuild a
  /// backend during reintegration; ordinary ABDL has no DROP.
  Status RemoveFile(std::string_view file);

  bool HasFile(std::string_view file) const;

  /// Builds (or re-affirms) a secondary index on `attr` of `file`,
  /// scanning the file once. Logged to the WAL ("INDEX <file> <attr>")
  /// before it is applied, so recovery rebuilds the same index set.
  Status CreateIndex(std::string_view file, std::string_view attr);

  /// Names of the secondary-indexed attributes of `file` (empty when the
  /// file has none or is not defined). Snapshots persist these as INDEX
  /// lines.
  std::vector<std::string> SecondaryIndexes(std::string_view file) const;

  /// Writes back every dirty pool page, persists store metadata, and
  /// syncs the backing page files. Does not write the clean-shutdown
  /// marker — only the destructor does, after which no write can follow.
  Status Flush();

  /// First problem hit while restoring page files at construction
  /// (OK when the data dir was empty, absent, or restored fully).
  const Status& restore_status() const { return restore_status_; }

  /// This engine's counters: buffer-pool traffic across every file,
  /// integrity counters with I/O errors split into injected (served by a
  /// FaultyFileIo seam) and real, and its join strategy and re-plan
  /// counts plus histogram builds summed over its files.
  KernelCounters counters() const;

  /// Walks every on-disk page of every file through the checksum verify
  /// (read-only; file locks held shared, so retrievals overlap the
  /// scrub). Memory-mode files report their page count with zero bad
  /// pages — there are no disk bytes to distrust.
  IntegrityReport VerifyIntegrity() const;

  /// Toggles checksum verification on page reads for every file (see
  /// PageFile::set_verify_reads). Only the integrity bench turns this
  /// off, to price the verify itself.
  void SetVerifyReads(bool verify);

  /// The engine's file-I/O seam (never nullptr).
  FileIo* file_io() const { return io_; }

  const EngineOptions& options() const { return options_; }

  /// Attaches a write-ahead log (not owned; nullptr detaches): every
  /// mutating request and file definition is appended — framed and
  /// checksummed — *before* it is applied, so a crash loses at most
  /// in-flight work and RecoverEngine can replay the committed prefix.
  /// The disabled path costs one relaxed atomic load per request.
  void AttachWal(WalWriter* wal) {
    wal_.store(wal, std::memory_order_release);
  }
  WalWriter* wal() const { return wal_.load(std::memory_order_acquire); }

  /// Executes one ABDL request.
  Result<Response> Execute(const abdl::Request& request);

  /// Executes the requests of `txn` in order, stopping at the first
  /// failure; responses parallel the executed prefix. The union of the
  /// statements' file locks is held for the whole transaction (writes
  /// dominate), so no other client's request interleaves with it.
  Result<std::vector<Response>> ExecuteTransaction(const abdl::Transaction& txn);

  /// Cumulative I/O across all executed requests, as a snapshot of the
  /// atomic counters — safe to call from any thread while requests run.
  IoStats cumulative_io() const { return cumulative_io_.Snapshot(); }
  void ResetStats() { cumulative_io_.Reset(); }

  /// Disk-latency emulation: when `scale` > 0, every executed request
  /// *really sleeps* `options().disk.CostMs(io) * scale` milliseconds
  /// while still holding its file locks — the time the backend's disk is
  /// busy serving it. Concurrent retrievals hold the file lock shared, so
  /// their waits overlap; mutations hold it exclusively and serialize.
  /// 0 (the default) disables it. Benchmarks load data with the scale at
  /// 0 and set it only for the measured phase.
  void set_latency_scale(double scale) {
    latency_scale_.store(scale, std::memory_order_relaxed);
  }
  double latency_scale() const {
    return latency_scale_.load(std::memory_order_relaxed);
  }

  /// Planner-statistics estimate of how many records `query` selects
  /// across this engine's files — no record is materialized. When
  /// `distinct` is non-null, the routed files' distinct counts of `attr`
  /// are accumulated into it (left untouched when unknown). The MBDS
  /// controller costs distributed join sides with this before fanning
  /// out.
  uint64_t EstimateQuery(const abdm::Query& query, std::string_view attr,
                         std::optional<size_t>* distinct) const;

  /// Live record count in `file` (0 if absent).
  size_t FileSize(std::string_view file) const;

  /// The ordinal `file`'s next kernel-assigned key takes (0 if absent).
  uint64_t NextKey(std::string_view file) const;

  /// Total blocks allocated across all files (the "database size" the
  /// MBDS capacity experiments sweep).
  uint64_t TotalBlocks() const;

  /// Names of all defined files.
  std::vector<std::string> FileNames() const;

  /// The descriptor of `file`, or nullptr. Descriptors are immutable
  /// after definition, so the pointer stays valid without a lock.
  const abdm::FileDescriptor* FindDescriptor(std::string_view file) const;

  /// Compacts every file, reclaiming blocks left by deletions. Returns
  /// the total number of blocks reclaimed. Files are compacted one at a
  /// time, each under its exclusive lock. The rewrite's block reads and
  /// writes are charged to the cumulative counters.
  uint64_t CompactAll();

  /// Calls `fn` for every live record of `file`, in slot order. The
  /// traversal reads every allocated block; that full scan is charged to
  /// the cumulative counters so snapshot/export I/O stays visible next
  /// to request I/O.
  template <typename Fn>
  Status VisitRecords(std::string_view file, Fn&& fn) const {
    std::shared_lock<std::shared_mutex> map_lock(map_mutex_);
    auto it = files_.find(file);
    if (it == files_.end()) {
      return Status::NotFound("kernel file '" + std::string(file) +
                              "' not defined");
    }
    std::shared_lock<std::shared_mutex> file_lock(it->second->mutex());
    IoStats io;
    Status visited = it->second->ForEach(
        [&](RecordId, const abdm::Record& record) { fn(record); }, &io);
    cumulative_io_.Add(io);
    return visited;
  }

 private:
  /// Loads (clean shutdown) or wipes (crash) the data dir's page files.
  /// A page file that fails to open, verify, or load is quarantined and
  /// rebuilt from the checkpoint snapshot instead of aborting the
  /// restore.
  void RestoreFromDisk();

  /// Moves a damaged page file aside as "<path>.quarantined" so the
  /// rebuild starts from a fresh file while the bad bytes stay around
  /// for post-mortems.
  void QuarantinePageFile(const std::string& path);

  /// Re-creates the kernel files whose sanitized page-file stems appear
  /// in `damaged` from the checkpoint snapshot written at the last clean
  /// shutdown. Rebuilt files become re-attachable like any restored one.
  void RebuildFromCheckpoint(const std::set<std::string>& damaged);

  /// Path of `file`'s page file under the data dir.
  std::string PageFilePath(std::string_view file) const;

  /// Path of the checkpoint snapshot under the data dir.
  std::string CheckpointPath() const;

  /// DefineFile body; caller holds the map lock exclusively.
  Status DefineFileLocked(const abdm::FileDescriptor& descriptor);

  /// Settles what an INSERT leaves to the kernel (abdl::InsertGuard):
  /// checks the unique guard against the directory and the request's
  /// earlier records, then picks each keyless record's key from its
  /// file's counter. Nothing is written, and on a violation no key is
  /// taken. `keys` gets one entry per record when the guard names a key
  /// keyword (empty where the record keeps its own key), and `io` the
  /// directory probes. A no-op for other requests. The caller holds the
  /// map lock and the target files' exclusive locks.
  Status SettleInsert(const abdl::Request& request,
                      std::vector<std::string>* keys, IoStats* io);

  /// INSERT of `req`'s records, record i taking `keys[i]` under the
  /// guard's key keyword when it is non-empty. Every record is validated
  /// before any is placed.
  Result<Response> ExecuteInsert(const abdl::InsertRequest& req,
                                 const std::vector<std::string>& keys);
  Result<Response> ExecuteDelete(const abdl::DeleteRequest& req);
  Result<Response> ExecuteUpdate(const abdl::UpdateRequest& req);
  Result<Response> ExecuteRetrieve(const abdl::RetrieveRequest& req);
  Result<Response> ExecuteRetrieveCommon(const abdl::RetrieveCommonRequest& req);

  /// Dispatches to the ExecuteX handler, an INSERT's records taking the
  /// `keys` SettleInsert picked. The caller must hold the map lock shared
  /// and the touched files' locks in the request's mode.
  Result<Response> ExecuteLocked(const abdl::Request& request,
                                 const std::vector<std::string>& keys);

  /// Files a query applies to: the single FILE-qualified store, or all.
  /// Caller holds the map lock. Returned in map (file-name) order.
  std::vector<FileStore*> Route(const abdm::Query& query);

  /// The stores `request` touches, in file-name order (the lock
  /// acquisition order). Caller holds the map lock.
  std::vector<FileStore*> TouchedStores(const abdl::Request& request);

  /// Sleeps the disk model's cost of `io` times the latency scale, if
  /// set — the one place disk time is really waited. Called while the
  /// request's file locks are still held, so readers overlap their waits
  /// and writers serialize — see set_latency_scale.
  void InjectLatency(const IoStats& io) const;

  FileStore* FindFile(std::string_view file);

  EngineOptions options_;
  /// Shared buffer pool for every store of this engine. Declared before
  /// files_ so the stores (which write back through it on destruction)
  /// are destroyed first.
  BufferPool pool_;
  /// Resolved file-I/O seam: options_.file_io or the POSIX default.
  FileIo* io_ = nullptr;
  /// Mutable: const scrubs (VerifyIntegrity) still count pages walked.
  mutable AtomicIntegrityCounters integrity_;
  /// Join strategy / re-plan counters (histogram builds live with each
  /// FileStore's statistics).
  AtomicStatisticsCounters stats_counters_;
  /// First locking level: guards the files map's shape. Shared for every
  /// request, exclusive for DDL.
  mutable std::shared_mutex map_mutex_;
  std::map<std::string, std::unique_ptr<FileStore>, std::less<>> files_;
  /// Files restored from page files at construction that no DefineFile
  /// has re-claimed yet: a matching definition attaches to the restored
  /// store instead of failing with AlreadyExists.
  std::set<std::string, std::less<>> restored_unclaimed_;
  Status restore_status_;
  /// Mutable: const traversals (VisitRecords) still charge their reads.
  mutable AtomicIoStats cumulative_io_;
  std::atomic<double> latency_scale_{0.0};
  std::atomic<WalWriter*> wal_{nullptr};
  /// Ids for the WAL's BEGIN/TREQUEST/COMMIT framing: transactions on
  /// disjoint files log concurrently, so their entries interleave and
  /// must be distinguishable on replay.
  std::atomic<uint64_t> next_txn_id_{1};
};

/// Removes every storage artifact under `dir`: page files, header
/// sidecars, quarantined files, atomic-write temps, the checkpoint
/// snapshot, and the clean-shutdown marker (best effort; a missing dir
/// is fine). The MBDS controller wipes a backend's storage before
/// rebuilding it during reintegration; a stale checkpoint snapshot must
/// not survive the wipe, or a later corruption rebuild would resurrect
/// pre-recovery records.
void WipeStorageDir(const std::string& dir);

}  // namespace mlds::kds

#endif  // MLDS_KDS_ENGINE_H_
