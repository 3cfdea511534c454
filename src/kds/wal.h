#ifndef MLDS_KDS_WAL_H_
#define MLDS_KDS_WAL_H_

#include <condition_variable>
#include <cstdint>
#include <istream>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "abdm/schema.h"
#include "abdm/value.h"
#include "common/result.h"

namespace mlds::kds {

class Engine;

/// Write-ahead log for one kernel engine.
///
/// Every mutating ABDL request (INSERT / DELETE / UPDATE) and every file
/// definition is appended to the log *before* it is applied, rendered by
/// the ABDL printer so each entry is a replayable request — the same
/// trick the snapshot format uses for its data section. A crash loses the
/// engine's in-memory state but not the log; RecoverEngine rebuilds the
/// engine from the last checkpoint snapshot plus the log's committed
/// entries.
///
/// Entry framing (one entry, possibly containing newlines in the payload):
///
///   E <payload_bytes> <fnv1a64_hex> <payload>\n
///
/// The length makes the payload self-delimiting and the checksum detects
/// torn tails: a crash mid-append leaves a prefix of a frame, which the
/// scanner identifies (length short, checksum mismatch, or missing
/// terminator) and discards — only fully framed entries are durable.
///
/// Payload grammar:
///
///   DEFINE <file> :: <attr> <kind> <max_length> <directory> <indexed> :: ...
///   INDEX <file> <attr>               -- secondary index built on demand
///   REQUEST <abdl request>            -- auto-committed single request
///   BEGIN <txn_id>
///   TREQUEST <txn_id> <abdl request>  -- request inside a transaction
///   COMMIT <txn_id>
///
/// (Logs written before the indexed flag carry four attribute fields;
/// DecodeDefineFile accepts both arities.)
///
/// A transaction's requests are durable only once its COMMIT entry is
/// framed; recovery discards in-flight transactions, yielding exactly the
/// committed prefix of the workload. Transactions on disjoint files may
/// interleave in the log (the engine runs them concurrently), which is
/// why transactional entries carry the transaction id.

/// FNV-1a 64-bit hash of `payload`: the WAL entry checksum.
uint64_t WalChecksum(std::string_view payload);

/// Parses an attribute kind name ("integer", "float", "string", "null")
/// as written by abdm::ValueKindToString. Shared by the WAL's DEFINE
/// entries and the snapshot's ATTR lines.
Result<abdm::ValueKind> ParseAttributeKind(std::string_view name);

/// Renders `descriptor` as a one-line DEFINE payload.
std::string EncodeDefineFile(const abdm::FileDescriptor& descriptor);

/// Parses the body of a DEFINE payload (everything after "DEFINE ").
Result<abdm::FileDescriptor> DecodeDefineFile(std::string_view body);

/// Simulated crash plan for a WAL: the fault injector of the durability
/// layer. After `entries_until_crash` more successful appends, the next
/// append writes only the first `torn_bytes` bytes of its frame (a torn
/// tail) and the log refuses all further writes — the engine is dead at
/// that record boundary until recovery.
struct WalCrashPlan {
  int entries_until_crash = 0;
  size_t torn_bytes = 0;
};

/// Appendable write-ahead log with group commit. Thread-safe: the engine
/// appends while holding its file locks, and several writers on disjoint
/// files may append concurrently. Storage is an in-memory buffer,
/// consistent with the snapshot layer's stream-based persistence;
/// `contents()` is what a durable medium would hold.
///
/// Concurrent appends coalesce (leader-follower handoff): each append
/// stages its framed entry and takes the next LSN under the mutex; if no
/// flush is in progress the appender becomes the flush leader, writes
/// *every* staged frame to the durable buffer as one combined write, and
/// publishes the batch's end LSN as the new durable LSN; other appenders
/// park on a condition variable until the durable LSN covers their entry
/// (or, finding no leader, take over leadership themselves). Every
/// appender thus returns only once its own entry — and, because flushes
/// are combined prefixes, every earlier entry — is durable, and all
/// members of one flush observe the same durable LSN. Under contention
/// this replaces N lock-acquire/write cycles with one combined flush;
/// single-threaded appends degrade to exactly the old one-write-per-entry
/// behavior. The simulated flush latency knob widens the coalescing
/// window the way a real device's sync time would.
class WalWriter {
 public:
  WalWriter() = default;
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Appends one framed entry and returns once it is durable. Returns
  /// Aborted once the log has crashed (see ArmCrash) — the write-ahead
  /// discipline then refuses the mutation, so nothing unlogged is ever
  /// applied.
  Status Append(std::string_view payload);

  /// Appends several framed entries under one mutex acquisition — the
  /// transaction-body and batch-insert fast path. The entries stage
  /// contiguously (no foreign entry interleaves between them) and become
  /// durable in one combined flush. The simulated crash plan counts each
  /// entry individually, so a crash can still tear the log at any entry
  /// boundary inside the batch.
  Status AppendBatch(const std::vector<std::string>& payloads);

  /// Group-commit observability: how many combined flushes the log has
  /// performed, how many entries they carried, and the largest group.
  struct GroupCommitStats {
    uint64_t flushes = 0;
    uint64_t entries = 0;
    uint64_t max_group = 0;
  };
  GroupCommitStats group_commit_stats() const;

  /// Simulated device sync time: the flush leader holds the flush open
  /// for `us` microseconds before combining, letting concurrent appends
  /// join its group (0 = flush immediately, the default).
  void set_flush_latency_us(uint32_t us);

  /// Arms the simulated crash (see WalCrashPlan).
  void ArmCrash(WalCrashPlan plan);

  bool crashed() const;

  /// Post-crash repair: truncates any torn tail frame and clears the
  /// crashed flag so the log accepts appends again (the controller calls
  /// this before replaying a backend's log on reintegration). Returns the
  /// number of torn bytes discarded.
  size_t RepairTail();

  /// Discards every entry: the checkpoint protocol truncates the log
  /// right after the engine's state is snapshotted (see Checkpoint).
  void Truncate();

  /// Snapshot of the log bytes (what a durable device would hold).
  std::string contents() const;

  /// Fully framed entries appended since the last Truncate.
  uint64_t entry_count() const;

  uint64_t bytes() const;

 private:
  /// Stages one frame (header + payload + '\n', appended straight into
  /// the staging buffer — a batch payload can run to megabytes, so no
  /// intermediate frame string) and assigns its LSN; fires the simulated
  /// crash (flushing everything staged ahead plus the torn prefix).
  /// Requires mutex_ held.
  Status StageLocked(std::string_view header, std::string_view payload,
                     uint64_t* lsn);
  /// Parks until durable_lsn_ covers `lsn`, taking flush leadership
  /// whenever none is active. Requires `lock` held; may release and
  /// reacquire it.
  Status WaitDurableLocked(std::unique_lock<std::mutex>& lock, uint64_t lsn);

  mutable std::mutex mutex_;
  std::condition_variable durable_cv_;
  std::string buffer_;   ///< durable bytes (what the medium holds).
  std::string pending_;  ///< staged frames awaiting the next flush.
  uint64_t next_lsn_ = 0;     ///< LSN of the most recently staged entry.
  uint64_t durable_lsn_ = 0;  ///< every entry with LSN <= this is durable.
  bool flush_leader_active_ = false;
  uint32_t flush_latency_us_ = 0;
  GroupCommitStats stats_;
  uint64_t entries_ = 0;
  bool crash_armed_ = false;
  bool crashed_ = false;
  WalCrashPlan crash_plan_;
};

/// One recovered WAL entry: its payload and position in the log.
struct WalEntry {
  uint64_t index = 0;
  std::string payload;
};

/// Result of scanning a log image: the fully framed entries plus whether
/// (and how much of) a torn tail was discarded.
struct WalScan {
  std::vector<WalEntry> entries;
  bool torn = false;
  size_t torn_bytes = 0;
};

/// Parses framed entries from `log`. Never fails: a malformed or
/// truncated frame ends the scan and is reported as the torn tail.
WalScan ScanWal(std::string_view log);

/// What RecoverEngine did.
struct RecoveryReport {
  /// Fully framed entries scanned from the log.
  size_t entries_scanned = 0;
  /// Committed requests replayed into the engine (DEFINE + REQUEST +
  /// TREQUEST of committed transactions).
  size_t replayed = 0;
  /// Requests of in-flight (uncommitted) transactions, discarded.
  size_t discarded_uncommitted = 0;
  /// Replayed requests whose re-execution failed. The engine applies
  /// requests deterministically, so a request that failed when first
  /// executed fails identically on replay — a nonzero count mirrors the
  /// original run, it does not indicate corruption.
  size_t failed_replays = 0;
  bool torn_tail = false;
  size_t torn_bytes = 0;
};

/// Applies one logged DEFINE, INDEX or REQUEST payload to `engine`: the
/// replay step crash recovery and MBDS backend catch-up share. A
/// malformed payload, or one of another kind, is a ParseError; otherwise
/// the call returns OK and `*outcome` holds the engine's own result,
/// which a deterministic replay reproduces.
Status ApplyWalPayload(std::string_view payload, Engine* engine,
                       Status* outcome);

/// Rebuilds a crashed engine: loads the checkpoint snapshot from
/// `snapshot` (an empty stream means "no checkpoint yet"), then replays
/// the committed entries of `log` in commit order. `engine` must be
/// freshly constructed and must not have a WAL attached (attach one after
/// recovery; replay must not re-log itself).
Result<RecoveryReport> RecoverEngine(std::istream& snapshot,
                                     std::string_view log, Engine* engine);

/// The checkpoint protocol: saves `engine`'s full state to `snapshot_out`
/// and truncates `wal` — every logged entry is now captured by the
/// snapshot, so recovery needs only (new snapshot, empty log). The caller
/// must quiesce the engine (no concurrent writers) between the save and
/// the truncation, or writes landing in that window would be lost.
Status Checkpoint(const Engine& engine, std::ostream& snapshot_out,
                  WalWriter* wal);

}  // namespace mlds::kds

#endif  // MLDS_KDS_WAL_H_
