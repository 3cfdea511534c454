#ifndef MLDS_KDS_FILE_IO_H_
#define MLDS_KDS_FILE_IO_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "common/result.h"
#include "common/status.h"

namespace mlds::kds {

/// Integrity bookkeeping for the storage layer. Counters accumulate per
/// engine and flow through Engine::counters() (KernelCounters) ->
/// KernelExecutor::Counters() -> STATS wire frame -> `.stats`.
struct IntegrityCounters {
  uint64_t checksum_failures = 0;   ///< Page verifies that failed.
  uint64_t io_errors_injected = 0;  ///< Faults served by FaultyFileIo.
  uint64_t io_errors_real = 0;      ///< Genuine I/O failures observed.
  uint64_t pages_scrubbed = 0;      ///< Pages walked by VerifyIntegrity.
  uint64_t files_rebuilt = 0;       ///< Quarantine + rebuild events.
  uint64_t fsyncs = 0;              ///< Durability barriers issued.

  friend bool operator==(const IntegrityCounters&,
                         const IntegrityCounters&) = default;

  IntegrityCounters& operator+=(const IntegrityCounters& other) {
    checksum_failures += other.checksum_failures;
    io_errors_injected += other.io_errors_injected;
    io_errors_real += other.io_errors_real;
    pages_scrubbed += other.pages_scrubbed;
    files_rebuilt += other.files_rebuilt;
    fsyncs += other.fsyncs;
    return *this;
  }
};

/// Thread-safe accumulator shared by every PageFile of an engine.
/// `io_errors` counts every I/O failure the storage layer observed;
/// the engine splits it into injected vs. real using the FileIo's
/// injected_faults() when snapshotting.
class AtomicIntegrityCounters {
 public:
  std::atomic<uint64_t> checksum_failures{0};
  std::atomic<uint64_t> io_errors{0};
  std::atomic<uint64_t> pages_scrubbed{0};
  std::atomic<uint64_t> files_rebuilt{0};
  std::atomic<uint64_t> fsyncs{0};

  /// Snapshots the counters; all observed I/O errors land in
  /// io_errors_real (the engine subtracts injected faults).
  IntegrityCounters Snapshot() const {
    IntegrityCounters c;
    c.checksum_failures = checksum_failures.load(std::memory_order_relaxed);
    c.io_errors_real = io_errors.load(std::memory_order_relaxed);
    c.pages_scrubbed = pages_scrubbed.load(std::memory_order_relaxed);
    c.files_rebuilt = files_rebuilt.load(std::memory_order_relaxed);
    c.fsyncs = fsyncs.load(std::memory_order_relaxed);
    return c;
  }
};

/// An open file. Positioned reads/writes so concurrent PageFiles never
/// share seek state; Sync is a real fsync (fdatasync where available).
class FileHandle {
 public:
  virtual ~FileHandle() = default;

  /// Reads up to `n` bytes at `offset`. Returns the byte count actually
  /// read (short at EOF), or an error status.
  virtual Result<size_t> ReadAt(uint64_t offset, void* buf, size_t n) = 0;

  /// Writes exactly `n` bytes at `offset`, extending the file as needed.
  /// A short write is an error (kds never tolerates torn page writes).
  virtual Status WriteAt(uint64_t offset, const void* buf, size_t n) = 0;

  /// Flushes written data to stable storage (fsync).
  virtual Status Sync() = 0;

  virtual Result<uint64_t> Size() = 0;

  virtual Status Truncate(uint64_t size) = 0;
};

/// The injectable file-I/O seam under PageFile, snapshot export, and the
/// clean-shutdown marker. `Default()` is the real POSIX implementation;
/// FaultyFileIo wraps any FileIo with seeded failpoints, mirroring the
/// backend-level mbds::FaultInjector.
class FileIo {
 public:
  virtual ~FileIo() = default;

  /// Opens `path` for read/write. With `create`, creates the file if it
  /// does not exist (never truncates an existing one).
  virtual Result<std::unique_ptr<FileHandle>> Open(const std::string& path,
                                                   bool create) = 0;

  virtual Status Rename(const std::string& from, const std::string& to) = 0;

  virtual Status Remove(const std::string& path) = 0;

  virtual bool Exists(const std::string& path) = 0;

  /// Faults this seam has served so far (0 for real I/O).
  virtual uint64_t injected_faults() const { return 0; }

  /// Writes `data` to `path` atomically: temp file in the same directory,
  /// write + fsync, then rename over the target. A crash at any point
  /// leaves either the old file or the new one, never a torn mix.
  Status WriteFileAtomic(const std::string& path, std::string_view data);

  /// Reads the whole of `path`.
  Result<std::string> ReadFile(const std::string& path);

  /// The process-wide real POSIX implementation.
  static FileIo* Default();
};

/// Failpoint kinds for FaultyFileIo, one per I/O verb the storage layer
/// exercises. kShortWrite tears a WriteAt in half (first half lands, the
/// rest is dropped) and reports failure, modelling a torn page write.
enum class IoFaultKind {
  kReadError,    ///< ReadAt fails with an injected EIO.
  kWriteError,   ///< WriteAt fails outright, no bytes written.
  kShortWrite,   ///< WriteAt writes a prefix then fails (torn write).
  kNoSpace,      ///< WriteAt fails with ENOSPC semantics.
  kSyncError,    ///< Sync fails (data may or may not be durable).
  kRenameError,  ///< Rename fails, leaving the temp file behind.
};

/// A FileIo decorator serving seeded failpoints. Arm(kind, countdown)
/// makes the (countdown+1)-th matching operation fail; count limits how
/// many faults are served (default 1). Thread-safe; counters are
/// cumulative across Arm calls.
class FaultyFileIo : public FileIo {
 public:
  explicit FaultyFileIo(FileIo* base = nullptr)
      : base_(base != nullptr ? base : FileIo::Default()) {}

  /// Arms a failpoint: the next `count` matching operations after
  /// skipping `countdown` of them fail.
  void Arm(IoFaultKind kind, uint64_t countdown = 0, uint64_t count = 1) {
    std::lock_guard<std::mutex> lock(mutex_);
    kind_ = kind;
    countdown_ = countdown;
    remaining_ = count;
    armed_ = true;
  }

  void Disarm() {
    std::lock_guard<std::mutex> lock(mutex_);
    armed_ = false;
  }

  uint64_t injected_faults() const override {
    return faults_served_.load(std::memory_order_relaxed);
  }

  Result<std::unique_ptr<FileHandle>> Open(const std::string& path,
                                            bool create) override;
  Status Rename(const std::string& from, const std::string& to) override;
  Status Remove(const std::string& path) override;
  bool Exists(const std::string& path) override;

  /// Consults the failpoint for an operation of `kind`; returns true when
  /// this operation must fail. Public for the wrapped handles.
  bool ShouldFault(IoFaultKind kind);

 private:
  FileIo* base_;
  std::mutex mutex_;
  bool armed_ = false;
  IoFaultKind kind_ = IoFaultKind::kReadError;
  uint64_t countdown_ = 0;
  uint64_t remaining_ = 0;
  std::atomic<uint64_t> faults_served_{0};
};

}  // namespace mlds::kds

#endif  // MLDS_KDS_FILE_IO_H_
