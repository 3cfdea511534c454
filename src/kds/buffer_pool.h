#ifndef MLDS_KDS_BUFFER_POOL_H_
#define MLDS_KDS_BUFFER_POOL_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/result.h"
#include "kds/io_stats.h"
#include "kds/page_file.h"

namespace mlds::kds {

/// Buffer-pool traffic counters, exposed through STATS and `.stats`.
struct PoolCounters {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t dirty_writebacks = 0;

  friend bool operator==(const PoolCounters&, const PoolCounters&) = default;

  PoolCounters& operator+=(const PoolCounters& o) {
    hits += o.hits;
    misses += o.misses;
    evictions += o.evictions;
    dirty_writebacks += o.dirty_writebacks;
    return *this;
  }
};

/// Shared LRU buffer pool over PageFile pages.
///
/// `capacity` bounds the number of *unpinned* cached frames; pinned
/// frames (a store's current fill page, pages mid-operation) are always
/// resident on top of that. Capacity 0 is write-through mode: a frame
/// lives only while pinned, every fetch is a miss charged to
/// IoStats::blocks_read, and dirty frames are written back the moment
/// their last pin drops — block counts then equal the logical distinct
/// pages touched, which keeps plan estimate/actual accounting exact.
/// With capacity > 0, re-fetching a resident page is a free hit and
/// dirty pages ride the LRU list until eviction or an explicit flush.
class BufferPool {
 public:
  struct Frame {
    PageFile* file = nullptr;
    uint64_t page = 0;
    std::string data;
    int pins = 0;
    bool dirty = false;
    std::list<Frame*>::iterator lru_pos;
    bool in_lru = false;
  };

  explicit BufferPool(size_t capacity, size_t page_bytes = kDefaultPageBytes);
  ~BufferPool();
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  size_t capacity() const { return capacity_; }
  size_t page_bytes() const { return page_bytes_; }

  /// Pins the frame for an existing page, reading it from `file` on a
  /// miss (charged to `io->blocks_read`).
  Result<Frame*> Fetch(PageFile* file, uint64_t page, IoStats* io);

  /// Pins a zero-initialized frame for a brand-new page (no read).
  Frame* Create(PageFile* file, uint64_t page);

  /// Marks a pinned frame's contents as newer than its on-disk page.
  void MarkDirty(Frame* frame);

  /// Writes a pinned frame's bytes to its file now (write-through path);
  /// charges `io->blocks_written` and clears the dirty bit.
  Status WriteThrough(Frame* frame, IoStats* io);

  /// Releases one pin. When the last pin drops: capacity 0 writes a
  /// dirty frame back and discards it; otherwise the frame joins the
  /// LRU list and the least-recent unpinned frame is evicted on
  /// overflow (dirty victims are written back first).
  void Unpin(Frame* frame, IoStats* io);

  /// Writes back every dirty frame of `file` (or all files when
  /// nullptr) without evicting; charges write-backs to `io`.
  Status Flush(PageFile* file, IoStats* io);

  /// Discards all frames of `file` without write-back. The caller must
  /// have released its pins (store teardown, compaction restart).
  void Drop(PageFile* file);

  /// Unpinned cached frames currently resident for `file` — the
  /// numerator of DirectoryStats::cached_fraction. Pinned working pages
  /// are deliberately excluded so write-through mode always reports 0.
  size_t ResidentCached(const PageFile* file) const;

  PoolCounters counters() const;

 private:
  struct KeyHash {
    size_t operator()(const std::pair<const PageFile*, uint64_t>& k) const {
      return std::hash<const void*>()(k.first) ^
             (std::hash<uint64_t>()(k.second) * 1099511628211ULL);
    }
  };
  using FrameMap = std::unordered_map<std::pair<const PageFile*, uint64_t>,
                                      std::unique_ptr<Frame>, KeyHash>;

  Status WriteBackLocked(Frame* frame, IoStats* io, bool eviction);
  void EvictOverflowLocked(IoStats* io);
  void RemoveFrameLocked(Frame* frame);

  const size_t capacity_;
  const size_t page_bytes_;

  mutable std::mutex mutex_;
  FrameMap frames_;
  std::list<Frame*> lru_;  // front = least recently used
  std::unordered_map<const PageFile*, size_t> cached_per_file_;
  PoolCounters counters_;
  Status sticky_error_;  // first async write-back failure, if any
};

}  // namespace mlds::kds

#endif  // MLDS_KDS_BUFFER_POOL_H_
