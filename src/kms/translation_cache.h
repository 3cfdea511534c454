#ifndef MLDS_KMS_TRANSLATION_CACHE_H_
#define MLDS_KMS_TRANSLATION_CACHE_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>

#include "common/result.h"

namespace mlds::kms {

/// The statement's token spellings (abdm/lexer.h) joined by single
/// spaces, with whitespace and comments dropped: two texts share a key
/// only when they lex to the same tokens, so reformatted repeats of a
/// statement ("SELECT  *  FROM t" and "SELECT * FROM t", "a=1" and
/// "a = 1") share one entry while literals keep their exact spelling.
/// Text that does not lex is returned unchanged; it cannot equal the key
/// of text that does, since every key lexes.
std::string NormalizeSource(std::string_view source);

/// A shared compiled-translation cache for the four KMS language machines
/// (CODASYL-DML, Daplex, SQL, DL/I). The thesis's KMS re-translates every
/// statement from scratch; sessions, however, repeat the same statements
/// (loops in application programs, canned queries), so MLDS keeps the
/// translation — a parsed AST, or for pure SQL statements the
/// ready-to-issue ABDL requests — keyed by the statement's normalized
/// source text.
///
/// Keying and invalidation: every entry is stamped with the cache's
/// *schema epoch* at insert. DDL (loading any database) bumps the epoch
/// via InvalidateAll(), so entries compiled against the old schema miss
/// on their next lookup and are lazily evicted — no DDL-time sweep, and
/// no stale translation can ever be returned. Capacity overflow evicts
/// the least-recently-used entry.
///
/// Thread safety: all operations lock an internal mutex; compile
/// callbacks run *outside* the lock, so a slow compilation never blocks
/// other sessions (two sessions racing on the same cold key may both
/// compile — the second insert wins, which is harmless because
/// compilation is deterministic).
class TranslationCache {
 public:
  /// Cumulative counters plus a point-in-time size/epoch snapshot.
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    /// Entries removed: LRU capacity evictions plus lazy removals of
    /// entries invalidated by a schema-epoch bump.
    uint64_t evictions = 0;
    uint64_t epoch = 0;
    size_t size = 0;

    double HitRate() const {
      const uint64_t total = hits + misses;
      return total == 0 ? 0.0 : static_cast<double>(hits) / total;
    }
  };

  explicit TranslationCache(size_t capacity = 256) : capacity_(capacity) {}

  TranslationCache(const TranslationCache&) = delete;
  TranslationCache& operator=(const TranslationCache&) = delete;

  /// Returns the cached translation for (`domain`, normalized `source`),
  /// or runs `compile` and caches its result. `domain` partitions the key
  /// space per language ("sql", "dml", ...) so identical text in two
  /// languages cannot collide. `compile` must return Result<T>; its
  /// errors pass through uncached (a failing statement is re-diagnosed
  /// each time, which keeps error messages exact and the cache free of
  /// negative entries).
  template <typename T, typename CompileFn>
  Result<std::shared_ptr<const T>> GetOrCompile(std::string_view domain,
                                                std::string_view source,
                                                CompileFn&& compile) {
    const std::string key = MakeKey(domain, source);
    if (std::shared_ptr<const void> cached = Lookup(key)) {
      return std::static_pointer_cast<const T>(std::move(cached));
    }
    Result<T> compiled = compile();
    MLDS_RETURN_IF_ERROR(compiled.status());
    auto value = std::make_shared<const T>(std::move(*compiled));
    Insert(key, value);
    return std::shared_ptr<const T>(std::move(value));
  }

  /// Bumps the schema epoch: every current entry becomes stale and will
  /// be evicted on its next lookup. Called after any DDL.
  void InvalidateAll();

  Stats stats() const;
  uint64_t epoch() const;
  size_t capacity() const { return capacity_; }

 private:
  struct Entry {
    std::shared_ptr<const void> value;
    uint64_t epoch = 0;
    std::list<std::string>::iterator lru_it;
  };

  static std::string MakeKey(std::string_view domain, std::string_view source);

  /// The locked half of GetOrCompile's fast path: returns the live value
  /// (counting a hit) or nullptr (counting a miss, evicting a stale hit).
  std::shared_ptr<const void> Lookup(const std::string& key);
  void Insert(const std::string& key, std::shared_ptr<const void> value);

  const size_t capacity_;
  mutable std::mutex mutex_;
  std::map<std::string, Entry> entries_;
  /// Most-recently-used first.
  std::list<std::string> lru_;
  uint64_t epoch_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
};

/// TranslationCache::GetOrCompile through `cache` when a machine has one
/// attached; with none, compiles afresh and hands back the same shared
/// form, so callers have one code path either way.
template <typename T, typename CompileFn>
Result<std::shared_ptr<const T>> GetOrCompile(TranslationCache* cache,
                                              std::string_view domain,
                                              std::string_view source,
                                              CompileFn&& compile) {
  if (cache != nullptr) {
    return cache->GetOrCompile<T>(domain, source,
                                  std::forward<CompileFn>(compile));
  }
  Result<T> compiled = compile();
  MLDS_RETURN_IF_ERROR(compiled.status());
  return std::make_shared<const T>(std::move(*compiled));
}

}  // namespace mlds::kms

#endif  // MLDS_KMS_TRANSLATION_CACHE_H_
