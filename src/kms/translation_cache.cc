#include "kms/translation_cache.h"

#include "abdm/lexer.h"

namespace mlds::kms {

std::string NormalizeSource(std::string_view source) {
  // The four cached languages lex with the default dialect; only the
  // spelling is read, so no literal values are built on the hit path.
  abdm::Scanner scanner(source, abdm::Dialect{"statement"});
  std::string out;
  out.reserve(source.size());
  abdm::Token token;
  while (scanner.Next(&token).ok()) {
    if (token.kind == abdm::TokenKind::kEnd) return out;
    if (!out.empty()) out.push_back(' ');
    out.append(token.text);
  }
  return std::string(source);
}

std::string TranslationCache::MakeKey(std::string_view domain,
                                      std::string_view source) {
  std::string key(domain);
  key.push_back('\x1f');  // cannot appear in normalized source
  key += NormalizeSource(source);
  return key;
}

std::shared_ptr<const void> TranslationCache::Lookup(const std::string& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++misses_;
    return nullptr;
  }
  if (it->second.epoch != epoch_) {
    // Compiled against a pre-DDL schema: lazily evict.
    lru_.erase(it->second.lru_it);
    entries_.erase(it);
    ++evictions_;
    ++misses_;
    return nullptr;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  return it->second.value;
}

void TranslationCache::Insert(const std::string& key,
                              std::shared_ptr<const void> value) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    // Another session compiled the same key while we were compiling (or a
    // stale entry reappeared): replace and refresh.
    it->second.value = std::move(value);
    it->second.epoch = epoch_;
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    return;
  }
  while (capacity_ > 0 && entries_.size() >= capacity_) {
    entries_.erase(lru_.back());
    lru_.pop_back();
    ++evictions_;
  }
  lru_.push_front(key);
  entries_.emplace(key, Entry{std::move(value), epoch_, lru_.begin()});
}

void TranslationCache::InvalidateAll() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++epoch_;
}

TranslationCache::Stats TranslationCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  s.epoch = epoch_;
  s.size = entries_.size();
  return s;
}

uint64_t TranslationCache::epoch() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return epoch_;
}

}  // namespace mlds::kms
