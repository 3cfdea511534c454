#ifndef MLDS_KDS_STATISTICS_H_
#define MLDS_KDS_STATISTICS_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "abdm/query.h"
#include "abdm/value.h"
#include "common/result.h"

namespace mlds::kds {

/// Counters of the statistics & join subsystem, surfaced through
/// STATS / `.stats` as the `stats.*` group. Summed over backends by the
/// MBDS executor the same way the pool counters are.
struct StatisticsCounters {
  /// Equi-depth histogram (re)builds — first build, staleness rebuilds,
  /// and epoch-invalidation rebuilds all count.
  uint64_t histogram_builds = 0;
  /// Adaptive re-plans: a join switched strategy or build side after a
  /// side's actual cardinality missed its estimate by >= 10x.
  uint64_t replans = 0;
  /// Joins executed with the hash strategy.
  uint64_t hash_joins = 0;
  /// Joins executed with the merge strategy.
  uint64_t merge_joins = 0;

  friend bool operator==(const StatisticsCounters&,
                         const StatisticsCounters&) = default;

  StatisticsCounters& operator+=(const StatisticsCounters& o) {
    histogram_builds += o.histogram_builds;
    replans += o.replans;
    hash_joins += o.hash_joins;
    merge_joins += o.merge_joins;
    return *this;
  }
};

/// Lock-free accumulation form of StatisticsCounters, owned by layers
/// that count joins while requests run concurrently (Engine, MBDS
/// controller).
struct AtomicStatisticsCounters {
  std::atomic<uint64_t> histogram_builds{0};
  std::atomic<uint64_t> replans{0};
  std::atomic<uint64_t> hash_joins{0};
  std::atomic<uint64_t> merge_joins{0};

  StatisticsCounters Snapshot() const {
    StatisticsCounters s;
    s.histogram_builds = histogram_builds.load(std::memory_order_relaxed);
    s.replans = replans.load(std::memory_order_relaxed);
    s.hash_joins = hash_joins.load(std::memory_order_relaxed);
    s.merge_joins = merge_joins.load(std::memory_order_relaxed);
    return s;
  }
};

/// An equi-depth histogram over one attribute's live values.
///
/// Built from the keyword directory's sorted value buckets, so each
/// histogram bucket covers a contiguous value range holding roughly
/// total/kDefaultBuckets rows. Key intervals are then estimated in
/// O(log buckets) instead of walking every matching value bucket, and the
/// per-bucket distinct counts give the join cardinality model its
/// denominators.
///
/// Error bound (pinned by planner_test): at build time a range estimate
/// is off by at most one bucket depth (the rows of the boundary bucket,
/// <= ceil(N / buckets) + the heaviest single value); incremental
/// maintenance widens that by at most drift() rows. Staleness triggers a
/// rebuild on the next mutation once drift exceeds a quarter of the rows
/// it was built over.
class AttributeHistogram {
 public:
  static constexpr size_t kDefaultBuckets = 32;

  struct Bucket {
    abdm::Value upper;      ///< Inclusive upper boundary value.
    uint64_t rows = 0;      ///< Rows in (previous upper, upper].
    uint64_t distinct = 0;  ///< Distinct values in the same range.
  };

  AttributeHistogram() = default;

  /// Builds from (value, count) pairs ascending by value. A value bucket
  /// is never split across histogram buckets, so depth() can exceed
  /// ceil(N / max_buckets) only by the heaviest value's count.
  static AttributeHistogram Build(
      const std::vector<std::pair<abdm::Value, uint64_t>>& sorted,
      size_t max_buckets = kDefaultBuckets) {
    return BuildRun(sorted, [](const auto& e) { return e.second; },
                    max_buckets);
  }

  /// Build over any run of pairs ascending by `.first` (a Value), counting
  /// `count_of(pair)` rows per value — a keyword-directory attribute map
  /// builds in place, copying only the histogram's boundary values.
  template <typename Run, typename CountOf>
  static AttributeHistogram BuildRun(const Run& run, CountOf count_of,
                                     size_t max_buckets = kDefaultBuckets);

  bool empty() const { return buckets_.empty(); }
  uint64_t total_rows() const { return total_; }
  uint64_t distinct_values() const { return distinct_; }
  uint64_t built_rows() const { return built_rows_; }
  uint64_t drift() const { return drift_; }
  size_t bucket_count() const { return buckets_.size(); }

  /// Maximum rows any bucket held at build time: the histogram's
  /// resolution, and the build-time error bound of Estimate.
  uint64_t depth() const { return depth_; }

  /// True once incremental maintenance has drifted far enough from the
  /// build (drift >= built_rows/4 + 16) that the owner should rebuild.
  bool Stale() const { return drift_ >= built_rows_ / 4 + 16; }

  /// Incremental maintenance on INSERT / DELETE / UPDATE. Values beyond
  /// the last boundary extend the last bucket. Each call adds one row of
  /// drift; distinct counts stay at their build-time values.
  void Add(const abdm::Value& v);
  void Remove(const abdm::Value& v);

  /// Estimated matches for a key interval over this attribute. A point
  /// answers rows/distinct of the containing bucket; any other interval
  /// answers below(upper) - below(lower), where below(v) sums the whole
  /// buckets under v plus half of the bucket containing it (a missing
  /// bound stands for 0 or the total).
  uint64_t Estimate(const abdm::KeyInterval& interval) const;

  /// True when both bounds of `interval` fall in the same bucket (or on
  /// the same side outside every bucket). The two below() halves then
  /// cancel, so the histogram cannot tell how much of the bucket the
  /// interval covers, and the owner counts its directory instead — a
  /// walk over at most one bucket's values.
  bool WithinOneBucket(const abdm::KeyInterval& interval) const;

  /// Single-line serialized form (page-file metadata); value boundaries
  /// are hex-wrapped ABDL literals so arbitrary string bytes survive the
  /// line-oriented format. Round-trips through Decode.
  std::string Encode() const;
  static Result<AttributeHistogram> Decode(std::string_view text);

 private:
  /// Index of the bucket whose range contains `v`, or npos when the
  /// histogram is empty or `v` precedes the lowest value.
  size_t BucketFor(const abdm::Value& v) const;

  /// Rows estimated at or below `v`.
  uint64_t Below(const abdm::Value& v) const;

  std::vector<Bucket> buckets_;
  abdm::Value lower_;        ///< Minimum value at build (inclusive).
  uint64_t total_ = 0;       ///< Live rows covered (maintained).
  uint64_t distinct_ = 0;    ///< Distinct values at build.
  uint64_t built_rows_ = 0;  ///< Rows at build time.
  uint64_t depth_ = 0;       ///< Max bucket rows at build time.
  uint64_t drift_ = 0;       ///< Adds + removes since build.
};

template <typename Run, typename CountOf>
AttributeHistogram AttributeHistogram::BuildRun(const Run& run,
                                                CountOf count_of,
                                                size_t max_buckets) {
  AttributeHistogram h;
  if (max_buckets == 0) max_buckets = 1;
  uint64_t total = 0;
  for (const auto& entry : run) total += count_of(entry);
  if (total == 0) return h;
  const uint64_t target = (total + max_buckets - 1) / max_buckets;
  h.lower_ = run.begin()->first;
  Bucket current;
  const abdm::Value* upper = nullptr;
  for (const auto& entry : run) {
    upper = &entry.first;
    current.rows += count_of(entry);
    current.distinct += 1;
    if (current.rows >= target) {
      current.upper = *upper;
      h.depth_ = std::max(h.depth_, current.rows);
      h.buckets_.push_back(std::move(current));
      current = Bucket{};
    }
    h.distinct_ += 1;
  }
  if (current.rows > 0) {
    current.upper = *upper;
    h.depth_ = std::max(h.depth_, current.rows);
    h.buckets_.push_back(std::move(current));
  }
  h.total_ = total;
  h.built_rows_ = total;
  return h;
}

/// The per-file statistics set: one histogram per indexed attribute,
/// versioned by a schema epoch like the translation cache — any change
/// that invalidates value distributions wholesale (compaction rewrites,
/// new secondary index, schema redefinition) bumps the epoch and drops
/// every histogram, so estimates are rebuilt from the post-change
/// directory instead of drifting silently. Persisted histograms carry
/// the epoch they were built under; a loader discards mismatches.
///
/// Thread safety: none of its own. The owning FileStore mutates it only
/// under its exclusive file lock (INSERT/DELETE/UPDATE paths) and reads
/// it under the shared lock, which is exactly the discipline the
/// directory index itself follows.
class FileStatistics {
 public:
  uint64_t epoch() const { return epoch_; }
  uint64_t builds() const { return builds_; }

  /// Invalidate: advance the epoch and drop every histogram.
  void BumpEpoch() {
    ++epoch_;
    histograms_.clear();
  }

  /// Adopt a persisted epoch (page-file metadata load).
  void RestoreEpoch(uint64_t epoch) { epoch_ = epoch; }

  const AttributeHistogram* Find(std::string_view attr) const {
    auto it = histograms_.find(attr);
    return it == histograms_.end() ? nullptr : &it->second;
  }
  AttributeHistogram* Find(std::string_view attr) {
    auto it = histograms_.find(attr);
    return it == histograms_.end() ? nullptr : &it->second;
  }

  /// Installs a freshly built histogram and counts the build.
  void Install(std::string attr, AttributeHistogram histogram) {
    histograms_[std::move(attr)] = std::move(histogram);
    ++builds_;
  }

  /// Installs a histogram decoded from persisted metadata (no build
  /// happened, so none is counted).
  void Restore(std::string attr, AttributeHistogram histogram) {
    histograms_[std::move(attr)] = std::move(histogram);
  }

  void Clear() { histograms_.clear(); }

  const std::map<std::string, AttributeHistogram, std::less<>>& histograms()
      const {
    return histograms_;
  }

 private:
  std::map<std::string, AttributeHistogram, std::less<>> histograms_;
  uint64_t epoch_ = 0;
  uint64_t builds_ = 0;
};

}  // namespace mlds::kds

#endif  // MLDS_KDS_STATISTICS_H_
