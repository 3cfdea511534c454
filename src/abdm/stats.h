#ifndef MLDS_ABDM_STATS_H_
#define MLDS_ABDM_STATS_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

#include "abdm/query.h"

namespace mlds::abdm {

/// Where a cardinality estimate came from. The planner stamps the source
/// onto the plan node it produced so EXPLAIN can render estimate
/// provenance (`[directory]`, `[histogram]`, `[heuristic]`).
enum class EstimateSource {
  kNone = 0,    // no estimate attached (structural nodes)
  kDirectory,   // exact bucket count read off the keyword directory
  kHistogram,   // interpolated from an equi-depth histogram
  kHeuristic,   // fallback (live-record count, fixed selectivity)
};

std::string_view EstimateSourceToString(EstimateSource source);

/// A cardinality estimate together with its provenance.
struct CardinalityEstimate {
  size_t rows = 0;
  EstimateSource source = EstimateSource::kHeuristic;
};

/// Read-only statistics a keyword directory exposes to the query planner.
///
/// The attribute-based directory (Ch. II.C) clusters record ids under
/// (attribute, value) keywords, so the number of candidates an
/// index-assisted predicate would yield can be read off the bucket sizes
/// without materializing any id list. The KDS planner consumes only this
/// interface — not the FileStore itself — which keeps plan construction
/// unit-testable against synthetic statistics.
class DirectoryStats {
 public:
  virtual ~DirectoryStats() = default;

  /// Number of candidate ids the directory would yield for `interval`,
  /// or nullopt when its attribute is not indexed. A value of 0 means the
  /// directory alone proves no record matches.
  virtual std::optional<size_t> EstimateMatches(
      const KeyInterval& interval) const = 0;

  /// Number of live records in the file.
  virtual size_t live_records() const = 0;

  /// Number of blocks currently allocated (including partially dead ones);
  /// the cost of a full scan.
  virtual uint64_t allocated_blocks() const = 0;

  /// True when `attr` is served by a secondary index rather than the
  /// primary keyword directory. Purely descriptive: estimates and
  /// lookups behave identically; the planner uses it to label the
  /// access path in EXPLAIN output. Defaulted so synthetic statistics
  /// (tests) need not override it.
  virtual bool IsSecondaryIndex(std::string_view) const { return false; }

  /// Fraction of this file's blocks resident in the buffer pool's
  /// *cache* (pinned working pages excluded), in [0, 1]. The planner
  /// discounts candidate-set materialization cost by it: probing
  /// another index is cheaper when the blocks it would save are cold.
  /// 0 (the default, and always the value in write-through mode)
  /// reproduces the pool-unaware cost model exactly.
  virtual double cached_fraction() const { return 0.0; }

  /// EstimateMatches plus provenance. The default labels EstimateMatches
  /// (an exact directory bucket count) `[directory]`, so synthetic test
  /// statistics get a source for free. Implementations with histograms
  /// override this to answer wide ranges from them without walking every
  /// value bucket.
  virtual std::optional<CardinalityEstimate> EstimateWithSource(
      const KeyInterval& interval) const {
    if (auto n = EstimateMatches(interval); n.has_value()) {
      return CardinalityEstimate{*n, EstimateSource::kDirectory};
    }
    return std::nullopt;
  }

  /// Number of distinct values of `attr` among live records, or nullopt
  /// when unknown (attribute not indexed / no statistics kept). Join
  /// cardinality estimation divides by it.
  virtual std::optional<size_t> DistinctValues(std::string_view) const {
    return std::nullopt;
  }
};

}  // namespace mlds::abdm

#endif  // MLDS_ABDM_STATS_H_
