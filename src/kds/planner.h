#ifndef MLDS_KDS_PLANNER_H_
#define MLDS_KDS_PLANNER_H_

#include <cstddef>
#include <optional>
#include <string_view>
#include <vector>

#include "abdm/query.h"
#include "abdm/stats.h"
#include "kds/plan.h"

namespace mlds::kds {

/// The adaptive intersection rule: materializing another candidate set
/// costs O(its estimate), which is only worth paying while the estimate
/// stays within a small factor of the current survivor count — beyond
/// that, per-record verification of the survivors is cheaper. The planner
/// applies it statically against the driver's estimate (children that can
/// never pass are not planned); the executor re-applies it dynamically
/// against the shrinking survivor set and may skip trailing children the
/// planner kept.
bool WorthIntersecting(size_t next_estimate, size_t current_size);

/// Pool-aware form: `cached_fraction` (DirectoryStats::cached_fraction)
/// discounts the materialization cost — candidate blocks already
/// resident in the buffer pool's cache cost no read, so probing another
/// index stays worthwhile longer on a warm file. A fraction of 0
/// (write-through mode) reduces to the rule above exactly.
bool WorthIntersecting(size_t next_estimate, size_t current_size,
                       double cached_fraction);

/// A DNF whose disjuncts are one predicate list but for one equality, at
/// one position, on one indexed attribute: (S and a = k1) or (S and a =
/// k2) or ... — the shape the front ends emit to fetch records by a set
/// of keys. The planner folds it into one conjunction whose key probe is
/// one point lookup per distinct key.
struct KeyFold {
  /// Position of the key equality in every disjunct.
  size_t position = 0;
  /// One key equality per distinct value, in value order (pointers into
  /// the folded query, which must outlive the fold).
  std::vector<const abdm::Predicate*> keys;

  /// The folded predicate: `record` satisfies `first` (any disjunct of
  /// the folded query) with its key equality replaced by membership of
  /// the record's keyword in the key set. Equality is Value equality, as
  /// in Predicate::Matches (a NULL key matches a NULL keyword only).
  bool Matches(const abdm::Conjunction& first,
               const abdm::Record& record) const;
};

/// The fold of `query`, or nullopt when it has fewer than two disjuncts,
/// its disjuncts differ anywhere but one equality on one attribute (or
/// nowhere), or that attribute is not indexed in `stats`.
std::optional<KeyFold> FoldKeys(const abdm::Query& query,
                                const abdm::DirectoryStats& stats);

/// Builds the physical plan for one conjunction against the directory
/// statistics. Every range predicate on one attribute folds into one
/// interval probe (the tightest bound on each side wins; != and null
/// operands never fold); each equality is a probe of its own. The
/// cheapest probe drives the fetch, further candidate sets are
/// intersected cheapest-first, a conjunction with no index-assisted probe
/// falls back to a full scan, and a probe the directory proves empty (an
/// absent value, or a contradictory interval) becomes a lone index node
/// with a zero estimate. With a `fold` of the query `conj` belongs to, the
/// key equality at the fold's position is replaced by one INDEX KEYS probe
/// whose estimate is the sum of the keys' buckets; it competes with the
/// other probes like any equality.
PlanNode PlanConjunction(const abdm::Conjunction& conj,
                         const abdm::DirectoryStats& stats,
                         const KeyFold* fold = nullptr);

/// Builds the plan for a DNF query over one file: a UNION root (labelled
/// with `file`) with one child per conjunction, in disjunct order — or,
/// when the query folds (FoldKeys), one child planned from the first
/// disjunct with the fold. The executor relies on that child ordering to
/// pair nodes with disjuncts, and on a lone child under several disjuncts
/// to recognise a fold.
PlanNode PlanQuery(const abdm::Query& query, const abdm::DirectoryStats& stats,
                   std::string_view file);

/// Join strategy choice from the two sides' (estimated or actual) row
/// counts. Merge pays two sorts but streams with no build table — worth
/// it only when both sides are large and balanced: min >= 64 rows and
/// max < 4 * min. Everything else hash-joins, building on the smaller
/// side. Deterministic so plan goldens can pin the choice.
JoinStrategy ChooseJoinStrategy(uint64_t left_rows, uint64_t right_rows);

/// Estimated output rows of an equi-join: left * right / max distinct
/// count of the join attribute (each missing distinct count defaults to
/// 1 — the all-rows-match worst case).
uint64_t EstimateJoinRows(uint64_t left_rows, uint64_t right_rows,
                          std::optional<size_t> left_distinct,
                          std::optional<size_t> right_distinct);

/// The adaptive re-plan trigger: true when actual and estimate disagree
/// by >= 10x (and the larger of the two is at least 10, so tiny results
/// never churn the strategy).
bool EstimateMissed(uint64_t estimate, uint64_t actual);

}  // namespace mlds::kds

#endif  // MLDS_KDS_PLANNER_H_
