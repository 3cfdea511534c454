#ifndef MLDS_KDS_PLANNER_H_
#define MLDS_KDS_PLANNER_H_

#include <cstddef>
#include <string_view>

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

/// Builds the physical plan for one conjunction against the directory
/// statistics. Every range predicate on one attribute folds into one
/// interval probe (the tightest bound on each side wins; != and null
/// operands never fold); each equality is a probe of its own. The
/// cheapest probe drives the fetch, further candidate sets are
/// intersected cheapest-first, a conjunction with no index-assisted probe
/// falls back to a full scan, and a probe the directory proves empty (an
/// absent value, or a contradictory interval) becomes a lone index node
/// with a zero estimate.
PlanNode PlanConjunction(const abdm::Conjunction& conj,
                         const abdm::DirectoryStats& stats);

/// Builds the plan for a DNF query over one file: a UNION root (labelled
/// with `file`) with one child per conjunction, in disjunct order. The
/// executor relies on that child ordering to pair nodes with disjuncts.
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
