#ifndef MLDS_KDS_PLAN_H_
#define MLDS_KDS_PLAN_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "abdm/query.h"
#include "abdm/stats.h"

namespace mlds::kds {

/// Physical strategy of a kJoin node. kNone on non-join nodes (and on
/// join trees built before the strategy choice ran).
enum class JoinStrategy {
  kNone = 0,
  /// Build a hash table on the smaller side, probe with the larger.
  kHash,
  /// Sort both sides on the join attribute and zip them.
  kMerge,
};

std::string_view JoinStrategyName(JoinStrategy strategy);

/// Physical plan node kinds. The kernel planner emits the access-path
/// kinds (index equality/range, full scan, intersect, union); the layers
/// above graft their own nodes onto the tree: the engine adds
/// project/aggregate, RETRIEVE-COMMON adds a join, the KMS front ends add
/// a per-statement sequence, and the MBDS controller adds a per-backend
/// merge root.
enum class PlanNodeKind {
  /// Directory bucket lookup for an equality predicate.
  kIndexEquality,
  /// One ordered-directory lower_bound...upper_bound walk for every range
  /// predicate of the conjunction on one attribute, folded into a single
  /// interval.
  kIndexRange,
  /// One point lookup per key of a folded key set (see KeyFold): the
  /// disjuncts of a DNF that differ only in one equality on one indexed
  /// attribute, probed as one candidate set.
  kIndexKeys,
  /// Scan of every allocated block of the file.
  kFullScan,
  /// Candidate-set intersection, children ordered cheapest-estimate
  /// first; the executor may skip trailing children when the adaptive
  /// cutoff says per-record verification is cheaper (they stay
  /// `executed == false`).
  kIntersect,
  /// One child per conjunction of the DNF query, or one child for every
  /// disjunct when they fold into a key set.
  kUnionOfConjunctions,
  /// Target-list projection (with optional BY grouping).
  kProject,
  /// Aggregate evaluation (AVG/MIN/MAX/SUM/COUNT).
  kAggregate,
  /// RETRIEVE-COMMON: children are the two sides' plans.
  kJoin,
  /// One front-end statement that issued several kernel requests; one
  /// child per request, in issue order.
  kSequence,
  /// MBDS controller gather: one child per backend, in backend-id order.
  kBackendMerge,
};

std::string_view PlanNodeKindName(PlanNodeKind kind);

/// One node of an annotated physical plan.
///
/// Estimates are filled by the planner from directory statistics before
/// execution; actuals are filled by the executor as the node runs.
/// Counter semantics: a node "produces" rows for its parent — an index
/// leaf under an intersect produces its candidate id list, a
/// conjunction-root node produces verified matches, a union produces the
/// distinct matches of the file, project/aggregate produce output rows.
///
/// Documented estimate bound for index-driven conjunctions: the planner's
/// `est_blocks` is `min(est_rows, allocated_blocks)` — the worst case of
/// every candidate living in its own block — so after execution
/// `actual_blocks <= est_blocks`, and when every candidate is live (the
/// directory only lists live records) at least
/// `ceil(actual_rows / block_capacity)` blocks are touched, where
/// `block_capacity` is the store's record cap per page. A full scan's
/// estimate is exact: `actual_blocks == est_blocks`.
struct PlanNode {
  PlanNodeKind kind = PlanNodeKind::kFullScan;

  /// Context string: the file name on a union root, the backend label on
  /// a merge child, the target list on a project node, …
  std::string label;

  /// The predicates an index node resolves against the directory: one
  /// equality, or the bounds of one folded key interval — the tightest
  /// lower and/or upper range predicate on the attribute, lower first.
  std::vector<abdm::Predicate> predicates;

  /// True when an index node is served by a secondary index (a declared
  /// non-directory attribute) rather than the primary keyword
  /// directory; rendered as a "[secondary]" marker in EXPLAIN output.
  bool secondary = false;

  /// Where est_rows came from ([directory] / [histogram] / [heuristic]
  /// in EXPLAIN output; kNone renders nothing — structural nodes whose
  /// estimates are just child sums).
  abdm::EstimateSource est_source = abdm::EstimateSource::kNone;

  /// Physical strategy of a kJoin node ([hash] / [merge] in EXPLAIN).
  JoinStrategy join_strategy = JoinStrategy::kNone;

  /// True when adaptive execution re-planned this node mid-plan — its
  /// side's actual cardinality missed the estimate by >= 10x and the
  /// strategy choice was redone ([replanned] in EXPLAIN).
  bool replanned = false;

  /// Planner estimates.
  uint64_t est_rows = 0;
  uint64_t est_blocks = 0;

  /// Executor actuals (stay 0 until the node runs).
  uint64_t actual_rows = 0;
  uint64_t actual_blocks = 0;

  /// True once the executor ran the node. Intersect children behind the
  /// adaptive cutoff — and conjunctions behind an empty survivor set —
  /// are planned but never executed.
  bool executed = false;

  std::vector<PlanNode> children;

  /// One-line description without counters, e.g.
  /// "INDEX RANGE (key >= 8128) [histogram]".
  std::string Describe() const;

  /// Indented tree rendering with estimated-vs-actual counters; the byte
  /// format the KFS formatters and the plan golden tests pin down.
  std::string ToString() const;

  /// Sum of a counter over the immediate children.
  uint64_t SumChildren(uint64_t PlanNode::* counter) const;
};

/// Combines the plans the kernel requests of one front-end statement
/// produced: no plans -> null, one -> passed through, several -> nested
/// under an executed SEQUENCE root with one child per request in issue
/// order and counters summed. Null entries (requests that produced no
/// plan, e.g. INSERT) are dropped first.
std::shared_ptr<const PlanNode> SequencePlans(
    std::vector<std::shared_ptr<const PlanNode>> plans);

}  // namespace mlds::kds

#endif  // MLDS_KDS_PLAN_H_
